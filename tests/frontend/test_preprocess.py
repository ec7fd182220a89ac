"""Tests for the mini-preprocessor."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import UnsupportedFeatureError
from repro.frontend.preprocess import (
    _LITERAL_SPLIT_RE,
    _expand,
    preprocess,
    strip_comments,
)


class TestComments:
    def test_block_comment_removed(self):
        assert strip_comments("int /* comment */ x;") == "int   x;"

    def test_line_comment_removed(self):
        assert strip_comments("int x; // tail\nint y;") == "int x; \nint y;"

    def test_multiline_block_keeps_line_numbers(self):
        out = strip_comments("a /* one\ntwo\nthree */ b")
        assert out.count("\n") == 2
        assert "one" not in out

    def test_comment_markers_inside_strings_survive(self):
        src = 'char *s = "/* not a comment */";'
        assert strip_comments(src) == src

    def test_slashes_in_char_literal(self):
        src = "int c = '/';\nint d = c / 2; // half"
        out = strip_comments(src)
        assert "'/'" in out
        assert "half" not in out

    def test_unterminated_block_comment_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            strip_comments("int x; /* never closed")


class TestDefines:
    def test_object_macro_expansion(self):
        out = preprocess("#define N 10\nint a[N];\n")
        assert "int a[10];" in out

    def test_macro_not_expanded_inside_identifier(self):
        out = preprocess("#define N 10\nint N1;\nint xN;\n")
        assert "int N1;" in out
        assert "int xN;" in out

    def test_macro_not_expanded_in_string(self):
        out = preprocess('#define N 10\nchar *s = "N";\n')
        assert '"N"' in out

    def test_recursive_expansion(self):
        out = preprocess("#define A B\n#define B 3\nint x = A;\n")
        assert "int x = 3;" in out

    def test_self_referential_macro_detected(self):
        with pytest.raises(UnsupportedFeatureError):
            preprocess("#define LOOP LOOP more\nint x = LOOP;\n")

    def test_function_like_macro_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            preprocess("#define SQ(x) ((x)*(x))\n")

    def test_external_defines(self):
        out = preprocess("int mode = MODE;\n", defines={"MODE": "2"})
        assert "int mode = 2;" in out

    def test_undef(self):
        out = preprocess("#define N 1\n#undef N\nint N;\n")
        assert "int N;" in out


class TestConditionals:
    def test_ifdef_taken(self):
        out = preprocess("#define ON 1\n#ifdef ON\nint x;\n#endif\n")
        assert "int x;" in out

    def test_ifdef_skipped(self):
        out = preprocess("#ifdef OFF\nint x;\n#endif\nint y;\n")
        assert "int x;" not in out
        assert "int y;" in out

    def test_ifndef(self):
        out = preprocess("#ifndef OFF\nint x;\n#endif\n")
        assert "int x;" in out

    def test_else(self):
        out = preprocess("#ifdef OFF\nint x;\n#else\nint y;\n#endif\n")
        assert "int x;" not in out
        assert "int y;" in out

    def test_nested_conditionals(self):
        src = (
            "#define A 1\n#ifdef A\n#ifdef B\nint both;\n#else\n"
            "int only_a;\n#endif\n#endif\n"
        )
        out = preprocess(src)
        assert "int only_a;" in out
        assert "int both;" not in out

    def test_unbalanced_endif_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            preprocess("#endif\n")

    def test_unterminated_ifdef_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            preprocess("#ifdef X\nint a;\n")

    def test_line_numbers_preserved(self):
        src = "#include <stdio.h>\n\nint x;\n"
        out = preprocess(src)
        assert out.splitlines()[2] == "int x;"


class TestIncludes:
    def test_include_dropped(self):
        out = preprocess('#include <stdio.h>\n#include "local.h"\nint x;\n')
        assert "include" not in out
        assert "int x;" in out

    def test_unknown_directive_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            preprocess("#pragma once\n")


# ---------------------------------------------------------------------------
# the whole-word fast path against the algorithm before it
# ---------------------------------------------------------------------------

_REFERENCE_WORD_RE = re.compile(r"\b\w+\b")


def reference_expand(line: str, macros: dict[str, str]) -> str:
    """Macro expansion as it was before the fast path: every line is
    re-substituted word by word until it stops changing."""
    if not macros:
        return line
    expanded: list[str] = []
    for piece, is_string in reference_split_strings(line):
        if not is_string:
            for _ in range(32):
                new_piece = _REFERENCE_WORD_RE.sub(
                    lambda m: macros.get(m.group(0), m.group(0)), piece
                )
                if new_piece == piece:
                    break
                piece = new_piece
            else:
                raise UnsupportedFeatureError("macro expansion did not terminate")
        expanded.append(piece)
    return "".join(expanded)


def reference_preprocess(items: list[tuple[str, str, str]]) -> str:
    macros: dict[str, str] = {}
    out: list[str] = []
    for kind, name, text in items:
        if kind == "define":
            macros[name] = text
            out.append("")
        elif kind == "undef":
            macros.pop(name, None)
            out.append("")
        else:
            out.append(reference_expand(text, macros))
    return "\n".join(out) + "\n"


def render(items: list[tuple[str, str, str]]) -> str:
    lines = []
    for kind, name, text in items:
        if kind == "define":
            lines.append(f"#define {name} {text}")
        elif kind == "undef":
            lines.append(f"#undef {name}")
        else:
            lines.append(text)
    return "\n".join(lines) + "\n"


_NAMES = ["N", "M", "SIZE", "x"]
_WORDS = _NAMES + ["N2", "xN", "_N", "SIZE_", "y", "1", "42"]
# at most one word per body: a body naming its own macro twice would
# double the line on every round of the reference's 32
_bodies = st.tuples(
    st.sampled_from(["", "(", "-"]),
    st.sampled_from(_WORDS + [""]),
    st.sampled_from(["", "+ 1", ")", "* 2"]),
).map(lambda parts: " ".join(p for p in parts if p))
_literals = st.sampled_from(
    ['"N"', '"x SIZE"', '"say \\"N\\""', "'N'", "'x'", "'\\''", '"M\\\\"', '""']
)
_code = st.lists(
    st.one_of(st.sampled_from(_WORDS + ["+", "=", ";", "[", "]", "{"]), _literals),
    min_size=1,
    max_size=8,
).map(" ".join)
_items = st.lists(
    st.one_of(
        st.tuples(st.just("define"), st.sampled_from(_NAMES), _bodies),
        st.tuples(st.just("undef"), st.sampled_from(_NAMES), st.just("")),
        st.tuples(st.just("code"), st.just(""), _code),
    ),
    max_size=12,
)


def _outcome(run):
    try:
        return run()
    except UnsupportedFeatureError:
        return "error"


@settings(max_examples=300, deadline=None)
@given(_items)
@example([("define", "N", "M"), ("define", "M", "2"), ("code", "", "int a[N];")])
@example([("define", "N", "1"), ("code", "", 'puts("N");')])
@example([("define", "N", "1"), ("undef", "N", ""), ("code", "", "N;")])
@example([("define", "N", "x"), ("define", "x", "N"), ("code", "", "N;")])
def test_fast_path_expands_as_the_reference(items):
    source = render(items)
    assert _outcome(lambda: preprocess(source)) == _outcome(
        lambda: reference_preprocess(items)
    )



# ---------------------------------------------------------------------------
# the literal regex against the character loops before it
# ---------------------------------------------------------------------------

def reference_strip_comments(source: str) -> str:
    """``strip_comments`` as a character loop, as it was before the
    shared literal regex."""
    out: list[str] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in "\"'":
            quote = ch
            j = i + 1
            while j < n:
                if source[j] == "\\":
                    j += 2
                    continue
                if source[j] == quote:
                    j += 1
                    break
                j += 1
            out.append(source[i:j])
            i = j
        elif ch == "/" and i + 1 < n and source[i + 1] == "*":
            end = source.find("*/", i + 2)
            if end == -1:
                raise UnsupportedFeatureError("unterminated block comment")
            out.append(" ")
            out.append("\n" * source.count("\n", i, end + 2))
            i = end + 2
        elif ch == "/" and i + 1 < n and source[i + 1] == "/":
            end = source.find("\n", i)
            i = n if end == -1 else end
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def reference_split_strings(line: str) -> list[tuple[str, bool]]:
    """A line as (text, inside_string_or_char_literal) runs, by the
    character loop the preprocessor used before the shared regex."""
    pieces: list[tuple[str, bool]] = []
    i = 0
    n = len(line)
    start = 0
    while i < n:
        ch = line[i]
        if ch in "\"'":
            if start < i:
                pieces.append((line[start:i], False))
            quote = ch
            j = i + 1
            while j < n:
                if line[j] == "\\":
                    j += 2
                    continue
                if line[j] == quote:
                    j += 1
                    break
                j += 1
            pieces.append((line[i:j], True))
            i = j
            start = j
        else:
            i += 1
    if start < n:
        pieces.append((line[start:], False))
    return pieces


_SCANNED = st.text(alphabet="\"'\\/*{} aN\n", max_size=40)


@settings(max_examples=2000, deadline=None)
@given(_SCANNED)
@example("a \\")
@example("'a\\")
@example('"a\\')
@example('"/* \\" */ x" // y')
@example("/*/ a")
@example("/**/")
@example("'\\\n' /* a\nb */ N")
def test_literal_regex_scans_as_the_character_loops(source):
    assert _outcome(lambda: strip_comments(source)) == _outcome(
        lambda: reference_strip_comments(source)
    )
    macros = {"N": "1", "a": "N"}
    for line in source.splitlines():
        assert _expand(line, macros) == reference_expand(line, macros)
        literals = [p for p, quoted in reference_split_strings(line) if quoted]
        assert _LITERAL_SPLIT_RE.split(line)[1::2] == literals
