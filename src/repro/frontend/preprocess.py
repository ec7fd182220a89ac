"""A deliberately small C preprocessor.

pycparser consumes already-preprocessed source.  The workloads in this
repository only use three preprocessor features, so we implement exactly
those rather than shipping a full cpp:

* ``#include`` lines are dropped (the runtime intrinsics are built in);
* object-like ``#define NAME token(s)`` macros are expanded textually at
  identifier boundaries, with recursive expansion of macros that mention
  other macros;
* ``#ifdef/#ifndef/#else/#endif`` blocks over the defined macro set.

Function-like macros raise :class:`UnsupportedFeatureError` so mistakes
fail loudly.
"""

from __future__ import annotations

import re

from ..errors import UnsupportedFeatureError

_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)(\(?)\s*(.*?)\s*$")
_INCLUDE_RE = re.compile(r"^\s*#\s*include\b")
_IFDEF_RE = re.compile(r"^\s*#\s*ifdef\s+(\w+)\s*$")
_IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)\s*$")
_ELSE_RE = re.compile(r"^\s*#\s*else\s*$")
_ENDIF_RE = re.compile(r"^\s*#\s*endif\s*$")
_UNDEF_RE = re.compile(r"^\s*#\s*undef\s+(\w+)\s*$")
_WORD_RE = re.compile(r"\b\w+\b")

#: a string or char literal: to its closing quote, or to the end of the
#: text when none closes it; a backslash escapes the next character
LITERAL = r'"(?:[^"\\]|\\.?)*"?|\'(?:[^\'\\]|\\.?)*\'?'
_COMMENT_RE = re.compile(LITERAL + r"|/\*.*?(?:\*/|\Z)|//[^\n]*", re.S)
_LITERAL_SPLIT_RE = re.compile(f"({LITERAL})", re.S)

_MAX_EXPANSION_DEPTH = 32


def preprocess(source: str, defines: dict[str, str] | None = None) -> str:
    """Expand the supported directives; return pycparser-ready C."""
    source = strip_comments(source)
    macros: dict[str, str] = dict(defines or {})
    # any macro name as a whole word; None once #define/#undef change them
    names: re.Pattern[str] | None = None
    out_lines: list[str] = []
    # stack of booleans: are we currently emitting?
    active_stack: list[bool] = []

    def active() -> bool:
        return all(active_stack)

    for lineno, line in enumerate(source.splitlines(), start=1):
        if _INCLUDE_RE.match(line):
            out_lines.append("")
            continue
        m = _IFDEF_RE.match(line)
        if m:
            active_stack.append(m.group(1) in macros)
            out_lines.append("")
            continue
        m = _IFNDEF_RE.match(line)
        if m:
            active_stack.append(m.group(1) not in macros)
            out_lines.append("")
            continue
        if _ELSE_RE.match(line):
            if not active_stack:
                raise UnsupportedFeatureError(f"line {lineno}: #else without #if")
            active_stack[-1] = not active_stack[-1]
            out_lines.append("")
            continue
        if _ENDIF_RE.match(line):
            if not active_stack:
                raise UnsupportedFeatureError(f"line {lineno}: #endif without #if")
            active_stack.pop()
            out_lines.append("")
            continue
        if not active():
            out_lines.append("")
            continue
        m = _UNDEF_RE.match(line)
        if m:
            macros.pop(m.group(1), None)
            names = None
            out_lines.append("")
            continue
        m = _DEFINE_RE.match(line)
        if m:
            name, paren, body = m.groups()
            if paren == "(":
                raise UnsupportedFeatureError(
                    f"line {lineno}: function-like macro {name} is not supported"
                )
            macros[name] = body
            names = None
            out_lines.append("")
            continue
        if line.lstrip().startswith("#"):
            raise UnsupportedFeatureError(
                f"line {lineno}: unsupported preprocessor directive: {line.strip()}"
            )
        if macros:
            # a line with no macro name in it expands to itself
            if names is None:
                names = re.compile(
                    r"\b(?:" + "|".join(map(re.escape, macros)) + r")\b"
                )
            if names.search(line):
                line = _expand(line, macros)
        out_lines.append(line)

    if active_stack:
        raise UnsupportedFeatureError("unterminated #ifdef/#ifndef block")
    return "\n".join(out_lines) + "\n"


def strip_comments(source: str) -> str:
    """Remove ``/* ... */`` and ``// ...`` comments, preserving string and
    character literals and keeping line numbers stable (block comments are
    replaced by the newlines they spanned)."""
    return _COMMENT_RE.sub(_uncomment, source)


def _uncomment(match: re.Match[str]) -> str:
    """A literal as it is; a comment as the whitespace that replaces it."""
    text = match.group()
    if text[0] in "\"'":
        return text
    if text[1] == "/":
        return ""
    if len(text) < 4 or not text.endswith("*/"):
        raise UnsupportedFeatureError("unterminated block comment")
    return " " + "\n" * text.count("\n")


def _expand(line: str, macros: dict[str, str]) -> str:
    """Expand object-like macros in a line, skipping string literals."""
    pieces = _LITERAL_SPLIT_RE.split(line)
    # even pieces are code, odd ones literals
    for index in range(0, len(pieces), 2):
        piece = pieces[index]
        for _ in range(_MAX_EXPANSION_DEPTH):
            new_piece = _WORD_RE.sub(
                lambda m: macros.get(m.group(0), m.group(0)), piece
            )
            if new_piece == piece:
                break
            piece = new_piece
        else:
            raise UnsupportedFeatureError(
                f"macro expansion did not terminate in: {line.strip()}"
            )
        pieces[index] = piece
    return "".join(pieces)
