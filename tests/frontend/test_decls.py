"""The per-declaration front end: the split, the memo, and the
whole-file path that store-less compiles, typedef programs and errors
take.

Every AST the per-declaration parse produces must equal the whole-file
AST node for node (coordinates excepted) and lower to byte-identical
IR, both fresh and from the memo; every error must read exactly as a
whole-file compile's.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest
from pycparser import c_ast

from repro.errors import FrontendError
from repro.frontend import DeclMemo, ModuleLowerer, compile_c, preprocess
from repro.frontend import decls as decls_module
from repro.frontend import _parse_whole
from repro.frontend.decls import DECL_MEMO_NAMES, split_declarations
from repro.fuzz import generate_program
from repro.inccomp import FunctionStore, mutate_function
from repro.ir.printer import format_module
from repro.pipeline import PipelineOptions, compile_source
from repro.workloads import all_workloads

CORPUS = sorted((Path(__file__).parent.parent / "corpus").glob("*.c"))
FUZZ_SEEDS = range(64)

TYPEDEFS = r"""
typedef int counter;
typedef double real;
counter c;
int main(void) {
    real r;
    c = 3;
    r = 1.5;
    printf("%d %f\n", c, r);
    return 0;
}
"""

# ``T`` is a type name at file scope, an identifier inside ``twice``, and
# a type name again in ``succ``
SHADOWED_TYPEDEF = r"""
typedef int T;
typedef struct { int x; int y; } Point;
T g;
Point origin;
int twice(int x) {
    int T;
    T = x * 2;
    return T;
}
T succ(T y) {
    T z;
    z = y + 1;
    return z;
}
int main(void) {
    origin.x = twice(3);
    g = succ(origin.x);
    printf("%d\n", g);
    return 0;
}
"""


def _programs():
    for w in all_workloads():
        yield pytest.param(w.source, w.name, w.defines, id=w.name)
    for path in CORPUS:
        yield pytest.param(path.read_text(), path.stem, None, id=path.name)
    for seed in FUZZ_SEEDS:
        program = generate_program(seed)
        yield pytest.param(program.source, program.name, None, id=program.name)


def shape(node) -> tuple:
    """A node's type, attributes and children, recursively; no coords."""
    return (
        type(node).__name__,
        tuple(getattr(node, attr) for attr in node.attr_names),
        tuple((slot, shape(child)) for slot, child in node.children()),
    )


def lowered(ast, name: str) -> str:
    return format_module(ModuleLowerer(name).lower(ast))


def whole_file_error(source: str, name: str) -> str:
    """The message a whole-file parse and lowering raises for ``source``."""
    with pytest.raises(FrontendError) as caught:
        ModuleLowerer(name).lower(_parse_whole(preprocess(source), name))
    return str(caught.value)


@pytest.fixture
def parse_calls(monkeypatch):
    """Counts the declarations actually handed to pycparser."""
    calls: list[str] = []
    original = decls_module._parse_one

    def counting(parser, decl, name):
        calls.append(decl)
        return original(parser, decl, name)

    monkeypatch.setattr(decls_module, "_parse_one", counting)
    return calls


# ---------------------------------------------------------------------------
# equivalence with the whole-file parse
# ---------------------------------------------------------------------------

def memo_ast(memo: DeclMemo, text: str, name: str) -> c_ast.FileAST:
    """The AST the memo's newest compile of ``name`` parsed from ``text``,
    function bodies included."""
    parsed = memo._by_name[name][0].parsed
    ext = []
    for decl, _ in split_declarations(text):
        entry = parsed[decl]
        ext += entry.nodes if entry.signature is None else [entry.funcdef()]
    return c_ast.FileAST(ext)


@pytest.mark.parametrize("source,name,defines", _programs())
def test_per_declaration_parse_equals_whole_file(source, name, defines, parse_calls):
    text = preprocess(source, defines)
    whole = _parse_whole(text, name)
    # a store-less compile lowers the whole-file AST
    reference = format_module(compile_c(source, name, defines))
    memo = DeclMemo()

    fresh = memo.lower(text, name)
    assert fresh is not None
    assert parse_calls == [decl for decl, _ in split_declarations(text)]
    assert shape(memo_ast(memo, text, name)) == shape(whole)
    assert format_module(fresh) == reference

    del parse_calls[:]
    cached = memo.lower(text, name)
    assert parse_calls == []
    assert shape(memo_ast(memo, text, name)) == shape(whole)
    assert format_module(cached) == reference
    assert format_module(compile_c(source, name, defines, decls=memo)) == reference


def test_a_store_less_compile_never_splits(monkeypatch):
    def spy(text):
        raise AssertionError("a store-less compile split its text")

    monkeypatch.setattr(decls_module, "split_declarations", spy)
    for workload in all_workloads():
        compile_c(workload.source, workload.name, workload.defines)


@pytest.mark.parametrize(
    "source,name",
    [
        pytest.param(TYPEDEFS, "typedefs", id="typedefs"),
        pytest.param(SHADOWED_TYPEDEF, "shadow", id="shadowed-typedef"),
    ],
)
def test_typedef_programs_take_the_whole_file_parse(source, name, parse_calls):
    text = preprocess(source)
    reference = lowered(_parse_whole(text, name), name)
    memo = DeclMemo()
    assert memo.lower(text, name) is None
    assert format_module(compile_c(source, name, decls=memo)) == reference
    assert parse_calls == []
    assert memo._by_name == {}


def test_workloads_split_into_191_declarations():
    counts = [
        len(split_declarations(preprocess(w.source, w.defines)))
        for w in all_workloads()
    ]
    assert sum(counts) == 191


class TestSplit:
    def test_function_ends_at_its_closing_brace(self):
        text = "int f(void) { if (1) { return 2; } return 3; }\nint g;\n"
        assert split_declarations(text) == [
            ("int f(void) { if (1) { return 2; } return 3; }", 12),
            ("int g;", None),
        ]

    def test_struct_and_initializer_braces_end_at_semicolon(self):
        text = "struct S { int a; int b; };\nint v[2] = { 1, 2 };\n"
        assert split_declarations(text) == [
            ("struct S { int a; int b; };", None),
            ("int v[2] = { 1, 2 };", None),
        ]

    def test_literals_hide_brackets(self):
        text = "char *s = \"};(\";\nchar c = '{';\nint main(void) { return ')'; }\n"
        assert split_declarations(text) == [
            ("char *s = \"};(\";", None),
            ("char c = '{';", None),
            ("int main(void) { return ')'; }", 15),
        ]

    def test_body_offset_is_within_the_stripped_text(self):
        # the body is the last depth-0 ``{``: a struct type in the
        # return type opens one before it
        text = "\n\n  struct P { int x; } *mk(void)\n{ return 0; }\nint g;\n"
        [(decl, body), _] = split_declarations(text)
        assert decl.startswith("struct P")
        assert decl[:body] == "struct P { int x; } *mk(void)\n"
        assert decl[body:] == "{ return 0; }"

    @pytest.mark.parametrize(
        "text", ["int f(void) { return 1;\n", "int f(void) } {\n", "int x = 1\n"]
    )
    def test_text_the_scan_does_not_consume(self, text):
        assert split_declarations(text) is None


# ---------------------------------------------------------------------------
# the error path: messages as a whole-file compile writes them
# ---------------------------------------------------------------------------

THREE_FUNCTIONS = (
    "int a(void) { return 1; }\n"
    "int b(void) { return 2; }\n"
    "int c(void) { return 3; }\n"
    "int main(void) { return a() + b() + c(); }\n"
)


def _memo_error(versions: list[str], name: str) -> str:
    """Compile every version but the last through one memo; return the
    message the last one raises."""
    memo = DeclMemo()
    for source in versions[:-1]:
        compile_c(source, name, decls=memo)
    with pytest.raises(FrontendError) as caught:
        compile_c(versions[-1], name, decls=memo)
    return str(caught.value)


class TestErrorsMatchWholeFile:
    def test_parse_error_in_third_function(self):
        broken = THREE_FUNCTIONS.replace("return 3;", "return (3;")
        message = _memo_error([THREE_FUNCTIONS, broken], "three")
        assert message == whole_file_error(broken, "three")
        assert message == "parse error: three:3:24: before: ;"

    def test_undeclared_identifier_in_memoized_function(self, parse_calls):
        bump = (
            "int bump(void) {\n"
            "    int n;\n"
            "    n = counter + 1;\n"
            "    return n;\n"
            "}\n"
        )
        before = "int counter;\n" + bump + "int main(void) { return bump(); }\n"
        # the global goes, and two lines above ``bump`` shift it down
        after = (
            "int spare;\n\n\n" + bump + "int main(void) { return bump(); }\n"
        )
        message = _memo_error([before, after], "shift")
        # ``bump`` and ``main`` come from the memo
        assert parse_calls[3:] == ["int spare;"]
        assert message == whole_file_error(after, "shift")
        assert message == "shift:6:9: undeclared identifier 'counter'"

    def test_kr_definition_the_scan_mis_splits(self):
        kr = (
            "int add(a, b) int a; int b; { return a + b; }\n"
            "int main(void) { return add(1, 2); }\n"
        )
        assert split_declarations(preprocess(kr))[0] == ("int add(a, b) int a;", None)
        message = _memo_error([THREE_FUNCTIONS, kr], "kr")
        assert message == whole_file_error(kr, "kr")
        assert message == "kr:1:9: K&R-style parameter lists are not supported"

    @pytest.mark.parametrize(
        "source,message",
        [
            ("int a[1e400];\nint main(void) { return 0; }\n",
             "errs:1:7: array size is not an integer constant"),
            ("int a[2 - 3];\nint main(void) { return 0; }\n",
             "errs:1:7: array size is negative"),
            ("enum { A = 1.5 };\nint main(void) { return A; }\n",
             "errs:1:12: enumerator value is not an integer constant"),
            ("int main(void) {\n    int x = 1;\n"
             "    switch (x) { case 1e400: return 1; }\n    return 0;\n}\n",
             "errs:3:23: case label is not an integer constant"),
            ("int main(void) {\n    long x = 3;\n    double y = 1e400;\n"
             "    return x << y;\n}\n",
             "errs:4:12: invalid operands to binary <<"),
            ("int a[3];\nint main(void) {\n    double d = 1.0;\n"
             "    return a[d];\n}\n",
             "errs:4:12: array subscript is not an integer"),
            ("int f(void) { return 1; }\nint main(void) {\n"
             "    return sizeof(f);\n}\n",
             "errs:3:12: sizeof applied to a function"),
            ("int main(void) {\n    return 'ab';\n}\n",
             "errs:2:12: multi-character constant 'ab'"),
            ("int a[3] = 5;\nint main(void) { return a[0]; }\n",
             "errs:1:12: scalar initializer for aggregate"),
        ],
        ids=["array-size", "negative-size", "enumerator", "case-label",
             "float-shift", "float-subscript", "sizeof-function",
             "multi-character", "scalar-array-init"],
    )
    def test_typed_error_through_a_store(self, source, message):
        assert _memo_error([THREE_FUNCTIONS, source], "errs") == message
        assert whole_file_error(source, "errs") == message

    def test_typedef_of_a_declared_identifier(self):
        # the whole-file parse rejects ``typedef int x;`` after ``int x;``
        source = "int x;\ntypedef int x;\nint main(void) { return 0; }\n"
        memo = DeclMemo()
        assert memo.lower(preprocess(source), "clash") is None
        with pytest.raises(FrontendError) as caught:
            compile_c(source, "clash", decls=memo)
        assert str(caught.value) == (
            "parse error: clash:2:13: Typedef 'x' previously declared "
            "as non-typedef in this scope"
        )


# ---------------------------------------------------------------------------
# the memo's lifecycle
# ---------------------------------------------------------------------------

class TestMemo:
    def test_an_edit_reparses_the_edited_function(self, parse_calls):
        workload = next(w for w in all_workloads() if w.name == "tsp")
        store = FunctionStore(root=None)
        compile_source(workload.source, PipelineOptions(), workload.name,
                       workload.defines, fn_store=store)
        edited, function = mutate_function(workload.source)
        del parse_calls[:]
        compile_source(edited, PipelineOptions(), workload.name,
                       workload.defines, fn_store=store)
        assert len(parse_calls) == 1
        assert parse_calls[0].split("(")[0].split()[-1] == function

    def test_memo_holds_the_last_two_versions(self):
        memo = DeclMemo()
        versions = []
        source = THREE_FUNCTIONS
        for value in (4, 5, 6):
            source = source.replace(f"return {value - 1};", f"return {value};")
            versions.append(source)
            compile_c(source, "versions", decls=memo)
        newest, older = memo._by_name["versions"]
        for kept, version in ((newest, versions[2]), (older, versions[1])):
            texts = [decl for decl, _ in split_declarations(preprocess(version))]
            assert sorted(kept.parsed) == sorted(texts)
        held = [*newest.parsed, *older.parsed]
        assert not any("return 4;" in text or "return 3;" in text for text in held)
        # one lowered body per function definition
        assert len(newest.lowered) == len(older.lowered) == 4

    def test_a_reverted_declaration_is_not_parsed_again(self, parse_calls):
        memo = DeclMemo()
        edit_a = THREE_FUNCTIONS.replace("return 1;", "return 10;")
        edit_b = THREE_FUNCTIONS.replace("return 2;", "return 20;")
        for source in (THREE_FUNCTIONS, edit_a):
            compile_c(source, "revert", decls=memo)
        del parse_calls[:]
        # ``a`` reverts to the text of the compile before last
        compile_c(edit_b, "revert", decls=memo)
        assert parse_calls == ["int b(void) { return 20; }"]

    def test_names_are_evicted_first_in_first_out(self):
        memo = DeclMemo()
        for index in range(DECL_MEMO_NAMES):
            compile_c(THREE_FUNCTIONS, f"m{index}", decls=memo)
        # recompiling the oldest name does not make it the newest
        compile_c(THREE_FUNCTIONS, "m0", decls=memo)
        compile_c(THREE_FUNCTIONS, "late", decls=memo)
        names = list(memo._by_name)
        assert len(names) == DECL_MEMO_NAMES
        assert names[0] == "m1" and names[-1] == "late"
        assert "m0" not in memo._by_name

    def test_function_store_carries_the_memo(self):
        store = FunctionStore(root=None)
        compile_source(THREE_FUNCTIONS, name="three", fn_store=store)
        assert list(store.decls._by_name) == ["three"]
        # the memo never goes through get/put
        assert len(store) == 4

    def test_pickled_store_arrives_with_an_empty_memo(self):
        store = FunctionStore(root=None)
        compile_source(THREE_FUNCTIONS, name="three", fn_store=store)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.decls._by_name == {}
        assert list(store.decls._by_name) == ["three"]

    def test_clear_empties_the_memo(self, tmp_path):
        store = FunctionStore(root=tmp_path)
        compile_source(THREE_FUNCTIONS, name="three", fn_store=store)
        store.clear()
        assert store.decls._by_name == {}
