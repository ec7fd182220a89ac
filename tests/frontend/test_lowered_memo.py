"""The memo of lowered function bodies (``DeclMemo.lower``).

A module lowered through the memo must equal a memo-less compile's in
everything lowering produces, not only in printed IR: call-site ids,
heap tags, string tags, the address-taken set and the call-site counter
do not all print.  A hit must also share nothing mutable with the memo,
because analysis and optimization rewrite the module in place.
"""

from __future__ import annotations

import pytest

from repro.errors import FrontendError
from repro.frontend import DeclMemo, ModuleLowerer, compile_c
from repro.inccomp import list_functions, mutate_function
from repro.ir.instructions import Call
from repro.ir.printer import format_module
from repro.pipeline import PipelineOptions, compile_module
from repro.workloads import all_workloads

WORKLOADS = list(all_workloads())


def lowered_state(module) -> tuple:
    """Everything the front end writes, in a comparable form."""
    return (
        format_module(module),
        [
            [instr.site_id for instr in func.instructions() if isinstance(instr, Call)]
            for func in module.functions.values()
        ],
        [(f.name, f.local_tags, sorted(f.local_tag_sizes.items()),
          f._next_vreg, f._next_label) for f in module.functions.values()],
        [(text, lit.tag) for text, lit in module.strings.items()],
        list(module.heap_tags.items()),
        sorted(tag.name for tag in module.address_taken),
        module.call_sites,
    )


@pytest.fixture
def lowerings(monkeypatch):
    """Counts the function bodies lowered afresh (memo misses)."""
    names: list[str] = []
    original = ModuleLowerer.lower_recorded

    def counting(self, funcdef):
        names.append(funcdef.decl.name)
        return original(self, funcdef)

    monkeypatch.setattr(ModuleLowerer, "lower_recorded", counting)
    return names


def _edits(order: str):
    """Every one-function edit of every workload, as ``(workload,
    edited function, source)``: each on the pristine source ("revert"),
    or each on top of the workload's previous edits ("cumulative")."""
    for workload in WORKLOADS:
        source = workload.source
        for function in list_functions(workload.source):
            base = workload.source if order == "revert" else source
            source, _ = mutate_function(base, function)
            yield workload, function, source


@pytest.mark.parametrize("order", ["revert", "cumulative"])
def test_one_function_edits_lower_as_a_fresh_compile(order, lowerings):
    memo = DeclMemo()
    for workload in WORKLOADS:
        compile_c(workload.source, workload.name, workload.defines, decls=memo)
    edits = 0
    for workload, function, source in _edits(order):
        del lowerings[:]
        module = compile_c(source, workload.name, workload.defines, decls=memo)
        fresh = compile_c(source, workload.name, workload.defines)
        assert lowered_state(module) == lowered_state(fresh), (workload.name, function)
        # the edit adds no string, call or symbol: only its function misses
        assert lowerings == [function]
        edits += 1
    assert edits == 66


HAZARDS = r"""
struct box { int a; int b; };
int g;
int h;
int helper(int x) { return x + 1; }
int first(int n) {
    int k;
    k = n * 2;
    return k;
}
int second(int n) {
    int *p;
    p = (int *) malloc(4 * sizeof(int));
    p[0] = helper(n);
    printf("second %d\n", p[0]);
    return p[0];
}
int third(void) {
    struct box q;
    int *r;
    r = &h;
    q.b = *r + abs(-3);
    printf("third %d\n", q.b);
    return q.b;
}
int main(void) {
    printf("%d\n", first(1) + second(2) + third());
    return 0;
}
"""

#: statements spliced into ``first``; each changes what a later body's
#: lowering reads, or what replaying it must write
HAZARD_EDITS = {
    "string-literal": '    printf("first\\n");\n',
    "call": "    k = helper(k);\n",
    "malloc": "    free(malloc(8));\n",
    "address-of-global": "    int *pg;\n    pg = &g;\n    *pg = k;\n",
    "local-prototype": "    int abs(int);\n",
    "struct-in-body": "    struct box { int pad; int a; int b; };\n",
}


@pytest.mark.parametrize("edit", list(HAZARD_EDITS))
def test_hazard_edit_in_an_earlier_function(edit, lowerings):
    edited = HAZARDS.replace("    int k;\n", "    int k;\n" + HAZARD_EDITS[edit], 1)
    memo = DeclMemo()
    compile_c(HAZARDS, "hazards", decls=memo)
    # edit, revert, edit again: the last two draw on the memo alone
    for source in (edited, HAZARDS, edited):
        module = compile_c(source, "hazards", decls=memo)
        assert lowered_state(module) == lowered_state(compile_c(source, "hazards"))
    assert lowerings.count("first") == 2
    if edit == "address-of-global":
        # later bodies read nothing the edit wrote
        assert lowerings == ["helper", "first", "second", "third", "main", "first"]


def test_a_hit_shares_nothing_mutable_with_the_memo():
    workload = next(w for w in WORKLOADS if w.name == "tsp")
    memo = DeclMemo()
    first = compile_c(workload.source, workload.name, workload.defines, decls=memo)
    reference = lowered_state(first)
    second = compile_c(workload.source, workload.name, workload.defines, decls=memo)
    for name, func in first.functions.items():
        other = second.functions[name]
        assert func is not other
        assert func.local_tags is not other.local_tags
        assert func.local_tag_sizes is not other.local_tag_sizes
        for label, block in func.blocks.items():
            assert block is not other.blocks[label]
            assert not {id(i) for i in block.instrs} & {id(i) for i in other.blocks[label].instrs}
    # analysis and optimization rewrite the module in place
    compile_module(first, PipelineOptions())
    for func in second.functions.values():
        func.local_tags.clear()
        func.entry_block().instrs.reverse()
    second.strings.clear()
    third = compile_c(workload.source, workload.name, workload.defines, decls=memo)
    assert lowered_state(third) == reference


def test_a_compile_that_fails_commits_nothing():
    memo = DeclMemo()
    compile_c(HAZARDS, "hazards", decls=memo)
    kept = memo._by_name["hazards"]
    broken = HAZARDS.replace("k = n * 2;", "k = missing * 2;")
    with pytest.raises(FrontendError):
        compile_c(broken, "hazards", decls=memo)
    assert memo._by_name["hazards"] is kept



def test_a_signature_edit_relowers_its_callers(lowerings):
    edited = HAZARDS.replace("int helper(int x)", "double helper(double x)")
    memo = DeclMemo()
    compile_c(HAZARDS, "hazards", decls=memo)
    del lowerings[:]
    module = compile_c(edited, "hazards", decls=memo)
    assert lowered_state(module) == lowered_state(compile_c(edited, "hazards"))
    # the pass-1 environment changed: every body misses
    assert lowerings == ["helper", "first", "second", "third", "main"]
