"""Interprocedural MOD/REF analysis (paper, section 4).

The analyzer improves the front end's conservative tag sets in two steps:

1. *Limit pointer-based memory operations.*  A pointer can only hold the
   address of a location whose address was taken, so the universal tag set
   on a ``load``/``store`` shrinks to the address-taken tags — and the tag
   of a local variable is only placed in operations appearing in
   *descendants* (in the call graph) of the function that creates it.

2. *Limit procedure calls.*  Each call receives the MOD and REF tag sets
   of its callee: the union of tags the callee (and everything it can
   transitively call) may store to or load from.  Function summaries are
   computed per call-graph SCC in reverse topological order, so callees
   are always summarized before their callers; all members of an SCC share
   one summary.

Indirect calls are conservatively assumed to target any addressed
function.  Calls to intrinsics keep the policy summaries the front end
seeded, with universal sets materialized to the visible address-taken
universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diag.ledger import Decision, trim_tag_names
from ..intrinsics import is_intrinsic
from ..ir.instructions import Call, CLoad, MemLoad, MemStore, ScalarLoad, ScalarStore
from ..ir.module import Module
from ..ir.tags import Tag, TagSet
from .callgraph import CallGraph, SCCInfo, build_call_graph, condense_sccs


@dataclass
class ModRefSummary:
    """Per-function MOD/REF facts."""

    mod: frozenset[Tag] = frozenset()
    ref: frozenset[Tag] = frozenset()


@dataclass
class ModRefResult:
    """Everything the MOD/REF analyzer learned."""

    summaries: dict[str, ModRefSummary] = field(default_factory=dict)
    #: address-taken tags visible to each function (the universe used when
    #: materializing a universal tag set inside that function)
    visible: dict[str, frozenset[Tag]] = field(default_factory=dict)
    sccs: SCCInfo | None = None
    #: one ``summarized`` row per function: the MOD/REF provenance every
    #: caller's ``ambiguous-via-call`` promotion decision traces back to
    decisions: list[Decision] = field(default_factory=list)


def run_modref(module: Module) -> ModRefResult:
    """Run the analysis, rewriting every pointer-based operation's tag
    set and every call's MOD/REF summary in place."""
    graph = build_call_graph(module)
    sccs = condense_sccs(graph)
    visible = _visible_universe(module, graph)
    _limit_pointer_operations(module, visible)
    summaries = _function_summaries(module, graph, sccs, visible)
    _limit_calls(module, graph, summaries, visible)

    decisions = [
        Decision(
            "modref", name, "summarized",
            detail={
                "mod": trim_tag_names(summaries[name].mod),
                "ref": trim_tag_names(summaries[name].ref),
                "recursive": sccs.is_recursive(name),
            },
        )
        for name in sorted(summaries)
    ]
    return ModRefResult(
        summaries=summaries,
        visible=visible,
        sccs=sccs,
        decisions=decisions,
    )


# ---------------------------------------------------------------------------
# the address-taken universe, per function
# ---------------------------------------------------------------------------

def _visible_universe(
    module: Module, graph: CallGraph
) -> dict[str, frozenset[Tag]]:
    """Tags a pointer inside each function could possibly address.

    Globals (address-taken ones), heap tags, and the address-taken locals
    of every call-graph *ancestor* of the function (including itself): a
    local's address can only flow downward through calls made while its
    frame is live.
    """
    shared: set[Tag] = set()
    for var in module.globals.values():
        if var.tag in module.address_taken:
            shared.add(var.tag)
    shared.update(module.heap_tags.values())

    # descendants[f]: every function reachable from f (including f)
    descendants: dict[str, set[str]] = {}
    for name in graph.functions():
        seen = {name}
        stack = [name]
        while stack:
            node = stack.pop()
            for callee in graph.callees.get(node, ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        descendants[name] = seen

    visible: dict[str, set[Tag]] = {
        name: set(shared) for name in graph.functions()
    }
    for creator, reachable in descendants.items():
        func = module.functions[creator]
        local_addr_taken = [
            t for t in func.local_tags if t in module.address_taken
        ]
        for name in reachable:
            visible[name].update(local_addr_taken)

    return {name: frozenset(tags) for name, tags in visible.items()}


# ---------------------------------------------------------------------------
# step 1: pointer-based operations
# ---------------------------------------------------------------------------

def _limit_pointer_operations(
    module: Module, visible: dict[str, frozenset[Tag]]
) -> None:
    for func in module.functions.values():
        universe = TagSet.from_iterable(visible[func.name])
        for block in func.blocks.values():
            for instr in block.instrs:
                if isinstance(instr, (MemLoad, MemStore)) and instr.tags.universal:
                    # a finite set from the front end (a named array, a
                    # struct) is already at least this precise; only the
                    # universal sets need materializing
                    instr.tags = universe


# ---------------------------------------------------------------------------
# step 2: function summaries over SCCs
# ---------------------------------------------------------------------------

def _local_effects(
    module: Module, name: str, visible: frozenset[Tag]
) -> tuple[set[Tag], set[Tag]]:
    """MOD/REF facts from the function's own memory operations and its
    calls to intrinsics (externals)."""
    func = module.functions[name]
    mod: set[Tag] = set()
    ref: set[Tag] = set()
    for instr in func.instructions():
        if isinstance(instr, MemLoad):
            ref.update(instr.tags.materialize(visible))
        elif isinstance(instr, MemStore):
            mod.update(instr.tags.materialize(visible))
        elif isinstance(instr, (ScalarLoad, CLoad)):
            ref.add(instr.tag)
        elif isinstance(instr, ScalarStore):
            mod.add(instr.tag)
        elif isinstance(instr, Call):
            callee = instr.callee
            if callee is not None and callee in module.functions:
                continue  # summarized via the SCC pass
            # intrinsic or unknown external: use the seeded policy sets
            mod.update(instr.mod.materialize(visible))
            ref.update(instr.ref.materialize(visible))
    return mod, ref


def _function_summaries(
    module: Module,
    graph: CallGraph,
    sccs: SCCInfo,
    visible: dict[str, frozenset[Tag]],
) -> dict[str, ModRefSummary]:
    summaries: dict[str, ModRefSummary] = {}
    for component in sccs.components:  # reverse topological: callees first
        mod: set[Tag] = set()
        ref: set[Tag] = set()
        for name in component:
            own_mod, own_ref = _local_effects(module, name, visible[name])
            mod |= own_mod
            ref |= own_ref
            for callee in graph.callees.get(name, ()):
                summary = summaries.get(callee)
                if summary is not None:  # absent only within this SCC
                    mod |= summary.mod
                    ref |= summary.ref
        summary = ModRefSummary(mod=frozenset(mod), ref=frozenset(ref))
        for name in component:
            summaries[name] = summary
    return summaries


# ---------------------------------------------------------------------------
# step 3: rewrite call sites
# ---------------------------------------------------------------------------

def _limit_calls(
    module: Module,
    graph: CallGraph,
    summaries: dict[str, ModRefSummary],
    visible: dict[str, frozenset[Tag]],
) -> None:
    for func in module.functions.values():
        universe = visible[func.name]
        for block in func.blocks.values():
            for instr in block.instrs:
                if not isinstance(instr, Call):
                    continue
                if instr.is_indirect():
                    # no function's address is ever taken, so an
                    # indirect call has no target
                    instr.mod = TagSet.empty()
                    instr.ref = TagSet.empty()
                    continue
                callee = instr.callee
                assert callee is not None
                if callee in module.functions:
                    summary = summaries[callee]
                    instr.mod = TagSet.from_iterable(summary.mod)
                    instr.ref = TagSet.from_iterable(summary.ref)
                elif is_intrinsic(callee):
                    instr.mod = instr.mod.materialize(universe)
                    instr.ref = instr.ref.materialize(universe)
                else:
                    instr.mod = instr.mod.materialize(universe)
                    instr.ref = instr.ref.materialize(universe)
