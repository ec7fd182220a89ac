"""Pointer-based register promotion (the paper's section 3.3).

Scalar promotion only touches named scalars; this pass promotes memory
accessed *through a pointer* when the paper's conditions hold for a loop
``l`` and base register ``b``:

* ``b`` is loop-invariant in ``l`` (LICM has already moved the address
  computation into the landing pad, which is exactly what the paper
  relies on), and its definition dominates the landing pad;
* every access in ``l`` to the tags reachable from ``b`` is a general
  load/store whose address register *is* ``b`` — no other pointer, no
  explicit scalar operation, and no call may touch those tags.

When the conditions hold, the referenced cell is promoted with the same
rewriting scheme as scalar promotion: a load through ``b`` in the landing
pad, a store through ``b`` at each dedicated exit (when the loop may
store), and copies at each reference.

This is the transformation that turns the Figure 3 loop::

    for (j=0; j<DIM_Y; j++) B[i] += A[i][j];

into the accumulator form ``rb += A[i][j]`` with a single store of ``rb``
after the inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.loops import LoopForest, def_sites, normalize_loops
from ..diag.ledger import Decision, trim_tag_names
from ..ir.function import Function
from ..ir.instructions import (
    CLoad,
    Instr,
    MemLoad,
    MemStore,
    Mov,
    ScalarLoad,
    ScalarStore,
    VReg,
)
from ..ir.module import Module
from ..ir.tags import Tag, TagSet


@dataclass
class PointerPromotionReport:
    function: str
    promoted_bases: int = 0
    references_rewritten: int = 0
    loads_inserted: int = 0
    stores_inserted: int = 0
    #: (loop header, base register) pairs that were promoted
    sites: list[tuple[str, VReg]] = field(default_factory=list)
    #: one row per (loop, base register) group: ``promoted``, or
    #: ``blocked`` with the reason
    decisions: list[Decision] = field(default_factory=list)


def promote_pointers_function(
    func: Function, forest: LoopForest, universe: frozenset[Tag]
) -> PointerPromotionReport:
    """Promote pointer-based references in every loop of ``forest``
    (``normalize_loops(func)``); a universal tag set stands for all of
    ``universe``, the module's memory-tag snapshot."""
    report = PointerPromotionReport(function=func.name)
    if not forest.loops:
        return report

    defs = def_sites(func)
    # outermost-first: promoting in an outer loop rewrites the inner
    # references to copies, so inner loops naturally see nothing left to do
    for loop in forest.loops_outermost_first():
        _promote_in_loop(func, loop, forest.dom, defs, universe, report)
    return report


def promote_pointers_module(module: Module) -> dict[str, PointerPromotionReport]:
    universe = frozenset(module.memory_tags())
    return {
        func.name: promote_pointers_function(func, normalize_loops(func), universe)
        for func in module.functions.values()
    }


# ---------------------------------------------------------------------------

def _promote_in_loop(
    func: Function,
    loop,
    dom,
    defs: dict[int, list[str]],
    universe: frozenset[Tag],
    report: PointerPromotionReport,
) -> None:
    pad_label = loop.preheader

    # gather every pointer access, explicit scalar access and what any
    # other instruction (a call) may touch inside the loop
    mem_ops: list[tuple[str, int, Instr]] = []
    scalar_tags: set[Tag] = set()
    call_tags = TagSet.empty()
    for label in loop.blocks:
        for idx, instr in enumerate(func.block(label).instrs):
            if isinstance(instr, (MemLoad, MemStore)):
                mem_ops.append((label, idx, instr))
            elif isinstance(instr, (ScalarLoad, ScalarStore, CLoad)):
                scalar_tags.add(instr.tag)
            else:
                call_tags = call_tags.union(instr.reads()).union(instr.writes())

    # group accesses by base address register
    groups: dict[int, list[tuple[str, int, Instr]]] = {}
    for site in mem_ops:
        instr = site[2]
        addr = instr.addr  # type: ignore[union-attr]
        groups.setdefault(addr.id, []).append(site)

    def decide(base_reg: VReg, action: str, reason: str | None = None,
               tags: TagSet | None = None) -> None:
        detail = {"base": str(base_reg)}
        if tags is not None and not tags.universal:
            detail["tags"] = ",".join(trim_tag_names(tags))
        report.decisions.append(
            Decision(
                "pointer_promotion", func.name, action,
                loop=loop.header, reason=reason, detail=detail,
            )
        )

    for base_id, sites in sorted(groups.items()):
        base_reg = sites[0][2].addr  # type: ignore[union-attr]
        if not _base_is_invariant(base_id, loop, pad_label, dom, defs):
            decide(base_reg, "blocked", "base-not-invariant")
            continue
        tags = TagSet.empty()
        for _, _, instr in sites:
            tags = tags.union(instr.tags)  # type: ignore[union-attr]
        if tags.universal:
            tags = TagSet.from_iterable(universe)
        if tags.is_empty():
            decide(base_reg, "blocked", "empty-tags")
            continue
        if call_tags.overlaps(tags):
            decide(base_reg, "blocked", "call-clobbers", tags)
            continue
        if any(t in scalar_tags for t in tags):
            decide(base_reg, "blocked", "scalar-overlap", tags)
            continue
        # every other memory op touching these tags must use this base
        if any(
            instr.addr.id != base_id and instr.tags.overlaps(tags)  # type: ignore[union-attr]
            for _, _, instr in mem_ops
        ):
            decide(base_reg, "blocked", "conflicting-base", tags)
            continue

        _rewrite_group(func, loop, pad_label, base_reg, tags, sites, report)
        report.promoted_bases += 1
        report.sites.append((loop.header, base_reg))
        decide(base_reg, "promoted", tags=tags)


def _base_is_invariant(
    base_id: int, loop, pad_label: str, dom, defs: dict[int, list[str]]
) -> bool:
    labels = defs.get(base_id, [])
    if not labels:
        return False
    if any(label in loop.blocks for label in labels):
        return False
    if len(labels) != 1:
        return False  # conservatively require a single reaching definition
    def_label = labels[0]
    if def_label == "<entry>":
        return True
    if def_label == pad_label:
        return True
    return def_label in dom.idom and dom.dominates(def_label, pad_label)


def _rewrite_group(
    func: Function,
    loop,
    pad_label: str,
    base_reg: VReg,
    tags: TagSet,
    sites: list[tuple[str, int, Instr]],
    report: PointerPromotionReport,
) -> None:
    home = func.new_vreg("pp")
    has_store = any(isinstance(instr, MemStore) for _, _, instr in sites)

    replacements: dict[tuple[str, int], Instr] = {}
    for label, idx, instr in sites:
        if isinstance(instr, MemLoad):
            replacements[(label, idx)] = Mov(instr.dst, home)
        else:
            assert isinstance(instr, MemStore)
            replacements[(label, idx)] = Mov(home, instr.src)
        report.references_rewritten += 1
    for (label, idx), new_instr in replacements.items():
        func.block(label).instrs[idx] = new_instr

    pad = func.block(pad_label)
    pad.instrs.insert(len(pad.instrs) - 1, MemLoad(home, base_reg, tags))
    report.loads_inserted += 1

    if has_store:
        for exit_label in loop.exit_blocks:
            func.block(exit_label).instrs.insert(
                0, MemStore(home, base_reg, tags)
            )
            report.stores_inserted += 1
