"""Register promotion (the paper's section 3.1 — the core contribution).

The algorithm, exactly as published:

1. *Interprocedural analysis* has already run (MOD/REF or points-to) and
   shrunk the tag sets of memory operations and calls.
2. *Gather initial information.*  For each block ``b``:
   ``B_EXPLICIT(b)`` — tags referenced by an explicit memory operation
   (``sload``/``sstore``/``cload``); ``B_AMBIGUOUS(b)`` — tags referenced
   ambiguously, through procedure calls (their MOD∪REF summaries) or
   pointer-based memory operations.
3. *Find loop structure* via dominators (Lengauer–Tarjan).
4. *Analyze loop nests* with the Figure 1 equations::

       L_EXPLICIT(l)   = ∪ B_EXPLICIT(b),  b ∈ l
       L_AMBIGUOUS(l)  = ∪ B_AMBIGUOUS(b), b ∈ l
       L_PROMOTABLE(l) = L_EXPLICIT(l) - L_AMBIGUOUS(l)
       L_LIFT(l)       = L_PROMOTABLE(l)                    l outermost
                       = L_PROMOTABLE(l) - L_PROMOTABLE(parent(l))  else

5. *Rewrite the code.*  Each promoted tag gets a virtual register ``v``;
   every reference to the tag inside a loop where it is promotable
   becomes a copy involving ``v`` (loads become ``dst = mov v``, stores
   become ``v = mov src`` — copies the register allocator later
   coalesces).
6. *Promote the tag.*  For each loop ``l`` and tag in ``L_LIFT(l)``, a
   scalar load of the tag into ``v`` is placed in ``l``'s landing pad and
   a scalar store of ``v`` back to the tag in each of ``l``'s dedicated
   exit blocks.

Only scalar tags participate: the promoted variables are exactly the
scalars the front end left in memory because it could not prove
enregistering safe.  As a refinement over the paper's presentation (see
DESIGN.md), the demotion store is emitted only when the loop may actually
store the tag; a read-only promoted tag needs no store-back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.loops import Loop, LoopForest, normalize_loops
from ..diag.ledger import Decision, trim_tag_names
from ..ir.function import Function
from ..ir.instructions import (
    Call,
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
from ..ir.tags import Tag


@dataclass
class LoopPromotion:
    """What happened to one loop."""

    header: str
    promotable: frozenset[Tag]
    lifted: frozenset[Tag]


@dataclass
class PromotionReport:
    """Per-function promotion outcome (used by tests and the Figure 2
    reproduction)."""

    function: str
    loops: list[LoopPromotion] = field(default_factory=list)
    promoted_tags: set[Tag] = field(default_factory=set)
    references_rewritten: int = 0
    loads_inserted: int = 0
    stores_inserted: int = 0
    #: one row per (loop, tag) pair: ``promoted``, or ``blocked`` with
    #: the reason
    decisions: list[Decision] = field(default_factory=list)

    def lifted_in(self, header: str) -> frozenset[Tag]:
        for loop in self.loops:
            if loop.header == header:
                return loop.lifted
        return frozenset()


@dataclass
class PromotionOptions:
    #: demote (store back) only when the loop may store the tag
    store_only_if_stored: bool = True
    #: upper bound on tags promoted per loop (None = unlimited); a crude
    #: register-pressure throttle in the spirit of Carr's bin packing
    max_promoted_per_loop: int | None = None
    #: register budget for the pressure-aware throttle (None = off); when
    #: set, each loop only promotes while its estimated MAXLIVE plus the
    #: promoted homes fits the budget — the paper's section 3.4 proposal
    #: (see :mod:`repro.opt.pressure`)
    pressure_budget: int | None = None
    #: DELIBERATELY UNSOUND: pretend calls never reference memory when
    #: gathering B_AMBIGUOUS, so tags modified by callees still promote.
    #: Exists only so the fuzzer/reducer can be tested against a known
    #: miscompile (``repro.fuzz``); never enable it for real experiments.
    unsafe_ignore_call_ambiguity: bool = False


def gather_block_info(
    func: Function,
    universe: frozenset[Tag],
    ignore_calls: bool = False,
) -> tuple[dict[str, set[Tag]], dict[str, set[Tag]]]:
    """Compute ``B_EXPLICIT`` and ``B_AMBIGUOUS`` for every block.

    ``universe`` is every tag the module knows about: a universal tag set
    (pre-analysis IR, or a call nothing summarized) references all of
    it.  ``ignore_calls`` is the deliberate miscompile behind
    :attr:`PromotionOptions.unsafe_ignore_call_ambiguity`.
    """
    explicit: dict[str, set[Tag]] = {}
    ambiguous: dict[str, set[Tag]] = {}
    for label, block in func.blocks.items():
        b_exp: set[Tag] = set()
        b_amb: set[Tag] = set()
        for instr in block.instrs:
            if isinstance(instr, (ScalarLoad, ScalarStore, CLoad)):
                b_exp.add(instr.tag)
            elif not (ignore_calls and isinstance(instr, Call)):
                # every other instruction is ambiguous in all it may touch
                b_amb |= instr.reads().materialize(universe).tags
                b_amb |= instr.writes().materialize(universe).tags
        explicit[label] = b_exp
        ambiguous[label] = b_amb
    return explicit, ambiguous


@dataclass
class LoopSets:
    """The Figure 1 sets for one loop."""

    explicit: frozenset[Tag]
    ambiguous: frozenset[Tag]
    promotable: frozenset[Tag]
    lift: frozenset[Tag]


def solve_loop_equations(
    func: Function,
    forest: LoopForest,
    explicit: dict[str, set[Tag]],
    ambiguous: dict[str, set[Tag]],
    options: PromotionOptions | None = None,
) -> dict[str, LoopSets]:
    """Equations (1)-(4) from Figure 1, solved outermost-first so a
    loop's parent is available when computing L_LIFT."""
    options = options or PromotionOptions()
    result: dict[str, LoopSets] = {}
    for loop in forest.loops_outermost_first():
        l_exp: set[Tag] = set()
        l_amb: set[Tag] = set()
        for label in loop.blocks:
            l_exp |= explicit.get(label, set())
            l_amb |= ambiguous.get(label, set())
        promotable = frozenset(
            t for t in (l_exp - l_amb) if t.is_scalar
        )
        if options.max_promoted_per_loop is not None:
            promotable = frozenset(
                sorted(promotable, key=lambda t: t.name)[
                    : options.max_promoted_per_loop
                ]
            )
        if loop.parent is None:
            lift = promotable
        else:
            parent_sets = result[loop.parent.header]
            lift = promotable - parent_sets.promotable
        result[loop.header] = LoopSets(
            explicit=frozenset(l_exp),
            ambiguous=frozenset(l_amb),
            promotable=promotable,
            lift=frozenset(lift),
        )
    return result


def promote_function(
    func: Function,
    forest: LoopForest,
    universe: frozenset[Tag],
    options: PromotionOptions | None = None,
) -> PromotionReport:
    """Run register promotion on one function, in place.

    ``forest`` is ``normalize_loops(func)``.  ``universe`` is the
    module's memory-tag snapshot that universal tag sets are
    materialized against; the pipeline takes it once post-analysis, so
    the answer cannot depend on mid-pipeline mutations of other
    functions (register allocation appends spill tags to
    ``local_tags``).
    """
    options = options or PromotionOptions()
    report = PromotionReport(function=func.name)
    if not forest.loops:
        return report

    explicit, ambiguous = gather_block_info(
        func, universe, ignore_calls=options.unsafe_ignore_call_ambiguity
    )
    sets = solve_loop_equations(func, forest, explicit, ambiguous, options)

    if options.pressure_budget is not None:
        _apply_pressure_plan(func, forest, sets, options)

    report.decisions = _decisions(func, forest, sets, universe)

    for loop in forest.loops:
        report.loops.append(
            LoopPromotion(
                header=loop.header,
                promotable=sets[loop.header].promotable,
                lifted=sets[loop.header].lift,
            )
        )

    all_promoted: set[Tag] = set()
    for loop_sets in sets.values():
        all_promoted |= loop_sets.promotable
    if not all_promoted:
        return report
    report.promoted_tags = set(all_promoted)

    # one virtual register per promoted tag
    home: dict[Tag, VReg] = {
        tag: func.new_vreg(f"p_{tag.name.replace('.', '_')}")
        for tag in sorted(all_promoted, key=lambda t: t.name)
    }

    # which loops may *store* each tag (drives demotion stores)
    stored_in_loop = _stored_tags_per_loop(func, forest)

    # -- step 5: rewrite references to copies ---------------------------------
    promotable_in_block = _promotable_blocks(forest, sets)
    for label, tags_here in promotable_in_block.items():
        block = func.block(label)
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            if isinstance(instr, (ScalarLoad, CLoad)) and instr.tag in tags_here:
                new_instrs.append(Mov(instr.dst, home[instr.tag]))
                report.references_rewritten += 1
            elif isinstance(instr, ScalarStore) and instr.tag in tags_here:
                new_instrs.append(Mov(home[instr.tag], instr.src))
                report.references_rewritten += 1
            else:
                new_instrs.append(instr)
        block.instrs = new_instrs

    # -- step 6: promote/demote around the lifting loop -----------------------
    for loop in forest.loops:
        lift = sets[loop.header].lift
        if not lift:
            continue
        pad = func.block(loop.preheader)
        for tag in sorted(lift, key=lambda t: t.name):
            pad.instrs.insert(
                len(pad.instrs) - 1, ScalarLoad(home[tag], tag)
            )
            report.loads_inserted += 1
        needs_store = [
            tag for tag in sorted(lift, key=lambda t: t.name)
            if not options.store_only_if_stored
            or tag in stored_in_loop[loop.header]
        ]
        if needs_store:
            for exit_label in loop.exit_blocks:
                exit_block = func.block(exit_label)
                for tag in needs_store:
                    exit_block.instrs.insert(0, ScalarStore(home[tag], tag))
                    report.stores_inserted += 1
    return report


def promote_module(
    module: Module, options: PromotionOptions | None = None
) -> dict[str, PromotionReport]:
    universe = frozenset(module.memory_tags())
    return {
        func.name: promote_function(
            func, normalize_loops(func), universe, options
        )
        for func in module.functions.values()
    }


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _apply_pressure_plan(
    func: Function,
    forest: LoopForest,
    sets: dict[str, LoopSets],
    options: PromotionOptions,
) -> None:
    """Filter the PROMOTABLE sets through the section 3.4 pressure
    throttle and recompute LIFT against the filtered parents."""
    from .pressure import plan_promotions

    assert options.pressure_budget is not None
    plan = plan_promotions(
        func,
        forest,
        {header: s.promotable for header, s in sets.items()},
        num_registers=options.pressure_budget,
    )
    for loop in forest.loops_outermost_first():
        s = sets[loop.header]
        filtered = frozenset(
            t for t in s.promotable if plan.allows(loop.header, t)
        )
        if loop.parent is None:
            lift = filtered
        else:
            lift = filtered - sets[loop.parent.header].promotable
        sets[loop.header] = LoopSets(
            explicit=s.explicit,
            ambiguous=s.ambiguous,
            promotable=filtered,
            lift=lift,
        )


def _decisions(
    func: Function,
    forest: LoopForest,
    sets: dict[str, LoopSets],
    universe: frozenset[Tag],
) -> list[Decision]:
    """One decision per (loop, tag) pair.

    A tag that is explicitly referenced in the loop is either ``promoted``
    or ``blocked`` with the precise reason; a tag only touched ambiguously
    has nothing to rewrite and is recorded as ``not-referenced``.  Blocker
    provenance (which call, which pointer operation) is gathered once per
    loop, and only for a loop where something is blocked by ambiguity.
    """
    decisions: list[Decision] = []
    for loop in forest.loops_outermost_first():
        loop_sets = sets[loop.header]
        blockers = None  # computed once per loop, only if something is blocked
        for tag in sorted(
            loop_sets.explicit | loop_sets.ambiguous, key=lambda t: t.name
        ):
            action, reason, detail = "blocked", None, {}
            if tag in loop_sets.promotable:
                action = "promoted"
                detail = {"lifted_here": tag in loop_sets.lift}
            elif tag not in loop_sets.explicit:
                reason = "not-referenced"
            elif not tag.is_scalar:
                reason = "not-scalar"
            elif tag in loop_sets.ambiguous:
                if blockers is None:
                    blockers = _ambiguity_blockers(func, loop, universe)
                calls, pointer_ops = blockers.get(tag, ((), ()))
                reason = "ambiguous-via-call" if calls else "ambiguous-via-pointer"
                detail = {"calls": list(calls), "pointer_ops": list(pointer_ops)}
            else:
                # explicit, scalar, unambiguous, yet not promotable: the
                # pressure throttle dropped it
                reason = "pressure-throttled"
            decisions.append(
                Decision(
                    "promotion", func.name, action,
                    loop=loop.header, tag=tag.name, reason=reason, detail=detail,
                )
            )
    return decisions


def _ambiguity_blockers(
    func: Function, loop: Loop, universe: frozenset[Tag]
) -> dict[Tag, tuple[list[dict], list[dict]]]:
    """Per ambiguous tag, the (calls, pointer ops) inside ``loop`` that
    reference it — the provenance behind an ``ambiguous-via-*`` decision."""
    blockers: dict[Tag, tuple[list[dict], list[dict]]] = {}

    def slot(tag: Tag) -> tuple[list[dict], list[dict]]:
        return blockers.setdefault(tag, ([], []))

    for label in sorted(loop.blocks):
        for instr in func.block(label).instrs:
            if isinstance(instr, Call):
                mod = instr.mod.materialize(universe)
                ref = instr.ref.materialize(universe)
                callee = instr.callee if instr.callee is not None else "<indirect>"
                mod_names = trim_tag_names(mod)
                ref_names = trim_tag_names(ref)
                for tag in set(mod) | set(ref):
                    slot(tag)[0].append(
                        {
                            "callee": callee,
                            "in_mod": tag in mod,
                            "in_ref": tag in ref,
                            "mod": mod_names,
                            "ref": ref_names,
                            "block": label,
                        }
                    )
            elif isinstance(instr, (MemLoad, MemStore)):
                tags = instr.tags.materialize(universe)
                op = "store" if isinstance(instr, MemStore) else "load"
                names = trim_tag_names(tags)
                for tag in tags:
                    slot(tag)[1].append(
                        {
                            "op": op,
                            "universal": bool(instr.tags.universal),
                            "tags": names,
                            "block": label,
                        }
                    )
    return blockers


def _promotable_blocks(
    forest: LoopForest, sets: dict[str, LoopSets]
) -> dict[str, set[Tag]]:
    """For each block, the tags promotable in *some* loop containing it.

    (If a tag is promotable in an outer loop and referenced in an inner
    one, it is necessarily promotable in the inner loop too — an
    ambiguous inner reference would have poisoned the outer loop.)
    """
    result: dict[str, set[Tag]] = {}
    for loop in forest.loops:
        promotable = sets[loop.header].promotable
        if not promotable:
            continue
        for label in loop.blocks:
            result.setdefault(label, set()).update(promotable)
    return result


def _stored_tags_per_loop(
    func: Function, forest: LoopForest
) -> dict[str, set[Tag]]:
    """Tags that may be stored (directly) within each loop's body."""
    result: dict[str, set[Tag]] = {loop.header: set() for loop in forest.loops}
    for loop in forest.loops:
        stored = result[loop.header]
        for label in loop.blocks:
            for instr in func.block(label).instrs:
                if isinstance(instr, ScalarStore):
                    stored.add(instr.tag)
    return result
