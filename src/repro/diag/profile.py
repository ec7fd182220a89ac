"""Per-loop dynamic profiling.

The interpreter (with ``MachineOptions(profile=True)``) counts how many
times each basic block executes.  Because a block in our IL always runs
all of its instructions when entered (the terminator is last, and ``nop``
is the only non-counted instruction), the exact dynamic cost of a block is
``visits x static instruction mix`` — so profiling costs one dictionary
increment per *block* executed, never per instruction, and the profile-off
path allocates nothing.  Both execution engines count visits at block
entry with identical semantics, so a profile taken under the compiled
tier matches one taken under the reference loop exactly.

This module folds those block counts up through the loop forest of the
optimized module: each loop row aggregates every block in the loop body
(nested loops included), giving the paper-style answer to "which loops
carry the memory traffic, and how much did promotion remove?".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.loops import find_loops
from ..interp.counters import static_mix
from ..ir.module import Module

__all__ = [
    "BlockMix",
    "LoopProfileRow",
    "block_mix",
    "format_profile",
    "format_profile_comparison",
    "profile_loops",
]


@dataclass(frozen=True)
class BlockMix:
    """Static per-execution cost of one basic block."""

    ops: int = 0
    loads: int = 0
    stores: int = 0


def block_mix(block) -> BlockMix:
    """Count what one pass over the block's instructions executes."""
    mix = static_mix(block.instrs)
    return BlockMix(
        ops=mix.get("total_ops", 0),
        loads=mix.get("loads", 0),
        stores=mix.get("stores", 0),
    )


@dataclass
class LoopProfileRow:
    """Dynamic totals for one loop (nested loops included)."""

    function: str
    header: str
    depth: int
    visits: int  #: executions of the loop header block
    ops: int
    loads: int
    stores: int

    @property
    def key(self) -> tuple[str, str]:
        return (self.function, self.header)

    def as_dict(self) -> dict:
        return {
            "function": self.function,
            "header": self.header,
            "depth": self.depth,
            "visits": self.visits,
            "ops": self.ops,
            "loads": self.loads,
            "stores": self.stores,
        }


def profile_loops(
    module: Module, visits: dict[tuple[str, str], int]
) -> list[LoopProfileRow]:
    """Fold per-block execution counts into per-loop dynamic totals.

    ``visits`` maps ``(function, block label)`` to execution count — the
    :attr:`repro.interp.RunResult.block_visits` of a profiled run.  Loops
    are discovered on the module as executed (post-optimization), so the
    rows line up with the counters the run reported.
    """
    rows: list[LoopProfileRow] = []
    for func in module.functions.values():
        forest = find_loops(func)
        if not forest.loops:
            continue
        mixes = {label: block_mix(block) for label, block in func.blocks.items()}
        for loop in forest.loops:
            ops = loads = stores = 0
            for label in loop.blocks:
                count = visits.get((func.name, label), 0)
                if not count:
                    continue
                mix = mixes[label]
                ops += count * mix.ops
                loads += count * mix.loads
                stores += count * mix.stores
            rows.append(
                LoopProfileRow(
                    function=func.name,
                    header=loop.header,
                    depth=loop.depth,
                    visits=visits.get((func.name, loop.header), 0),
                    ops=ops,
                    loads=loads,
                    stores=stores,
                )
            )
    rows.sort(key=lambda r: (-r.ops, r.function, r.header))
    return rows


def format_profile(rows: list[LoopProfileRow], limit: int | None = 10) -> str:
    """The ``repro run --profile`` hot-loop table."""
    if not rows:
        return "(no loops executed)"
    shown = rows if limit is None else rows[:limit]
    header = (
        f"{'loop':<24} {'depth':>5} {'visits':>10} {'ops':>12} "
        f"{'loads':>10} {'stores':>10}"
    )
    lines = [header, "-" * len(header)]
    for row in shown:
        name = f"{row.function}@{row.header}"
        lines.append(
            f"{name:<24} {row.depth:>5} {row.visits:>10} {row.ops:>12} "
            f"{row.loads:>10} {row.stores:>10}"
        )
    if limit is not None and len(rows) > limit:
        lines.append(f"... {len(rows) - limit} cooler loop(s) not shown")
    return "\n".join(lines)


def format_profile_comparison(
    before: list[LoopProfileRow],
    after: list[LoopProfileRow],
    before_name: str = "without",
    after_name: str = "with",
    limit: int | None = 10,
) -> str:
    """Per-loop before/after table (``repro compare --profile``).

    Loops are matched by ``function@header``; a loop present in only one
    variant (cleaning can erase an empty loop wholesale) shows ``-`` on
    the other side.
    """
    by_key_after = {row.key: row for row in after}
    keys = [row.key for row in before]
    keys += [row.key for row in after if row.key not in set(keys)]
    if not keys:
        return "(no loops executed)"
    header = (
        f"{'loop':<24} {'loads ' + before_name:>14} {'loads ' + after_name:>12} "
        f"{'stores ' + before_name:>15} {'stores ' + after_name:>13} "
        f"{'mem removed':>12}"
    )
    lines = [header, "-" * len(header)]
    by_key_before = {row.key: row for row in before}
    shown = keys if limit is None else keys[:limit]
    for key in shown:
        b = by_key_before.get(key)
        a = by_key_after.get(key)
        name = f"{key[0]}@{key[1]}"
        removed = (
            (b.loads + b.stores) - (a.loads + a.stores)
            if b is not None and a is not None
            else None
        )
        lines.append(
            f"{name:<24} "
            f"{b.loads if b else '-':>14} {a.loads if a else '-':>12} "
            f"{b.stores if b else '-':>15} {a.stores if a else '-':>13} "
            f"{removed if removed is not None else '-':>12}"
        )
    if limit is not None and len(keys) > limit:
        lines.append(f"... {len(keys) - limit} cooler loop(s) not shown")
    return "\n".join(lines)
