"""Basic-block cleaning (the paper's "basic block cleaning pass").

Classic CFG hygiene, iterated to a fixpoint:

* fold conditional branches whose two targets are equal into jumps;
* remove *empty* blocks (a lone ``jmp``) by retargeting their
  predecessors — this is what erases the landing pads and exit blocks
  that promotion did not end up using ("empty blocks are automatically
  removed after optimization", section 3.2);
* merge a block into its unique successor when that successor has no
  other predecessors;
* hoist a jump-to-branch: a block ending in ``jmp`` to an empty block
  ending in a branch takes the branch directly;
* delete unreachable blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.cfg import predecessors, remove_unreachable_blocks
from ..ir.function import Function
from ..ir.instructions import Branch, Jump, retarget


@dataclass
class CleanStats:
    branches_folded: int = 0
    empty_blocks_removed: int = 0
    blocks_merged: int = 0
    unreachable_removed: int = 0


#: safety bound on clean rounds; cleaning stops at the first round that
#: changes nothing
MAX_ROUNDS = 100


def clean_function(func: Function) -> CleanStats:
    stats = CleanStats()
    for _ in range(MAX_ROUNDS):
        changed = False
        changed |= _fold_branches(func, stats)
        changed |= _skip_empty_blocks(func, stats)
        changed |= _merge_chains(func, stats)
        removed = remove_unreachable_blocks(func)
        stats.unreachable_removed += len(removed)
        changed |= bool(removed)
        if not changed:
            break
    return stats


def _fold_branches(func: Function, stats: CleanStats) -> bool:
    changed = False
    for block in func.blocks.values():
        term = block.terminator
        if isinstance(term, Branch) and term.if_true == term.if_false:
            block.instrs[-1] = Jump(term.if_true)
            stats.branches_folded += 1
            changed = True
    return changed


def _is_trivially_empty(block) -> bool:
    return len(block.instrs) == 1 and isinstance(block.instrs[0], Jump)


def _skip_empty_blocks(func: Function, stats: CleanStats) -> bool:
    """Retarget edges that pass through a block containing only a jump."""
    changed = False
    for label in list(func.blocks):
        block = func.blocks.get(label)
        if block is None or not _is_trivially_empty(block):
            continue
        target = block.instrs[0].target
        if target == label:  # a self-loop; removing it would change semantics
            continue
        for pred_label in predecessors(func)[label]:
            pred_term = func.blocks[pred_label].terminator
            if pred_term is not None:
                retarget(pred_term, label, target)
        if label == func.entry:
            # the entry can be skipped only by re-rooting the function
            func.entry = target
        del func.blocks[label]
        stats.empty_blocks_removed += 1
        changed = True
    return changed


def _merge_chains(func: Function, stats: CleanStats) -> bool:
    """Merge ``a -> b`` when a ends in a jump to b and b has one pred."""
    changed = False
    preds = predecessors(func)
    for label in list(func.blocks):
        block = func.blocks.get(label)
        if block is None:
            continue
        term = block.terminator
        if not isinstance(term, Jump):
            continue
        target = term.target
        if target == label or target == func.entry:
            continue
        if len(preds.get(target, [])) != 1:
            continue
        target_block = func.blocks[target]
        block.instrs = block.instrs[:-1] + target_block.instrs
        del func.blocks[target]
        preds = predecessors(func)
        stats.blocks_merged += 1
        changed = True
    return changed
