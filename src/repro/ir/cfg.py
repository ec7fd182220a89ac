"""Control-flow graph utilities.

Successor edges live in each block's terminator; this module derives
everything else: predecessor maps, traversal orders, reachability,
unreachable-block removal and critical-edge splitting.  Loop-shape
normalization (landing pads and dedicated exits) lives in
:mod:`repro.analysis.loops`.
"""

from __future__ import annotations

from .function import Function


def predecessors(func: Function) -> dict[str, list[str]]:
    """``label -> [predecessor labels]`` for every block, in a stable order."""
    preds: dict[str, list[str]] = {label: [] for label in func.blocks}
    for label, block in func.blocks.items():
        for succ in block.successors():
            preds[succ].append(label)
    return preds


def postorder(func: Function) -> list[str]:
    """Labels in depth-first postorder from the entry block.

    Unreachable blocks are omitted.
    """
    seen = {func.entry}
    order: list[str] = []
    # Iterative DFS keeps very deep CFGs from exhausting Python's stack;
    # each frame resumes its own successor iterator.
    stack = [(func.entry, iter(func.block(func.entry).successors()))]
    while stack:
        label, succs = stack[-1]
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(func.block(succ).successors())))
                break
        else:
            order.append(label)
            stack.pop()
    return order


def reverse_postorder(func: Function) -> list[str]:
    """Labels in reverse postorder — a topological-ish forward order."""
    order = postorder(func)
    order.reverse()
    return order


def reachable_labels(func: Function) -> set[str]:
    return set(postorder(func))


def remove_unreachable_blocks(func: Function) -> list[str]:
    """Delete blocks no path from the entry reaches.

    Returns the removed labels.
    """
    live = reachable_labels(func)
    dead = [label for label in func.blocks if label not in live]
    for label in dead:
        del func.blocks[label]
    return dead


def split_critical_edges(func: Function) -> list[tuple[str, str, str]]:
    """Split every edge whose source has multiple successors and whose
    target has multiple predecessors.  Returns one ``(src, dst, new_label)``
    per split edge, in the order they were split.
    """
    preds = predecessors(func)
    splits: list[tuple[str, str, str]] = []
    for src_label in list(func.blocks):
        src = func.blocks[src_label]
        succs = src.successors()
        if len(succs) < 2:
            continue
        for dst_label in succs:
            if len(preds[dst_label]) < 2:
                continue
            mid = func.split_edge(src_label, dst_label, hint="CE")
            splits.append((src_label, dst_label, mid.label))
            preds = predecessors(func)
    return splits

