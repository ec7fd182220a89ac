"""Property-based tests for loop discovery and normalization on random
CFGs (the same generator that cross-checks dominators against networkx)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.dominators import compute_dominators
from repro.analysis.loops import find_loops, normalize_loops
from repro.ir.cfg import predecessors, reachable_labels
from repro.ir.verify import verify_function
from tests.analysis.test_dominators import build_cfg


@st.composite
def random_cfgs(draw):
    n = draw(st.integers(min_value=3, max_value=18))
    labels = [f"N{i}" for i in range(n)]
    edges = {}
    for label in labels:
        fanout = draw(st.integers(min_value=0, max_value=2))
        succs = tuple(
            draw(st.sampled_from(labels)) for _ in range(fanout)
        )
        if len(succs) == 2 and succs[0] == succs[1]:
            succs = (succs[0],)
        edges[label] = succs
    return edges


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_cfgs())
def test_loop_bodies_are_sane(edges):
    func = build_cfg(edges, "N0")
    dom = compute_dominators(func)
    forest = find_loops(func, dom)
    for loop in forest.loops:
        # the header dominates every block of its loop
        for label in loop.blocks:
            assert dom.dominates(loop.header, label)
        # every latch is in the body and branches to the header
        for latch in loop.latches:
            assert latch in loop.blocks
            assert loop.header in func.block(latch).successors()
        # nesting is strict containment
        if loop.parent is not None:
            assert loop.blocks < loop.parent.blocks
            assert loop.depth == loop.parent.depth + 1


def loop_shape(forest):
    """Everything a loop pass reads off a forest, comparable with ``==``."""
    return [
        (
            loop.header,
            sorted(loop.blocks),
            loop.pad,
            loop.exit_edges,
            loop.depth,
            loop.latches,
            loop.parent.header if loop.parent is not None else None,
        )
        for loop in forest.loops
    ]


def successor_map(func):
    return {label: block.successors() for label, block in func.blocks.items()}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_cfgs())
def test_normalization_establishes_contract(edges):
    func = build_cfg(edges, "N0")
    forest = normalize_loops(func)
    verify_function(func)
    preds = predecessors(func)
    reachable = reachable_labels(func)
    for loop in forest.loops:
        # exactly one outside predecessor whose only successor is the
        # header (the landing pad), and the forest recorded it
        outside = [
            p for p in preds[loop.header]
            if p not in loop.blocks and p in reachable
        ]
        assert len(outside) == 1
        assert loop.pad == loop.preheader == outside[0]
        assert func.block(outside[0]).successors() == (loop.header,)
        # the recorded exit edges are every edge leaving the loop, in
        # sorted-source order
        assert loop.exit_edges == [
            (label, succ)
            for label in sorted(loop.blocks)
            for succ in func.block(label).successors()
            if succ not in loop.blocks
        ]
        # every exit block is dedicated: all its predecessors in the loop
        for exit_label in loop.exit_blocks:
            assert all(p in loop.blocks for p in preds[exit_label])
    # normalizing a normalized CFG edits nothing and finds the same loops
    cfg_before = successor_map(func)
    again = normalize_loops(func)
    assert successor_map(func) == cfg_before
    assert loop_shape(again) == loop_shape(forest)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_cfgs())
def test_normalization_preserves_loop_count(edges):
    func = build_cfg(edges, "N0")
    before = {loop.header for loop in find_loops(func).loops}
    after_forest = normalize_loops(func)
    after = {loop.header for loop in after_forest.loops}
    assert before == after
