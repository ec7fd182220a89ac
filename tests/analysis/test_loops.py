"""Tests for natural-loop discovery and landing-pad/exit normalization."""

import pytest

from repro.analysis.loops import find_loops, normalize_loops
from repro.ir import Function, IRBuilder, verify_function
from repro.ir.cfg import predecessors

from tests.analysis.test_dominators import build_cfg


class TestFindLoops:
    def test_no_loops(self):
        func = build_cfg({"A": ("B",), "B": ()}, "A")
        forest = find_loops(func)
        assert forest.loops == []

    def test_single_loop(self):
        func = build_cfg(
            {"A": ("H",), "H": ("B", "X"), "B": ("H",), "X": ()}, "A"
        )
        forest = find_loops(func)
        assert len(forest.loops) == 1
        loop = forest.loops[0]
        assert loop.header == "H"
        assert loop.blocks == {"H", "B"}
        assert loop.latches == ["B"]
        assert loop.depth == 1
        assert loop.is_outermost()

    def test_nested_loops(self):
        func = build_cfg(
            {
                "A": ("H1",),
                "H1": ("H2", "X"),
                "H2": ("B", "L1"),
                "B": ("H2",),
                "L1": ("H1",),
                "X": (),
            },
            "A",
        )
        forest = find_loops(func)
        assert len(forest.loops) == 2
        outer = forest.loop_with_header("H1")
        inner = forest.loop_with_header("H2")
        assert inner.parent is outer
        assert inner in outer.children
        assert outer.depth == 1 and inner.depth == 2
        assert inner.blocks < outer.blocks
        assert forest.innermost["B"] is inner
        assert forest.innermost["L1"] is outer
        assert forest.depth_of("B") == 2
        assert forest.depth_of("A") == 0

    def test_two_latches_merge(self):
        func = build_cfg(
            {
                "A": ("H",),
                "H": ("B1", "X"),
                "B1": ("H", "B2"),
                "B2": ("H",),
                "X": (),
            },
            "A",
        )
        forest = find_loops(func)
        assert len(forest.loops) == 1
        assert set(forest.loops[0].latches) == {"B1", "B2"}

    def test_exit_edges(self):
        func = build_cfg(
            {"A": ("H",), "H": ("B", "X"), "B": ("H", "Y"), "X": (), "Y": ()},
            "A",
        )
        forest = find_loops(func)
        loop = forest.loops[0]
        assert set(loop.exit_edges) == {("H", "X"), ("B", "Y")}
        assert set(loop.exit_blocks) == {"X", "Y"}

    def test_orders(self):
        func = build_cfg(
            {
                "A": ("H1",),
                "H1": ("H2", "X"),
                "H2": ("B", "L1"),
                "B": ("H2",),
                "L1": ("H1",),
                "X": (),
            },
            "A",
        )
        forest = find_loops(func)
        outermost = forest.loops_outermost_first()
        assert [l.header for l in outermost] == ["H1", "H2"]
        innermost = forest.loops_innermost_first()
        assert [l.header for l in innermost] == ["H2", "H1"]


class TestNormalizeLoops:
    def test_landing_pad_created(self):
        # header H has two outside predecessors A and Z
        func = build_cfg(
            {"A": ("H", "Z"), "Z": ("H",), "H": ("B", "X"), "B": ("H",), "X": ()},
            "A",
        )
        forest = normalize_loops(func)
        loop = forest.loop_with_header("H")
        pad = loop.preheader
        preds = predecessors(func)
        outside = [p for p in preds["H"] if p not in loop.blocks]
        assert outside == [pad]
        assert func.block(pad).successors() == ("H",)
        verify_function(func)

    def test_dedicated_exits(self):
        # exit target X is also reachable from outside the loop
        func = build_cfg(
            {
                "A": ("H", "X"),
                "H": ("B", "X"),
                "B": ("H",),
                "X": (),
            },
            "A",
        )
        forest = normalize_loops(func)
        loop = forest.loop_with_header("H")
        preds = predecessors(func)
        for exit_block in loop.exit_blocks:
            assert all(p in loop.blocks for p in preds[exit_block])
        verify_function(func)

    def test_entry_header_gets_pad(self):
        # the loop header is the function entry: a new entry pad appears
        func = build_cfg({"H": ("B", "X"), "B": ("H",), "X": ()}, "H")
        forest = normalize_loops(func)
        assert func.entry != "H"
        loop = forest.loop_with_header("H")
        assert loop.preheader == func.entry
        verify_function(func)

    def test_idempotent(self):
        func = build_cfg(
            {"A": ("H",), "H": ("B", "X"), "B": ("H",), "X": ()}, "A"
        )
        normalize_loops(func)
        blocks_after_first = set(func.blocks)
        normalize_loops(func)
        assert set(func.blocks) == blocks_after_first

    def test_nested_exits_shared(self):
        # inner loop's break target lies outside both loops
        func = build_cfg(
            {
                "A": ("H1",),
                "H1": ("H2", "X"),
                "H2": ("B", "L1"),
                "B": ("H2", "OUT"),   # break straight out of both loops
                "L1": ("H1",),
                "OUT": (),
                "X": (),
            },
            "A",
        )
        forest = normalize_loops(func)
        inner = forest.loop_with_header("H2")
        outer = forest.loop_with_header("H1")
        preds = predecessors(func)
        for loop in (inner, outer):
            for exit_block in loop.exit_blocks:
                assert all(p in loop.blocks for p in preds[exit_block]), (
                    loop.header,
                    exit_block,
                )
        verify_function(func)

    def test_preheader_query_requires_normalization(self):
        func = build_cfg(
            {"A": ("H", "Z"), "Z": ("H",), "H": ("B", "X"), "B": ("H",), "X": ()},
            "A",
        )
        forest = find_loops(func)
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            forest.loop_with_header("H").preheader
