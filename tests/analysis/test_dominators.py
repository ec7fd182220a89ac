"""Tests for Lengauer-Tarjan dominators and dominance frontiers.

Includes a cross-check against networkx's immediate_dominators on random
CFGs — an independent oracle for the Lengauer-Tarjan implementation.
"""

import random

import networkx as nx
import pytest

from repro.analysis.dominators import compute_dominators, dominance_frontiers
from repro.ir import Branch, Function, IRBuilder, Jump, Ret


def build_cfg(edges: dict[str, tuple[str, ...]], entry: str) -> Function:
    """Build a function whose CFG matches the given successor map."""
    func = Function("g")
    order = [entry] + [n for n in edges if n != entry]
    for label in order:
        func.new_block(label=label)
    func.entry = entry
    cond = func.new_vreg()
    for label, succs in edges.items():
        block = func.block(label)
        if len(succs) == 0:
            block.append(Ret())
        elif len(succs) == 1:
            block.append(Jump(succs[0]))
        elif len(succs) == 2:
            block.append(Branch(cond, succs[0], succs[1]))
        else:
            raise AssertionError("at most two successors")
    return func


class TestClassicShapes:
    def test_straight_line(self):
        func = build_cfg({"A": ("B",), "B": ("C",), "C": ()}, "A")
        dom = compute_dominators(func)
        assert dom.idom == {"A": "A", "B": "A", "C": "B"}

    def test_diamond(self):
        func = build_cfg(
            {"A": ("B", "C"), "B": ("D",), "C": ("D",), "D": ()}, "A"
        )
        dom = compute_dominators(func)
        assert dom.idom["D"] == "A"
        assert dom.dominates("A", "D")
        assert not dom.dominates("B", "D")

    def test_loop(self):
        func = build_cfg(
            {"A": ("H",), "H": ("B", "X"), "B": ("H",), "X": ()}, "A"
        )
        dom = compute_dominators(func)
        assert dom.idom["B"] == "H"
        assert dom.idom["X"] == "H"
        assert dom.dominates("H", "B")

    def test_lengauer_tarjan_paper_example(self):
        # the example graph from the 1979 paper (figure 1)
        edges = {
            "R": ("A", "B", "C"),
            "A": ("D",),
            "B": ("A", "D", "E"),
            "C": ("F", "G"),
            "D": ("L",),
            "E": ("H",),
            "F": ("I",),
            "G": ("I", "J"),
            "H": ("E", "K"),
            "I": ("K",),
            "J": ("I",),
            "K": ("I", "R"),
            "L": ("H",),
        }
        # our blocks support <=2 successors; expand fan-outs via networkx
        # oracle comparison instead on a random graph (below); here test a
        # reduced variant with <=2-way branches
        edges = {
            "R": ("A", "B"),
            "A": ("D",),
            "B": ("D", "E"),
            "D": ("L",),
            "E": ("H",),
            "H": ("E", "K"),
            "K": ("R",),
            "L": ("H",),
        }
        func = build_cfg(edges, "R")
        dom = compute_dominators(func)
        assert dom.idom["D"] == "R"
        assert dom.idom["H"] == "R"
        assert dom.idom["K"] == "H"

    def test_unreachable_blocks_excluded(self):
        func = build_cfg({"A": ("B",), "B": (), "Z": ("B",)}, "A")
        dom = compute_dominators(func)
        assert "Z" not in dom.idom

    def test_depths_and_strict_dominance(self):
        func = build_cfg({"A": ("B",), "B": ("C",), "C": ()}, "A")
        dom = compute_dominators(func)
        assert dom.depth == {"A": 0, "B": 1, "C": 2}
        assert dom.dominates("C", "C")


class TestDominanceFrontiers:
    def test_diamond_frontier(self):
        func = build_cfg(
            {"A": ("B", "C"), "B": ("D",), "C": ("D",), "D": ()}, "A"
        )
        frontiers = dominance_frontiers(func)
        assert frontiers["B"] == {"D"}
        assert frontiers["C"] == {"D"}
        assert frontiers["A"] == set()

    def test_loop_header_in_own_frontier(self):
        func = build_cfg(
            {"A": ("H",), "H": ("B", "X"), "B": ("H",), "X": ()}, "A"
        )
        frontiers = dominance_frontiers(func)
        assert "H" in frontiers["B"]
        assert "H" in frontiers["H"]  # the header's frontier includes itself


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_cfg_matches_networkx(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 24)
        labels = [f"N{i}" for i in range(n)]
        edges: dict[str, tuple[str, ...]] = {}
        for i, label in enumerate(labels):
            fanout = rng.randint(0, 2)
            succs = tuple(
                rng.choice(labels) for _ in range(fanout)
            )
            if len(succs) == 2 and succs[0] == succs[1]:
                succs = (succs[0],)
            edges[label] = succs
        func = build_cfg(edges, "N0")
        dom = compute_dominators(func)

        graph = nx.DiGraph()
        graph.add_nodes_from(labels)
        for src, succs in edges.items():
            for dst in succs:
                graph.add_edge(src, dst)
        expected = dict(nx.immediate_dominators(graph, "N0"))
        expected["N0"] = "N0"  # normalize: we map the entry to itself
        assert dom.idom == expected
