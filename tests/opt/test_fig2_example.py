"""Reproduction of the paper's Figure 2 worked example.

The figure shows a triply nested loop (headers B1 ⊃ B3 ⊃ B5) with:

* block B1: ``SST [C]`` and ``JSR [A]`` — C stored explicitly, A referenced
  ambiguously through the call;
* block B2 (inside B1, outside B3... actually the landing pad of B3):
  ``PLD [B 2]`` — a pointer-based load that references B and 2 ambiguously;
* block B3: ``SST [B]`` — B stored explicitly;
* block B4: ``JSR [B]`` — B referenced ambiguously through a call;
* block B5: ``SLD [A]`` — A loaded explicitly;
* block B0 (before the outer loop): ``SLD [C]``.

The paper's information table:

======  ==========  ===========
Loop    EXPLICIT    AMBIGUOUS
======  ==========  ===========
B1      A, B, C     A, B, 2
B3      A, B        B, 2
B5      A           (empty)
======  ==========  ===========

giving PROMOTABLE(B1) = {C}, PROMOTABLE(B3) = {A}, PROMOTABLE(B5) = {A};
LIFT(B1) = {C}, LIFT(B3) = {A}, LIFT(B5) = {} — A is lifted around B3, not
B5, because B3 is the outermost loop where it is promotable.

We rebuild that loop nest in IL and check the analysis reproduces exactly
those sets, then that the rewrite inserts the loads/stores where Figure 2
puts them (C around B1, A around B3) and converts the references to
copies.
"""

import pytest

from repro.analysis.loops import find_loops, normalize_loops
from repro.opt.promotion import (
    gather_block_info,
    promote_function,
    solve_loop_equations,
)
from repro.ir import (
    Call,
    Function,
    IRBuilder,
    MemLoad,
    Mov,
    ScalarLoad,
    ScalarStore,
    Tag,
    TagKind,
    TagSet,
    verify_function,
)

A = Tag("A", TagKind.GLOBAL)
B = Tag("B", TagKind.GLOBAL)
C = Tag("C", TagKind.GLOBAL)
TWO = Tag("2", TagKind.GLOBAL)  # the figure's second ambiguous tag
#: every tag of the figure (it has no universal tag set to materialize)
UNIVERSE = frozenset({A, B, C, TWO})


def figure2_function() -> Function:
    """The Figure 2 CFG, with landing pads (B0, B2, B4') and exits
    (B8, B9) just as the paper's compiler inserts them."""
    func = Function("fig2")
    b = IRBuilder(func)

    # B0: landing pad of loop B1 (the figure shows SLD [C] placed here by
    # promotion; before promotion it is empty except for control flow)
    b0 = b.set_block(func.new_block(label="B0"))
    cond = b.loadi(1, hint="cond")
    b.jmp("B1")

    # B1: outer loop header. SST [C]; JSR [A]
    b1 = func.new_block(label="B1")
    b.set_block(b1)
    b.sstore(cond, C)
    b.emit(Call(None, "external", [], mod=TagSet.of(A), ref=TagSet.empty()))
    b.jmp("B2")

    # B2: landing pad of loop B3. PLD [B 2]
    b2 = func.new_block(label="B2")
    b.set_block(b2)
    ptr = b.loadi(0, hint="ptr")
    b.load(ptr, TagSet.of(B, TWO))
    b.jmp("B3")

    # B3: middle loop header. SST [B]
    b3 = func.new_block(label="B3")
    b.set_block(b3)
    b.sstore(cond, B)
    b.jmp("B4")

    # B4: JSR [B], landing pad side of loop B5
    b4 = func.new_block(label="B4")
    b.set_block(b4)
    b.emit(Call(None, "external2", [], mod=TagSet.empty(), ref=TagSet.of(B)))
    b.jmp("B5")

    # B5: inner loop header. SLD [A]
    b5 = func.new_block(label="B5")
    b.set_block(b5)
    b.sload(A)
    b.jmp("B6")

    # B6: inner latch: loop back to B5 or leave to B7
    b6 = func.new_block(label="B6")
    b.set_block(b6)
    b.cbr(cond, "B5", "B7")

    # B7: middle latch: loop back to B3 or leave to B8
    b7 = func.new_block(label="B7")
    b.set_block(b7)
    b.cbr(cond, "B3", "B8")

    # B8: dedicated exit of loop B3; also outer latch path. SST [A] lands
    # here after promotion
    b8 = func.new_block(label="B8")
    b.set_block(b8)
    b.cbr(cond, "B1", "B9")

    # B9: exit of loop B1. SST [C] lands here after promotion
    b9 = func.new_block(label="B9")
    b.set_block(b9)
    b.ret()

    verify_function(func)
    return func


class TestFigure2Information:
    def test_loop_structure(self):
        func = figure2_function()
        forest = find_loops(func)
        headers = {loop.header for loop in forest.loops}
        assert headers == {"B1", "B3", "B5"}
        assert forest.loop_with_header("B5").parent is forest.loop_with_header("B3")
        assert forest.loop_with_header("B3").parent is forest.loop_with_header("B1")

    def test_block_information(self):
        func = figure2_function()
        explicit, ambiguous = gather_block_info(func, UNIVERSE)
        assert explicit["B1"] == {C}
        assert ambiguous["B1"] == {A}
        assert ambiguous["B2"] == {B, TWO}
        assert explicit["B3"] == {B}
        assert ambiguous["B4"] == {B}
        assert explicit["B5"] == {A}
        assert ambiguous["B5"] == set()

    def test_loop_equations_match_paper_table(self):
        func = figure2_function()
        forest = find_loops(func)
        explicit, ambiguous = gather_block_info(func, UNIVERSE)
        sets = solve_loop_equations(func, forest, explicit, ambiguous)

        assert sets["B1"].explicit == {A, B, C}
        assert sets["B1"].ambiguous == {A, B, TWO}
        # B2 (the PLD [B 2]) is loop B3's landing pad, *outside* the
        # natural loop, so tag 2 does not poison B3 — only B1
        assert sets["B3"].explicit == {A, B}
        assert sets["B3"].ambiguous == {B}
        assert sets["B5"].explicit == {A}
        assert sets["B5"].ambiguous == set()

        assert sets["B1"].promotable == {C}
        assert sets["B3"].promotable == {A}
        assert sets["B5"].promotable == {A}

        assert sets["B1"].lift == {C}
        assert sets["B3"].lift == {A}
        assert sets["B5"].lift == set()  # A is already lifted around B3


class TestFigure2Rewrite:
    def test_rewrite_matches_figure(self):
        func = figure2_function()
        report = promote_function(func, normalize_loops(func), UNIVERSE)
        verify_function(func)

        assert report.promoted_tags == {A, C}
        assert report.lifted_in("B1") == frozenset({C})
        assert report.lifted_in("B3") == frozenset({A})
        assert report.lifted_in("B5") == frozenset()

        # the SLD [A] in B5 became a copy (the figure's CP)
        b5_ops = func.block("B5").instrs
        assert not any(isinstance(i, ScalarLoad) for i in b5_ops)
        assert any(isinstance(i, Mov) for i in b5_ops)

        # the SST [C] in B1 became a copy
        b1_ops = func.block("B1").instrs
        assert not any(isinstance(i, ScalarStore) for i in b1_ops)

        # SLD [C] appears in loop B1's landing pad (the figure's B0)
        forest = find_loops(func)
        pad_b1 = forest.loop_with_header("B1").preheader
        pad_loads = [
            i for i in func.block(pad_b1).instrs if isinstance(i, ScalarLoad)
        ]
        assert [i.tag for i in pad_loads] == [C]

        # SLD [A] appears in loop B3's landing pad (the figure's B2 side)
        pad_b3 = forest.loop_with_header("B3").preheader
        pad_loads = [
            i for i in func.block(pad_b3).instrs if isinstance(i, ScalarLoad)
        ]
        assert [i.tag for i in pad_loads] == [A]

        # SST [C] at B1's exits, and *no* store of A there (A is stored
        # around B3, but A is never stored inside the loop -> with the
        # store-only-if-stored refinement the demotion store is elided;
        # C *is* stored in B1, so its demotion store must exist)
        exit_stores = [
            (label, i.tag)
            for loop in forest.loops
            for label in loop.exit_blocks
            for i in func.block(label).instrs
            if isinstance(i, ScalarStore)
        ]
        assert (next(iter(forest.loop_with_header("B1").exit_blocks)), C) in exit_stores

    def test_paper_exact_mode_stores_read_only_tags_too(self):
        """Without the store-back refinement, A is also stored at B3's
        exits — exactly the Figure 2 drawing."""
        from repro.opt.promotion import PromotionOptions

        func = figure2_function()
        report = promote_function(
            func,
            normalize_loops(func),
            UNIVERSE,
            PromotionOptions(store_only_if_stored=False),
        )
        forest = find_loops(func)
        b3_exits = forest.loop_with_header("B3").exit_blocks
        stored = {
            i.tag
            for label in b3_exits
            for i in func.block(label).instrs
            if isinstance(i, ScalarStore)
        }
        assert A in stored
