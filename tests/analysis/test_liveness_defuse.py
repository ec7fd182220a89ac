"""Tests for liveness analysis."""

from repro.analysis.liveness import compute_liveness
from repro.ir import (
    BinOp,
    Call,
    Function,
    IRBuilder,
    Opcode,
    VReg,
)


def loop_function():
    """x defined before a loop and used after it stays live through it."""
    func = Function("f")
    b = IRBuilder(func)
    entry = b.start_block("entry")
    x = b.loadi(7, hint="x")
    header = func.new_block(label="H")
    body = func.new_block(label="B")
    exit_ = func.new_block(label="X")
    b.jmp(header)
    b.set_block(header)
    cond = b.loadi(1)
    b.cbr(cond, body, exit_)
    b.set_block(body)
    y = b.loadi(2)
    b.jmp(header)
    b.set_block(exit_)
    b.ret(x)
    return func, x, y


def nested_loop_function():
    """x is used only after the outer loop.  From the inner header I the
    use is reachable only around the outer back edge OL -> O, so x enters
    LIVEIN(I) on the second postorder pass and LIVEIN(IB) on the third."""
    func = Function("n")
    b = IRBuilder(func)
    b.start_block("entry")
    x = b.loadi(7, hint="x")
    outer = func.new_block(label="O")
    inner = func.new_block(label="I")
    inner_body = func.new_block(label="IB")
    outer_latch = func.new_block(label="OL")
    exit_ = func.new_block(label="X")
    b.jmp(outer)
    b.set_block(outer)
    b.cbr(b.loadi(1), inner, exit_)
    b.set_block(inner)
    b.cbr(b.loadi(1), inner_body, outer_latch)
    b.set_block(inner_body)
    b.jmp(inner)
    b.set_block(outer_latch)
    b.jmp(outer)
    b.set_block(exit_)
    b.ret(x)
    return func, x


class TestLiveness:
    def test_live_through_loop(self):
        func, x, y = loop_function()
        live = compute_liveness(func)
        assert x.id in live.live_in["H"]
        assert x.id in live.live_in["B"]
        assert x.id in live.live_in["X"]

    def test_live_only_around_outer_back_edge(self):
        func, x = nested_loop_function()
        live = compute_liveness(func)
        for label in ("O", "I", "IB", "OL", "X"):
            assert x.id in live.live_in[label], label
        for label in (func.entry, "O", "I", "IB", "OL"):
            assert x.id in live.live_out[label], label
        assert x.id not in live.live_out["X"]
        assert x.id not in live.live_in[func.entry]

    def test_dead_after_last_use(self):
        func, x, y = loop_function()
        live = compute_liveness(func)
        assert y.id not in live.live_out["B"]
        assert x.id not in live.live_out["X"]

    def test_params_live_in_entry_when_used(self):
        func = Function("g", params=[VReg(0, "a")])
        b = IRBuilder(func)
        b.start_block()
        b.ret(func.params[0])
        live = compute_liveness(func)
        assert func.params[0].id in live.live_in[func.entry]

