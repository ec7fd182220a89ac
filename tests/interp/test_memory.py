"""Tests for the interpreter's memory image and layout."""

import pytest

from repro.errors import InterpError
from repro.frontend import compile_c
from repro.interp.memory import (
    GLOBAL_BASE,
    HEAP_BASE,
    STACK_BASE,
    STRING_BASE,
    MemoryImage,
    frame_layout,
)
from repro.ir.tags import Tag, TagKind


def image_for(src: str) -> MemoryImage:
    return MemoryImage(compile_c(src))


class TestLayout:
    def test_globals_placed_in_global_region(self):
        mem = image_for("int a; double b; int c[4];")
        for name in ("a", "b", "c"):
            addr = mem.global_addr[name]
            assert GLOBAL_BASE <= addr < STRING_BASE

    def test_globals_do_not_overlap(self):
        mem = image_for("int a[10]; int b[10]; int c;")
        spans = []
        sizes = {"a": 40, "b": 40, "c": 4}
        for name, size in sizes.items():
            start = mem.global_addr[name]
            spans.append((start, start + size))
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_initializers_written(self):
        mem = image_for("int a = 5; int arr[3] = {7, 8, 9};")
        assert mem.load(mem.global_addr["a"]) == 5
        base = mem.global_addr["arr"]
        assert [mem.load(base + 4 * i) for i in range(3)] == [7, 8, 9]

    def test_strings_nul_terminated(self):
        module = compile_c(
            'int main(void) { printf("ab"); return 0; }'
        )
        mem = MemoryImage(module)
        lit = next(iter(module.strings.values()))
        addr = mem.string_addr[lit.tag.name]
        assert STRING_BASE <= addr < STACK_BASE
        assert mem.read_c_string(addr) == "ab"
        assert mem.load(addr + 2) == 0


class TestStack:
    def test_frames_grow_and_pop(self):
        mem = image_for("int g;")
        t1 = Tag("f.x", TagKind.LOCAL, owner="f")
        before = mem.stack_ptr
        addrs = mem.push_frame([t1], {"f.x": 8})
        assert addrs["f.x"] == before
        assert mem.stack_ptr > before
        mem.pop_frame(before)
        assert mem.stack_ptr == before

    def test_nested_frames_distinct(self):
        mem = image_for("int g;")
        tag = Tag("f.x", TagKind.LOCAL, owner="f")
        first = mem.push_frame([tag], {})
        second = mem.push_frame([tag], {})
        assert first["f.x"] != second["f.x"]

    def test_frame_respects_sizes(self):
        mem = image_for("int g;")
        a = Tag("f.a", TagKind.LOCAL, owner="f")
        b = Tag("f.b", TagKind.LOCAL, owner="f")
        addrs = mem.push_frame([a, b], {"f.a": 100, "f.b": 8})
        assert addrs["f.b"] >= addrs["f.a"] + 100


class TestHeap:
    def test_allocations_disjoint_and_in_region(self):
        mem = image_for("int g;")
        p1 = mem.allocate(64)
        p2 = mem.allocate(16)
        assert p1 >= HEAP_BASE
        assert p2 >= p1 + 64

    def test_free_validates(self):
        mem = image_for("int g;")
        p = mem.allocate(8)
        mem.free(p)          # ok
        mem.free(0)          # free(NULL) ok
        with pytest.raises(InterpError):
            mem.free(12345)

    def test_unwritten_cells_read_zero(self):
        mem = image_for("int g;")
        p = mem.allocate(32)
        assert mem.load(p + 8) == 0

    def test_unterminated_string_detected(self):
        mem = image_for("int g;")
        p = mem.allocate(8)
        for i in range(8):
            mem.store(p + i, 65)
        with pytest.raises(InterpError):
            mem.read_c_string(p, limit=8)


class TestFrameSlots:
    """frame_layout is the one frame layout rule: push_frame and the
    compiled tier's generated code both place slots with it."""

    def test_slots_parallel_to_tags(self):
        tags = [Tag("x", TagKind.LOCAL), Tag("y", TagKind.LOCAL)]
        offsets, size = frame_layout(tags, {"x": 8, "y": 8})
        assert list(offsets) == ["x", "y"]
        assert offsets["x"] == 0
        assert offsets["y"] > offsets["x"]
        assert size == 16

    def test_same_layout_as_push_frame(self):
        tags = [Tag("a", TagKind.LOCAL), Tag("b", TagKind.LOCAL),
                Tag("c", TagKind.LOCAL)]
        sizes = {"a": 4, "b": 40, "c": 8}
        mem = image_for("int g;")
        sp = mem.stack_ptr
        offsets, size = frame_layout(tags, sizes)
        by_name = mem.push_frame(tags, sizes)
        assert by_name == {name: sp + off for name, off in offsets.items()}
        assert mem.stack_ptr == sp + size
        mem.pop_frame(sp)
        assert mem.stack_ptr == sp

    def test_overflow_raises(self):
        mem = image_for("int g;")
        tag = Tag("huge", TagKind.LOCAL)
        sp = mem.stack_ptr
        with pytest.raises(InterpError, match="overflow"):
            mem.push_frame([tag], {"huge": 1 << 40})
        with pytest.raises(InterpError, match="overflow"):
            mem.reserve(1 << 40)
        assert mem.stack_ptr == sp
