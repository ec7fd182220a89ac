"""The delta reducer: chunking, synthetic ddmin, and a real miscompile."""

import pytest

from repro.fuzz.oracle import (
    OracleConfig,
    config_with_broken_promotion,
    make_divergence_predicate,
)
from repro.fuzz.reduce import chunk_lines, reduce_source

#: a reproducer for the injected promotion bug (a loop stores a global a
#: callee reads) padded with removable declarations, loops, and prints —
#: the reducer must strip the padding and keep the core
MISCOMPILE_WITH_PADDING = """\
long g = 0;
long unused0 = 11;
long unused1 = 22;
long noise[8];
long bump(long k) {
    g += k;
    return g;
}
long idle(long a, long b) {
    return a * b + 1;
}
int main(void) {
    long acc = 0;
    long filler0 = 1;
    long filler1 = 2;
    long i = 0;
    long j = 0;
    for (i = 0; i < 8; i++) {
        g = g + 1;
        acc += bump(i);
    }
    for (j = 0; j < 6; j++) {
        filler0 += idle(j, filler1);
        noise[(j & 7)] += filler0;
    }
    if (filler0 > filler1) {
        filler1 ^= 3;
    }
    printf("acc %ld\\n", acc);
    printf("g %ld\\n", g);
    printf("filler0 %ld\\n", filler0);
    printf("filler1 %ld\\n", filler1);
    return (int)(acc & 63);
}
"""


class TestChunkLines:
    def test_flat_lines_are_single_chunks(self):
        lines = ["a;", "b;", "c;"]
        assert chunk_lines(lines) == [["a;"], ["b;"], ["c;"]]

    def test_block_is_one_chunk_with_header(self):
        lines = ["x;", "while (1) {", "    y;", "}", "z;"]
        chunks = chunk_lines(lines)
        assert chunks == [["x;"], ["while (1) {", "    y;", "}"], ["z;"]]

    def test_nested_blocks_swallowed_whole(self):
        lines = ["f() {", "    if (a) {", "        b;", "    }", "}"]
        assert chunk_lines(lines) == [lines]

    def test_chunks_roundtrip(self):
        lines = MISCOMPILE_WITH_PADDING.splitlines()
        chunks = chunk_lines(lines)
        assert [l for c in chunks for l in c] == lines


class TestSyntheticReduction:
    def test_reduces_to_the_needles(self):
        filler = [f"line{i};" for i in range(10)]
        source = "\n".join(
            filler[:4]
            + ["keep_A;", "block {", "    inner;", "    keep_B;", "}"]
            + filler[4:]
        ) + "\n"

        def predicate(text):
            return "keep_A" in text and "keep_B" in text

        reduced, stats = reduce_source(source, predicate)
        assert "keep_A" in reduced and "keep_B" in reduced
        # everything else is gone (the block unwraps around keep_B)
        assert stats.final_lines == 2
        assert stats.probes > 0

    def test_rejects_non_reproducing_input(self):
        with pytest.raises(ValueError):
            reduce_source("a\nb\n", lambda text: False)

    def test_probe_exceptions_count_as_false(self):
        def predicate(text):
            if "b" not in text:
                raise RuntimeError("boom")
            return "a" in text

        reduced, _ = reduce_source("a\nb\n", predicate)
        assert "a" in reduced and "b" in reduced


class TestMiscompileReduction:
    def test_shrinks_injected_miscompile_to_under_20_lines(self):
        # a 2-cell oracle subset keeps every probe cheap: the broken full
        # pipeline against the O0 reference, compiled engine only
        config = config_with_broken_promotion(
            OracleConfig(levels=("O0", "full"), engines=("compiled",))
        )
        predicate = make_divergence_predicate(config, kind="output-divergence")
        assert predicate(MISCOMPILE_WITH_PADDING), (
            "the padded reproducer must diverge before reduction"
        )
        reduced, stats = reduce_source(MISCOMPILE_WITH_PADDING, predicate)
        assert stats.final_lines <= 20, reduced
        assert predicate(reduced)
        # the core of the bug survives: the callee that touches g
        assert "bump" in reduced and "g" in reduced
