"""Ablation A1 — pointer-based promotion across the suite (section 3.3).

The paper: "pointer-based promotion hurt performance for one program and
had no effect on nine others ... In fft, the only significant success,
pointer-based promotion was able to remove 48.3% more operations [than
scalar promotion alone removed]."

This benchmark runs scalar-promotion-only vs scalar+pointer promotion on
a representative subset and checks fft is where the wins live.
"""

from benchmarks.conftest import run_workload, write_artifact
from repro.pipeline import Analysis, PipelineOptions

PROGRAMS = ["fft", "mlink", "go", "compress", "tsp"]


def run_matrix():
    results = {}
    for name in PROGRAMS:
        scalar = run_workload(
            name,
            PipelineOptions(analysis=Analysis.POINTER, pointer_promotion=False),
        )
        both = run_workload(
            name,
            PipelineOptions(analysis=Analysis.POINTER, pointer_promotion=True),
        )
        assert both.output == scalar.output, name
        results[name] = (scalar.counters, both.counters)
    return results


def test_a1_pointer_promotion_suite(benchmark, out_dir):
    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    lines = [
        "A1: pointer-based promotion on top of scalar promotion (section 3.3)",
        f"{'program':<10} {'metric':<8} {'scalar only':>12} "
        f"{'+pointer':>12} {'extra removed':>14}",
    ]
    extra: dict[str, int] = {}
    for name, (scalar, both) in results.items():
        for metric in ("total_ops", "stores", "loads"):
            s = getattr(scalar, metric)
            b = getattr(both, metric)
            lines.append(
                f"{name:<10} {metric:<8} {s:>12} {b:>12} {s - b:>14}"
            )
        extra[name] = scalar.memory_ops() - both.memory_ops()
    write_artifact(out_dir, "a1_pointer_promotion.txt", "\n".join(lines))

    # fft is the significant success; the others are near-zero
    assert extra["fft"] > 0
    assert extra["fft"] >= max(extra.values()) - 2
    assert extra["tsp"] == 0
    for name in ("mlink", "go", "compress"):
        assert abs(extra[name]) <= max(extra["fft"] // 2, 8), (name, extra)
