"""The metric catalogue: every name the benchmark reports, with its unit
and direction.  ``BENCHMARK.json`` lists the same names; a test keeps the
two in step.

End-to-end metrics are reported by every workload (an untraced run);
what each one measures on each workload is tabled in the README.
Per-layer metrics come from a separate traced run; a layer the
workload's measured path does not reach reads 0.
"""

from __future__ import annotations

#: name -> (unit, better, regression bound as a share of the median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "mean_ms": ("ms", "lower", 0.10),
    "p50_ms": ("ms", "lower", 0.10),
    "tail_ms": ("ms", "lower", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "exact_ops": ("count", "lower", 0.001),
    "ok_frac": ("frac", "higher", 0.001),
}

#: name -> (unit, better)
PER_LAYER = {
    "frontend.self_s": ("s", "lower"),
    "frontend.kloc_per_s": ("kloc/s", "higher"),
    "analysis.modref_s": ("s", "lower"),
    "analysis.points_to_s": ("s", "lower"),
    "analysis.tagrefine_s": ("s", "lower"),
    "opt.clean_s": ("s", "lower"),
    "opt.valuenum_s": ("s", "lower"),
    "opt.sccp_s": ("s", "lower"),
    "opt.promotion_s": ("s", "lower"),
    "opt.licm_s": ("s", "lower"),
    "opt.pre_s": ("s", "lower"),
    "opt.dce_s": ("s", "lower"),
    "opt.promotion.tags_promoted": ("count", "higher"),
    "opt.promotion.refs_rewritten": ("count", "higher"),
    "regalloc.self_s": ("s", "lower"),
    "regalloc.spill_ops": ("count", "lower"),
    "regalloc.coalesced": ("count", "higher"),
    "regalloc.rounds": ("count", "lower"),
    "ir.verify_s": ("s", "lower"),
    "ir.static_ops": ("count", "lower"),
    "interp.first_run_s": ("s", "lower"),
    "interp.steady_s": ("s", "lower"),
    "interp.decode_s": ("s", "lower"),
    "interp.ops_per_s": ("1/s", "higher"),
    "interp.dyn_ops": ("count", "lower"),
    "interp.dyn_memops": ("count", "lower"),
    "inccomp.key_s": ("s", "lower"),
    "inccomp.get_s": ("s", "lower"),
    "inccomp.put_s": ("s", "lower"),
    "inccomp.hit_frac": ("frac", "higher"),
    "inccomp.misses_per_edit": ("count", "lower"),
    "serve.hit_p50_ms": ("ms", "lower"),
    "serve.hit_p99_ms": ("ms", "lower"),
    "serve.miss_p50_ms": ("ms", "lower"),
    "serve.miss_p90_ms": ("ms", "lower"),
    "serve.queue_wait_p50_ms": ("ms", "lower"),
    "serve.cache_hit_frac": ("frac", "higher"),
    "serve.cache_ms_p50": ("ms", "lower"),
    "serve.framing_ms_p50": ("ms", "lower"),
    "serve.compile_ms_p50": ("ms", "lower"),
    "serve.execute_ms_p50": ("ms", "lower"),
    "serve.gen_lag_p99_ms": ("ms", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.attributed_frac": ("frac", "higher"),
}

#: per-layer seconds keyed by the layer names of :mod:`perfbench.layers`
LAYER_SECONDS = {
    "frontend": "frontend.self_s",
    "analysis.modref": "analysis.modref_s",
    "analysis.points_to": "analysis.points_to_s",
    "analysis.tagrefine": "analysis.tagrefine_s",
    "opt.clean": "opt.clean_s",
    "opt.valuenum": "opt.valuenum_s",
    "opt.sccp": "opt.sccp_s",
    "opt.promotion": "opt.promotion_s",
    "opt.licm": "opt.licm_s",
    "opt.pre": "opt.pre_s",
    "opt.dce": "opt.dce_s",
    "regalloc": "regalloc.self_s",
    "ir.verify": "ir.verify_s",
    "inccomp.key": "inccomp.key_s",
    "inccomp.get": "inccomp.get_s",
    "inccomp.put": "inccomp.put_s",
}

#: work counts :class:`perfbench.layers.LayerTimer` collects, reported as-is
LAYER_COUNTS = (
    "opt.promotion.tags_promoted",
    "opt.promotion.refs_rewritten",
    "regalloc.spill_ops",
    "regalloc.coalesced",
    "regalloc.rounds",
)


def layer_metrics(timer, passes: int, scale: float) -> dict[str, float]:
    """Per-pass layer seconds and counts from a :class:`LayerTimer`;
    ``scale`` takes the timer's wall seconds to nominal host speed."""
    metrics = {
        name: timer.self_s.get(layer, 0.0) * scale / passes
        for layer, name in LAYER_SECONDS.items()
    }
    metrics.update(
        {name: timer.counts.get(name, 0) / passes for name in LAYER_COUNTS}
    )
    frontend_s = timer.self_s.get("frontend", 0.0) * scale
    if frontend_s:
        metrics["frontend.kloc_per_s"] = (
            timer.counts.get("frontend.lines", 0) / 1000 / frontend_s
        )
    return metrics
