"""Ablation A2 — register pressure: the water anecdote, quantified.

The paper: "In water, register promotion was able to promote twenty-eight
values for one loop nest.  Unfortunately, this caused the register
allocator to spill values which resulted in a performance loss compared
to no register promotion" — and section 3.4 flags a pressure-aware
throttle as future work (Carr's bin packing).

This benchmark sweeps the machine's register count and shows the
crossover: with a small register file, promotion's spills make it a net
loss; with a large one, promotion wins outright.  It also demonstrates
the throttle (``max_promoted_per_loop``) recovering most of the loss.
"""

from benchmarks.conftest import run_workload, write_artifact
from repro.opt.promotion import PromotionOptions
from repro.pipeline import PipelineOptions
from repro.regalloc import RegAllocOptions

KS = [12, 24, 32, 64]


def run_sweep():
    rows = []
    for k in KS:
        regalloc = RegAllocOptions(num_registers=k)
        nopromo = run_workload(
            "water", PipelineOptions(promotion=False, regalloc=regalloc)
        )
        promo = run_workload(
            "water", PipelineOptions(promotion=True, regalloc=regalloc)
        )
        throttled = run_workload(
            "water",
            PipelineOptions(
                promotion=True,
                regalloc=regalloc,
                promotion_options=PromotionOptions(max_promoted_per_loop=8),
            ),
        )
        aware = run_workload(
            "water",
            PipelineOptions(
                promotion=True,
                regalloc=regalloc,
                promotion_options=PromotionOptions(pressure_budget=k),
            ),
        )
        assert promo.output == nopromo.output == throttled.output == aware.output
        rows.append(
            (k, nopromo.counters, promo.counters, throttled.counters,
             aware.counters)
        )
    return rows


def test_a2_register_pressure_sweep(benchmark, out_dir):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    lines = [
        "A2: water under varying register counts (total operations executed)",
        f"{'K':>4} {'no promo':>12} {'promo':>12} {'throttle=8':>12} "
        f"{'pressure-aware':>15} {'promo wins?':>12}",
    ]
    verdicts = {}
    for k, nopromo, promo, throttled, aware in rows:
        wins = promo.total_ops < nopromo.total_ops
        verdicts[k] = wins
        lines.append(
            f"{k:>4} {nopromo.total_ops:>12} {promo.total_ops:>12} "
            f"{throttled.total_ops:>12} {aware.total_ops:>15} "
            f"{str(wins):>12}"
        )
    write_artifact(out_dir, "a2_register_pressure.txt", "\n".join(lines))

    # small register file: spills eat the gains (the paper's loss)
    assert not verdicts[KS[0]], "promotion should lose on a tiny machine"
    # big register file: the 28 accumulators fit and promotion wins
    assert verdicts[KS[-1]], "promotion should win with plenty of registers"

    for k, nopromo, promo, throttled, aware in rows:
        # the static throttle never does worse than full promotion
        assert throttled.total_ops <= promo.total_ops
        # the section 3.4 pressure-aware throttle recovers the loss: it
        # must stay within a whisker of the better of the two baselines
        best_baseline = min(nopromo.total_ops, promo.total_ops)
        assert aware.total_ops <= best_baseline * 1.05, (k, aware.total_ops)
