"""A smoke run of every workload, end to end, through the real entry point."""

import json
import subprocess
import sys

import pytest

from perfbench import ROOT, WORK
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.run import WORKLOADS


def _tree(path):
    return sorted(str(p.relative_to(path)) for p in path.rglob("*")) if path.exists() else None


@pytest.mark.slow
def test_smoke_run_reports_every_metric_and_writes_nothing_outside(tmp_path):
    root_before = sorted(p.name for p in ROOT.iterdir())
    cache_before = _tree(ROOT / ".repro-cache")
    out = tmp_path / "smoke.json"

    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )

    assert done.returncode == 0, done.stderr[-2000:]
    payload = json.loads(out.read_text())
    assert set(payload["workloads"]) == set(WORKLOADS)
    for name, entry in payload["workloads"].items():
        (run,) = entry["runs"]
        assert run["correct"] and run["attempted"] >= 1, name
        assert set(run["metrics"]) == set(END_TO_END), name
        assert all(run["metrics"][m]["value"] > 0 for m in END_TO_END), name
        assert set(entry["traced"]["metrics"]) == set(PER_LAYER), name
        for metric in PER_LAYER:
            assert metric in done.stdout, metric
    assert sorted(p.name for p in ROOT.iterdir()) == root_before
    assert _tree(ROOT / ".repro-cache") == cache_before
    assert not WORK.exists() or not any(WORK.iterdir())
