"""BENCHMARK.json and the code that produces its metrics agree."""

import json

from perfbench import ROOT
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.run import BENCHMARK_WORKLOADS, DEFAULT_SECONDS, WORKLOADS


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["run_seconds"] == DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARK_WORKLOADS)
    assert set(BENCHMARK_WORKLOADS) <= set(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert all(0 <= m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
