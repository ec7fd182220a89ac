"""Tests for the interpreter benchmark (``repro bench``)."""

from __future__ import annotations

import json

from repro.bench import (
    BENCH_SCHEMA,
    ENGINE_PAIRS,
    ENGINES,
    QUICK_PROGRAMS,
    bench_interpreters,
    check_regression,
    format_bench,
    write_bench_json,
)
from repro.cli import main
from repro.workloads import workload_names


def test_payload_schema_and_equivalence():
    payload = bench_interpreters(["fft"], repeats=1)
    assert payload["schema"] == BENCH_SCHEMA
    entry = payload["programs"]["fft"]
    for engine in ENGINES:
        cell = entry[engine]
        assert set(cell) == {
            "wall_s", "total_ops", "ops_per_sec", "engine", "speedup_vs_simple"
        }
        assert cell["engine"] == engine
        assert cell["wall_s"] > 0
        assert cell["ops_per_sec"] > 0
    # both engines executed the identical op stream
    assert entry["simple"]["total_ops"] == entry["compiled"]["total_ops"]
    assert entry["simple"]["speedup_vs_simple"] == 1.0
    summary = payload["summary"]
    assert summary["programs"] == 1
    # the per-pair summary covers the one engine pair
    assert set(summary["speedups"]) == {
        f"{num}_vs_{den}" for num, den in ENGINE_PAIRS
    } == {"compiled_vs_simple"}
    for cell in summary["speedups"].values():
        assert {"geomean", "min", "max"} <= set(cell)
    assert (
        summary["speedups"]["compiled_vs_simple"]["geomean"]
        == entry["compiled"]["speedup_vs_simple"]
    )
    for engine in ENGINES:
        assert summary[f"total_wall_{engine}_s"] > 0


def test_quick_subset_is_valid():
    assert set(QUICK_PROGRAMS) <= set(workload_names())


def test_write_bench_json(tmp_path):
    payload = {"schema": BENCH_SCHEMA, "programs": {}, "summary": {}}
    path = tmp_path / "BENCH_interp.json"
    write_bench_json(path, payload)
    assert json.loads(path.read_text()) == payload


def test_format_bench_renders_summary():
    payload = bench_interpreters(["fft"], repeats=1)
    table = format_bench(payload)
    assert "geomean speedup" in table
    assert "fft" in table
    assert "compiled vs simple" in table


class TestRegressionGate:
    def _payload(self, **geomeans) -> dict:
        return {
            "summary": {
                "speedups": {
                    pair: {"geomean": value, "min": value, "max": value}
                    for pair, value in geomeans.items()
                }
            }
        }

    def test_no_regression_within_tolerance(self):
        baseline = self._payload(compiled_vs_simple=12.0)
        current = self._payload(compiled_vs_simple=11.0)
        assert check_regression(current, baseline, tolerance_pct=25.0) == []

    def test_regression_past_tolerance_fails_per_pair(self):
        baseline = self._payload(compiled_vs_simple=12.0, other_vs_simple=2.0)
        current = self._payload(compiled_vs_simple=6.0, other_vs_simple=2.0)
        failures = check_regression(current, baseline, tolerance_pct=25.0)
        assert len(failures) == 1
        assert "compiled_vs_simple" in failures[0]

    def test_missing_pair_in_current_is_skipped(self):
        baseline = self._payload(retired_vs_simple=2.0)
        current = self._payload(compiled_vs_simple=12.0)
        assert check_regression(current, baseline, tolerance_pct=25.0) == []


def test_cli_bench_writes_json(tmp_path, capsys):
    out = tmp_path / "BENCH_interp.json"
    code = main(["bench", "fft", "--repeats", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert "fft" in payload["programs"]
    assert "geomean speedup" in capsys.readouterr().out


def test_cli_bench_gates_against_baseline(tmp_path, capsys):
    out = tmp_path / "BENCH_interp.json"
    baseline = tmp_path / "baseline.json"
    # an impossible baseline: the compiled tier would need a 1000x geomean
    baseline.write_text(json.dumps({
        "summary": {"speedups": {"compiled_vs_simple": {"geomean": 1000.0}}}
    }))
    code = main([
        "bench", "fft", "--repeats", "1", "--out", str(out),
        "--baseline", str(baseline), "--tolerance", "25",
    ])
    assert code == 1
    assert "bench regression" in capsys.readouterr().err

    # a trivially satisfiable baseline passes
    baseline.write_text(json.dumps({
        "summary": {"speedups": {"compiled_vs_simple": {"geomean": 0.001}}}
    }))
    code = main([
        "bench", "fft", "--repeats", "1", "--out", str(out),
        "--baseline", str(baseline), "--tolerance", "25",
    ])
    assert code == 0
    assert "no regression" in capsys.readouterr().err


def test_cli_bench_rejects_unknown_workload(tmp_path):
    assert main(["bench", "nosuch", "--out", str(tmp_path / "b.json")]) == 2
