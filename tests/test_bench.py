"""Tests for the interpreter benchmark (``repro bench``) and the helpers
every bench shares."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    QUICK_PROGRAMS,
    bench_payload,
    percentile_summary,
    write_bench_json,
)
from repro.bench.interp import (
    BENCH_SCHEMA,
    ENGINE_PAIRS,
    ENGINES,
    bench_interpreters,
    check_regression,
    format_bench,
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


class TestBaselineMustBeAnInterpPayload:
    """A baseline without ``summary.speedups`` pairs would gate nothing
    and report "no regression"; it is rejected as unreadable instead."""

    def test_check_regression_rejects_a_pairless_baseline(self):
        current = {"summary": {"speedups": {"compiled_vs_simple": {"geomean": 9.0}}}}
        for baseline in ({}, {"summary": {}}, {"speedup": {"incremental": 3.0}}):
            with pytest.raises(ValueError, match="summary.speedups"):
                check_regression(current, baseline, tolerance_pct=25.0)

    def test_cli_rejects_compile_and_serve_payloads_before_the_run(
        self, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_interp.json"
        for name, payload in (
            ("BENCH_compile.json", {"schema": 1, "speedup": {"incremental": 3.0},
                                    "all_identical": True}),
            ("BENCH_serve.json", {"schema": 2, "totals": {"ok": 10}}),
        ):
            baseline = tmp_path / name
            baseline.write_text(json.dumps(payload))
            code = main([
                "bench", "fft", "--repeats", "1", "--out", str(out),
                "--baseline", str(baseline),
            ])
            assert code == 2
            err = capsys.readouterr().err
            assert str(baseline) in err and "no regression" not in err
            assert not out.exists()  # rejected before anything ran


class TestBenchFlags:
    def test_compile_honours_an_explicit_out(self, tmp_path, monkeypatch):
        # the interpreter bench's default name, given explicitly
        monkeypatch.chdir(tmp_path)
        code = main([
            "bench", "--compile", "dhrystone", "--min-speedup", "0",
            "--out", "BENCH_interp.json",
        ])
        assert code == 0
        written = json.loads((tmp_path / "BENCH_interp.json").read_text())
        assert "all_identical" in written
        assert not (tmp_path / "BENCH_compile.json").exists()

    def test_each_mode_writes_its_own_default_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--compile", "dhrystone", "--min-speedup", "0"]) == 0
        payload = json.loads((tmp_path / "BENCH_compile.json").read_text())
        assert {"schema", "host", "speedup", "all_identical"} <= set(payload)
        assert not (tmp_path / "BENCH_interp.json").exists()
        assert main(["bench", "fft", "--repeats", "1"]) == 0
        assert "summary" in json.loads((tmp_path / "BENCH_interp.json").read_text())

    def test_flags_the_mode_does_not_use_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "b.json")
        for argv, flag in (
            (["--compile", "--baseline", "BENCH_interp.json"], "--baseline"),
            (["--compile", "--tolerance", "10"], "--tolerance"),
            (["--compile", "--repeats", "3"], "--repeats"),
            (["--compile", "--max-steps", "1000"], "--max-steps"),
            (["--min-speedup", "2"], "--min-speedup"),
        ):
            assert main(["bench", "fft", "--out", out, *argv]) == 2
            err = capsys.readouterr().err
            assert flag in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "b.json").exists()


def test_every_payload_starts_with_schema_and_host():
    payload = bench_payload(7, programs={})
    assert list(payload) == ["schema", "host", "programs"]
    assert payload["schema"] == 7 and "python" in payload["host"]


def test_percentile_summary_is_nearest_rank_and_scaled():
    assert percentile_summary([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0}
    summary = percentile_summary([0.004, 0.001, 0.002, 0.003], scale=1000)
    assert summary == {"p50": 3.0, "p95": 4.0, "p99": 4.0, "mean": 2.5}
