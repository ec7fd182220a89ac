"""The metrics drift gate: comparison semantics and the CLI workflow."""

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.diag.drift import (
    Drift,
    compare_cells,
    format_drift_report,
    load_baseline,
    regressions,
    write_baseline,
)

CELL = "prog/modref/promo"


def snapshot(**overrides):
    base = {
        "total_ops": 1000.0,
        "loads": 100.0,
        "stores": 50.0,
        "promotion.tags_promoted": 3.0,
        "licm.hoisted": 7.0,
    }
    base.update(overrides)
    return {CELL: base}


class TestCompareCells:
    def test_identical_snapshots_have_no_drift(self):
        assert compare_cells(snapshot(), snapshot()) == []

    def test_more_dynamic_ops_is_a_regression(self):
        drifts = compare_cells(snapshot(), snapshot(total_ops=1100.0))
        [drift] = drifts
        assert drift.kind == "regression"
        assert drift.metric == "total_ops"
        assert regressions(drifts) == drifts

    def test_fewer_dynamic_ops_is_an_improvement(self):
        [drift] = compare_cells(snapshot(), snapshot(loads=90.0))
        assert drift.kind == "improvement"
        assert not regressions([drift])

    def test_losing_promotions_is_a_regression(self):
        [drift] = compare_cells(
            snapshot(), snapshot(**{"promotion.tags_promoted": 1.0})
        )
        assert drift.kind == "regression"

    def test_gaining_promotions_is_an_improvement(self):
        [drift] = compare_cells(
            snapshot(), snapshot(**{"promotion.tags_promoted": 5.0})
        )
        assert drift.kind == "improvement"

    def test_ungated_metrics_are_informational_only(self):
        [drift] = compare_cells(snapshot(), snapshot(**{"licm.hoisted": 99.0}))
        assert drift.kind == "info"
        assert not regressions([drift])

    def test_tolerance_absorbs_small_regressions(self):
        worse = snapshot(total_ops=1009.0)
        assert regressions(compare_cells(snapshot(), worse, tolerance_pct=1.0)) == []
        much_worse = snapshot(total_ops=1011.0)
        assert regressions(compare_cells(snapshot(), much_worse, tolerance_pct=1.0))

    def test_missing_cell_fails_the_gate(self):
        drifts = compare_cells(snapshot(), {})
        [drift] = drifts
        assert drift.kind == "missing-cell"
        assert regressions(drifts) == drifts

    @pytest.mark.parametrize(
        "metric", ["total_ops", "promotion.tags_promoted"]
    )
    def test_missing_gated_metric_fails_the_gate(self, metric):
        current = snapshot()
        del current[CELL][metric]
        drifts = compare_cells(snapshot(), current)
        [drift] = drifts
        assert drift.kind == "missing-metric"
        assert drift.metric == metric
        assert regressions(drifts) == drifts
        assert "missing from this run" in format_drift_report(drifts, 0.0)

    def test_missing_ungated_metric_is_not_gated(self):
        current = snapshot()
        del current[CELL]["licm.hoisted"]
        assert compare_cells(snapshot(), current) == []

    def test_new_cell_is_reported_but_not_gated(self):
        current = dict(snapshot(), **{"other/modref/promo": {"total_ops": 1.0}})
        kinds = {d.kind for d in compare_cells(snapshot(), current)}
        assert kinds == {"new-cell"}
        assert not regressions(compare_cells(snapshot(), current))

    def test_zero_baseline_only_matches_zero(self):
        base = {CELL: {"total_ops": 0.0}}
        cur = {CELL: {"total_ops": 1.0}}
        assert regressions(compare_cells(base, cur, tolerance_pct=50.0))


class TestBaselineFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, snapshot())
        assert load_baseline(path) == snapshot()

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": 999, "cells": {}}))
        with pytest.raises(ReproError, match="schema"):
            load_baseline(path)

    @pytest.mark.parametrize(
        "metrics", [5, ["total_ops"], {"total_ops": "5"}, {"loads": None}]
    )
    def test_cell_that_is_not_a_metrics_map_rejected(self, tmp_path, metrics):
        path = tmp_path / "baseline.json"
        cells = {"dhrystone/modref/nopromo": {"total_ops": 1},
                 "dhrystone/modref/promo": metrics}
        path.write_text(json.dumps({"schema": 1, "cells": cells}))
        with pytest.raises(ReproError) as error:
            load_baseline(path)
        assert str(path) in str(error.value)
        assert "dhrystone/modref/promo" in str(error.value)


class TestFormatting:
    def test_report_sections(self):
        drifts = [
            Drift(CELL, "total_ops", 10.0, 20.0, "regression"),
            Drift(CELL, "loads", 10.0, 5.0, "improvement"),
            Drift(CELL, "licm.hoisted", 1.0, 2.0, "info"),
        ]
        text = format_drift_report(drifts, 0.0)
        assert "REGRESSIONS" in text
        assert "improvements:" in text
        assert "informational" in text
        assert "+100.00%" in text

    def test_empty_report(self):
        assert "no drift" in format_drift_report([], 0.0)


class TestDriftCommand:
    """End-to-end CLI workflow on the cheapest workload."""

    @pytest.fixture()
    def baselined(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        flags = ["--programs", "allroots",
                 "--cache-dir", str(tmp_path / "cache")]
        assert main(["drift", str(baseline), "--update"] + flags) == 0
        return baseline, flags

    def test_update_writes_all_cells(self, baselined, capsys):
        baseline, _ = baselined
        cells = load_baseline(baseline)
        assert set(cells) == {
            "allroots/modref/nopromo", "allroots/modref/promo",
            "allroots/pointer/nopromo", "allroots/pointer/promo",
        }
        for metrics in cells.values():
            assert metrics["total_ops"] > 0
            assert "licm.hoisted" in metrics
            assert not any(name.startswith("interp.") for name in metrics)

    def test_partial_update_keeps_other_programs(self, baselined, capsys):
        baseline, flags = baselined
        payload = json.loads(baseline.read_text())
        other = {"total_ops": 1.0, "loads": 1.0, "stores": 1.0}
        payload["cells"]["elsewhere/modref/promo"] = other
        payload["cells"]["allroots/modref/promo"]["total_ops"] -= 10
        payload["cells"]["allroots/gone/promo"] = other
        baseline.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["drift", str(baseline), "--update"] + flags) == 0
        assert "(4 of 5 cells)" in capsys.readouterr().out
        cells = load_baseline(baseline)
        assert cells["elsewhere/modref/promo"] == other
        assert "allroots/gone/promo" not in cells
        assert len(cells) == 5
        assert main(["drift", str(baseline)] + flags) == 0

    def test_clean_rerun_passes(self, baselined, capsys):
        baseline, flags = baselined
        capsys.readouterr()
        assert main(["drift", str(baseline)] + flags) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_regression_fails_the_gate(self, baselined, capsys):
        baseline, flags = baselined
        payload = json.loads(baseline.read_text())
        payload["cells"]["allroots/modref/promo"]["total_ops"] -= 10
        baseline.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["drift", str(baseline)] + flags) == 1
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_tolerance_flag_reaches_the_gate(self, baselined, capsys):
        baseline, flags = baselined
        payload = json.loads(baseline.read_text())
        payload["cells"]["allroots/modref/promo"]["total_ops"] -= 1
        baseline.write_text(json.dumps(payload))
        assert main(["drift", str(baseline), "--tolerance", "50"] + flags) == 0

    def test_missing_baseline_hints_at_update(self, tmp_path, capsys):
        code = main(["drift", str(tmp_path / "nope.json"),
                     "--programs", "allroots",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert "--update" in capsys.readouterr().err

    def test_unknown_program_rejected(self, tmp_path, capsys):
        assert main(["drift", str(tmp_path / "b.json"),
                     "--programs", "nonesuch"]) == 2
