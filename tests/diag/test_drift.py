"""The metrics drift gate: comparison semantics and the CLI workflow."""

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.diag.drift import (
    Drift,
    compare_cells,
    format_drift_report,
    load_suite,
    regressions,
)
from repro.runner.report import run_suite_report, write_suite_json

CELL = "prog/modref/promo"
VARIANTS = (
    "modref/nopromo", "modref/promo", "pointer/nopromo", "pointer/promo",
)


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


@pytest.fixture(scope="module")
def allroots_report():
    return run_suite_report(["allroots"])


@pytest.fixture()
def suite_path(tmp_path, allroots_report):
    path = tmp_path / "suite.json"
    write_suite_json(path, allroots_report)
    return path


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
        assert "missing from this run" in format_drift_report(drifts)

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
        assert regressions(compare_cells(base, cur))


class TestBaselineFile:
    """A baseline is a ``suite.json``: a cell's snapshot is its
    ``counters`` merged with its ``metrics``."""

    def test_round_trip(self, suite_path, allroots_report):
        loaded = load_suite(suite_path)
        assert loaded.ok and loaded.programs == ["allroots"]
        assert loaded.cells == {
            f"allroots/{variant}": {**cell.counters.as_dict(), **cell.metrics}
            for (_, variant), cell in allroots_report.outcomes.items()
        }

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"schema": 999, "programs": {}}))
        with pytest.raises(ReproError, match="schema"):
            load_suite(path)

    @pytest.mark.parametrize(
        "metrics", [5, ["total_ops"], {"total_ops": "5"}, {"loads": None}]
    )
    def test_cell_that_is_not_a_metrics_map_rejected(self, suite_path, metrics):
        payload = json.loads(suite_path.read_text())
        payload["programs"]["allroots"]["cells"]["modref/promo"]["counters"] = metrics
        suite_path.write_text(json.dumps(payload))
        with pytest.raises(ReproError) as error:
            load_suite(suite_path)
        assert str(suite_path) in str(error.value)
        assert "allroots/modref/promo" in str(error.value)


class TestFormatting:
    def test_report_sections(self):
        drifts = [
            Drift(CELL, "total_ops", 10.0, 20.0, "regression"),
            Drift(CELL, "loads", 10.0, 5.0, "improvement"),
            Drift(CELL, "licm.hoisted", 1.0, 2.0, "info"),
        ]
        text = format_drift_report(drifts)
        assert "REGRESSIONS" in text
        assert "improvements:" in text
        assert "informational" in text
        assert "+100.00%" in text

    def test_empty_report(self):
        assert "no drift" in format_drift_report([])

    def test_zero_baseline_prints_no_percentage(self):
        # a change from 0 has no relative size: "0 -> 1 (+0.00%)" misled
        drift = Drift(CELL, "promotion.tags_promoted", 0, 1, "improvement")
        assert str(drift) == f"{CELL} promotion.tags_promoted: 0 -> 1"
        assert drift.percent is None


class TestDriftCommand:
    """``repro drift BASELINE CURRENT`` on the cheapest workload's suite."""

    @pytest.fixture()
    def pair(self, suite_path, tmp_path):
        current = tmp_path / "current.json"
        current.write_text(suite_path.read_text())
        return suite_path, current

    @staticmethod
    def edit(path, change):
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))

    def test_clean_rerun_passes(self, pair, capsys):
        assert main(["drift", *map(str, pair)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_regression_fails_the_gate(self, pair, capsys):
        baseline, current = pair

        def one_more_load(payload):
            cell = payload["programs"]["allroots"]["cells"]["modref/promo"]
            cell["counters"]["loads"] += 1

        self.edit(current, one_more_load)
        assert main(["drift", str(baseline), str(current)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out
        assert "allroots/modref/promo loads:" in out

    def test_snapshot_holds_every_counter_and_metric(self, suite_path):
        cells = load_suite(suite_path).cells
        assert set(cells) == {f"allroots/{variant}" for variant in VARIANTS}
        for metrics in cells.values():
            assert metrics["total_ops"] > 0
            assert "copies" in metrics and "licm.hoisted" in metrics
            assert not any(name.startswith("interp.") for name in metrics)

    def test_copies_drift_is_informational(self, pair, capsys):
        baseline, current = pair

        def more_copies(payload):
            cell = payload["programs"]["allroots"]["cells"]["pointer/promo"]
            cell["counters"]["copies"] += 1

        self.edit(current, more_copies)
        assert main(["drift", str(baseline), str(current)]) == 0
        out = capsys.readouterr().out
        assert "informational drift" in out
        assert "allroots/pointer/promo copies:" in out

    def test_current_listing_one_program_compares_only_it(self, pair, capsys):
        baseline, current = pair

        def add_program(payload):
            entry = payload["programs"]["allroots"]
            payload["programs"]["elsewhere"] = json.loads(json.dumps(entry))

        self.edit(baseline, add_program)
        assert main(["drift", str(baseline), str(current)]) == 0
        assert "elsewhere" not in capsys.readouterr().out
        # the other way round, the extra program's cells are new, not gated
        assert main(["drift", str(current), str(baseline)]) == 0
        assert "elsewhere/modref/promo: not in baseline" in capsys.readouterr().out

    def test_failed_program_reports_missing_cell(self, pair, capsys):
        baseline, current = pair

        def crash(payload):
            payload["ok"] = False
            entry = payload["programs"]["allroots"]
            del entry["cells"]["modref/promo"]
            entry["failures"]["modref/promo"] = {
                "kind": "crash", "message": "boom", "attempts": 1,
            }

        self.edit(current, crash)
        assert main(["drift", str(baseline), str(current)]) == 1
        captured = capsys.readouterr()
        assert (
            "allroots/modref/promo: present in baseline, missing from this run"
            in captured.out
        )
        assert "suite itself failed" in captured.err

    def test_missing_baseline_is_one_error_line(self, pair, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["drift", str(missing), str(pair[1])]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("repro: error:") and str(missing) in line

    def test_help_lists_the_two_files_and_logging_flags_only(self, capsys):
        with pytest.raises(SystemExit):
            main(["drift", "--help"])
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == "usage: repro drift [-h] [-v] [-q] baseline current"
