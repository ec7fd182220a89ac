"""Suite reports: aggregation into figure shapes, graceful degradation of
a whole suite run, and the suite.json serialization."""

import json

import pytest

from repro.harness import figure_rows, format_figure
from repro.interp import Counters
from repro.pipeline import ExperimentCell
from repro.runner.report import (
    SuiteReport,
    collect_results,
    run_suite_report,
    write_suite_json,
)
from repro.workloads import Workload, register
from repro.workloads.base import _REGISTRY

from tests.runner.helpers import CRASH_SOURCE


@pytest.fixture()
def crashing_workload():
    workload = register(
        Workload(
            name="crasher",
            description="always fails to parse (test injection)",
            source=CRASH_SOURCE,
        )
    )
    yield workload
    _REGISTRY.pop("crasher", None)


class TestSuiteReport:
    @pytest.mark.slow
    def test_small_suite_is_ok(self):
        report = run_suite_report(["allroots", "tsp"], jobs=1)
        assert report.ok
        assert report.exit_code() == 0
        assert sorted(report.results) == ["allroots", "tsp"]
        assert not report.failures
        rows = figure_rows(report.results, "total_ops")
        assert {row.program for row in rows} == {"allroots", "tsp"}

    @pytest.mark.slow
    def test_results_preserve_requested_order(self):
        report = run_suite_report(["tsp", "allroots"], jobs=1)
        assert list(report.results) == ["tsp", "allroots"]

    def test_injected_crash_degrades_gracefully(self, crashing_workload):
        report = run_suite_report(["allroots", "crasher"], jobs=2, retries=0)
        # the healthy program still produced its full matrix...
        assert "allroots" in report.results
        # ...the crasher yielded structured failures, one per variant
        assert {f.workload for f in report.failures} == {"crasher"}
        assert len(report.failures) == 4
        assert all(f.kind == "crash" for f in report.failures)
        assert report.exit_code() == 1
        # and the figure tables render without the crashed program
        table = format_figure(report.results, "total_ops")
        assert "allroots" in table
        assert "crasher" not in table

    def test_inline_run_keeps_compile_results(self):
        report = run_suite_report(["allroots"])
        cell = report.results["allroots"].cells["modref/promo"]
        assert cell.compile_result is not None
        assert cell.compile_result.promotion_reports

    def test_suite_json_shape(self, tmp_path, crashing_workload):
        report = run_suite_report(["allroots", "crasher"], jobs=1, retries=0)
        path = tmp_path / "suite.json"
        write_suite_json(path, report)
        payload = json.loads(path.read_text())
        assert payload["ok"] is False
        assert payload["jobs"] == 1
        assert "allroots" in payload["programs"]
        cells = payload["programs"]["allroots"]["cells"]
        assert set(cells) == {
            "modref/nopromo", "modref/promo", "pointer/nopromo", "pointer/promo"
        }
        for cell in cells.values():
            assert cell["counters"]["total_ops"] > 0
            assert cell["exit_code"] == 0
            # cells carry the metrics snapshot the drift gate consumes
            assert cell["metrics"]["interp.total_ops"] == (
                cell["counters"]["total_ops"]
            )
        crash = payload["programs"]["crasher"]["failures"]["modref/promo"]
        assert crash["kind"] == "crash"
        assert crash["attempts"] == 1
        for metric in ("total_ops", "stores", "loads"):
            rows = payload["figures"][metric]
            assert {row["program"] for row in rows} == {"allroots"}
            for row in rows:
                assert row["difference"] == row["without"] - row["with"]

    def test_trace_groups_from_parallel_run(self):
        report = run_suite_report(["allroots"], jobs=2, collect_trace=True)
        groups = report.trace_groups()
        assert set(groups) == {
            f"allroots:{v}"
            for v in (
                "modref/nopromo", "modref/promo", "pointer/nopromo",
                "pointer/promo",
            )
        }
        for events in groups.values():
            assert any(event.name == "promotion" or event.name == "licm"
                       for event in events)


class TestDisagreement:
    @staticmethod
    def _cell(variant, output):
        return ExperimentCell(
            variant=variant,
            counters=Counters(total_ops=10, loads=2, stores=1),
            exit_code=0,
            output=output,
            workload="prog",
        )

    def test_divergent_output_fails_the_suite(self):
        outputs = {
            "modref/nopromo": "x=1\n",
            "modref/promo": "x=2\n",
            "pointer/nopromo": "x=1\n",
            "pointer/promo": "x=1\n",
        }
        outcomes = {
            ("prog", variant): self._cell(variant, output)
            for variant, output in outputs.items()
        }
        results, failures, disagreements = collect_results(outcomes)
        assert disagreements == [
            "prog: variant modref/promo diverged from modref/nopromo: "
            "exit 0 vs 0"
        ]
        assert not failures
        # the cells are the scheduler's own records, not copies
        assert results["prog"].cells["modref/promo"] is outcomes[
            ("prog", "modref/promo")
        ]
        report = SuiteReport(
            results=results,
            failures=failures,
            disagreements=disagreements,
            outcomes=outcomes,
        )
        assert report.ok is False
        assert report.exit_code() != 0
        assert report.to_dict()["disagreements"] == disagreements
