"""Scheduler behaviour: parallel fan-out, graceful degradation, retries,
timeouts, and exact parity with serial execution."""

import pytest

from repro.pipeline import ExperimentCell
from repro.runner.report import run_suite_report
from repro.runner.scheduler import CellFailure, run_cells

from tests.runner.helpers import CRASH_SOURCE, SPIN_SOURCE, make_spec


class TestInline:
    def test_single_cell_succeeds(self):
        spec = make_spec()
        outcomes = run_cells([spec], jobs=1)
        data = outcomes[spec.key]
        assert isinstance(data, ExperimentCell)
        assert data.output == "total=300\n"
        assert data.exit_code == 0
        assert data.counters.total_ops > 0
        # inline execution keeps the IR-bearing compile result
        assert data.compile_result is not None

    def test_crash_degrades_to_failure(self):
        bad = make_spec(workload="crasher", source=CRASH_SOURCE)
        good = make_spec()
        outcomes = run_cells([bad, good], jobs=1, retries=0)
        failure = outcomes[bad.key]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "crash"
        assert "parse error" in failure.message
        assert failure.attempts == 1
        assert outcomes[good.key].ok

    def test_retries_are_bounded(self):
        bad = make_spec(workload="crasher", source=CRASH_SOURCE)
        outcomes = run_cells([bad], jobs=1, retries=2)
        assert outcomes[bad.key].attempts == 3

    def test_duplicate_cells_rejected(self):
        spec = make_spec()
        with pytest.raises(ValueError, match="duplicate"):
            run_cells([spec, spec], jobs=1)

    def test_cells_capture_published_metrics(self):
        spec = make_spec()
        data = run_cells([spec], jobs=1)[spec.key]
        assert data.metrics["interp.total_ops"] == data.counters.total_ops
        assert "promotion.tags_promoted" in data.metrics

    def test_metrics_survive_the_cache_round_trip(self):
        spec = make_spec()
        data = run_cells([spec], jobs=1)[spec.key]
        clone = ExperimentCell.from_cache_payload(spec, data.cache_payload())
        assert clone.metrics == data.metrics
        assert clone.from_cache


class TestPooled:
    def test_crash_does_not_abort_siblings(self):
        bad = make_spec(workload="crasher", source=CRASH_SOURCE)
        good = make_spec()
        outcomes = run_cells([bad, good], jobs=2, retries=1)
        failure = outcomes[bad.key]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "crash"
        assert failure.attempts == 2
        data = outcomes[good.key]
        assert isinstance(data, ExperimentCell)
        assert data.output == "total=300\n"
        # pooled results are slim: no IR crosses the process boundary
        assert data.compile_result is None

    def test_timeout_yields_structured_failure(self):
        # give the spinner several seconds of step fuel (the compiled
        # engine runs ~20M ops/s); the 0.2s budget expires long before
        # and the suite moves on without waiting
        slow = make_spec(
            workload="spinner", source=SPIN_SOURCE, max_steps=200_000_000
        )
        good = make_spec()
        outcomes = run_cells([slow, good], jobs=2, timeout=0.2, retries=1)
        failure = outcomes[slow.key]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "timeout"
        assert "budget" in failure.message
        assert outcomes[good.key].ok

    def test_progress_callback_sees_every_cell(self):
        seen = []
        bad = make_spec(workload="crasher", source=CRASH_SOURCE)
        good = make_spec()
        run_cells(
            [bad, good],
            jobs=2,
            retries=0,
            progress=lambda spec, outcome: seen.append((spec.key, outcome.ok)),
        )
        assert sorted(seen) == [(bad.key, False), (good.key, True)]


class TestSerialParallelParity:
    @pytest.mark.slow
    def test_two_workloads_match_exactly(self):
        names = ["allroots", "dhrystone"]
        serial_report = run_suite_report(names, jobs=1)
        parallel_report = run_suite_report(names, jobs=2)
        assert serial_report.ok and parallel_report.ok
        serial = serial_report.results
        parallel = parallel_report.results
        assert set(serial) == set(parallel)
        for name in names:
            assert set(serial[name].cells) == set(parallel[name].cells)
            for variant, cell in serial[name].cells.items():
                other = parallel[name].cells[variant]
                assert cell.counters == other.counters, (name, variant)
                assert cell.output == other.output
                assert cell.exit_code == other.exit_code
