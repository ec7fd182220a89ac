"""Scheduler behaviour: parallel fan-out, graceful degradation, retries,
timeouts, worker lifecycle, and exact parity with serial execution."""

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.inccomp.store import FunctionStore
from repro.pipeline import ExperimentCell
from repro.runner import scheduler
from repro.runner.report import build_suite_specs, run_suite_report
from repro.runner.scheduler import CellFailure, execute_cell, run_cells
from repro.workloads import get_workload

from tests.runner.helpers import (
    CRASH_SOURCE,
    SPIN_SOURCE,
    execute_cell_killing_killer,
    execute_cell_recording_pid,
    make_spec,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: several seconds of step fuel (the compiled engine runs ~20M ops/s), so
#: only the scheduler's timeout can stop the spinner in time
SPIN_FUEL = 200_000_000


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
        assert "promotion.tags_promoted" in data.metrics
        # dynamic counts live in ``counters`` only
        assert data.counters.total_ops > 0
        assert not any(name.startswith("interp.") for name in data.metrics)

    def test_metrics_survive_the_cache_round_trip(self):
        spec = make_spec()
        data = run_cells([spec], jobs=1)[spec.key]
        clone = ExperimentCell.from_cache_payload(spec, data.cache_payload())
        assert clone.metrics == data.metrics
        assert clone.from_cache


class TestCellMetrics:
    """A cell's metrics are equal however its module was compiled."""

    #: what a fresh dhrystone ``modref/promo`` cell carries
    NAMES = {
        "licm.hoisted", "licm.loads_hoisted",
        "pre.expressions_removed", "pre.loads_removed",
        "promotion.loads_inserted", "promotion.refs_rewritten",
        "promotion.stores_inserted", "promotion.tags_promoted",
        "tagrefine.strengthened", "valuenum.loads_removed",
    }

    @pytest.fixture(scope="class")
    def spec(self):
        [spec] = [
            spec
            for spec in build_suite_specs([get_workload("dhrystone")])
            if spec.variant == "modref/promo"
        ]
        return spec

    @pytest.fixture(scope="class")
    def fresh(self, spec):
        return execute_cell(spec).metrics

    def test_fresh_cell_carries_every_metric(self, fresh):
        assert set(fresh) == self.NAMES
        assert list(fresh) == sorted(fresh)

    def test_shared_compile(self, spec, fresh):
        memo = {}
        first = execute_cell(spec, compile_cache=memo)
        profiled = replace(spec, machine=replace(spec.machine, profile=True))
        second = execute_cell(profiled, compile_cache=memo)
        assert len(memo) == 1
        assert first.metrics == second.metrics == fresh

    def test_warm_function_store(self, spec, fresh):
        store = FunctionStore(None)
        execute_cell(spec, fn_store=store)
        warm = execute_cell(spec, fn_store=store, keep_compile_result=True)
        assert warm.compile_result.fn_cache_misses == 0
        assert warm.compile_result.fn_cache_hits > 0
        assert warm.metrics == fresh

    def test_pooled(self, spec, fresh):
        # three cells on two workers: one worker shares its compile
        specs = [replace(spec, variant=f"copy{index}") for index in range(3)]
        outcomes = run_cells(specs, jobs=2, compile_cache={})
        assert [outcomes[s.key].metrics for s in specs] == [fresh] * 3


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
        assert not data.from_cache

    def test_timeout_yields_structured_failure(self):
        # the 0.2s budget expires long before the spinner's fuel does
        slow = make_spec(workload="spinner", source=SPIN_SOURCE, max_steps=SPIN_FUEL)
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


class TestWorkerLifecycle:
    def test_timed_out_worker_is_dead_and_reaped_on_return(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_TEST_PID_DIR", str(tmp_path))
        monkeypatch.setattr(scheduler, "execute_cell", execute_cell_recording_pid)
        slow = make_spec(workload="spinner", source=SPIN_SOURCE, max_steps=SPIN_FUEL)
        outcomes = run_cells([slow, make_spec()], jobs=2, timeout=0.2)
        assert outcomes[slow.key].kind == "timeout"
        pid = int((tmp_path / "spinner").read_text())
        # signal 0 reaches a live process and an unreaped zombie alike
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_timeout_bounds_process_exit(self):
        script = (
            "from repro.runner.scheduler import run_cells\n"
            "from tests.runner.helpers import SPIN_SOURCE, make_spec\n"
            "slow = make_spec(workload='spinner', source=SPIN_SOURCE,"
            f" max_steps={SPIN_FUEL})\n"
            "run_cells([slow, make_spec()], jobs=2, timeout=0.2)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        ))
        started = time.monotonic()
        subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT, env=env, check=True, capture_output=True, timeout=60,
        )
        assert time.monotonic() - started < 3.0

    @pytest.mark.parametrize("retries", [0, 1])
    def test_dead_worker_charges_only_its_own_cell(self, monkeypatch, retries):
        monkeypatch.setattr(scheduler, "execute_cell", execute_cell_killing_killer)
        killer = make_spec(workload="killer")
        good = [make_spec(workload=f"good{i}") for i in range(4)]
        outcomes = run_cells([killer, *good], jobs=2, retries=retries)
        failure = outcomes[killer.key]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "crash"
        assert "worker process died" in failure.message
        assert failure.attempts == retries + 1
        for spec in good:
            assert outcomes[spec.key].ok, outcomes[spec.key]


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
