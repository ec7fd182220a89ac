"""Result cache: key discipline, hit/miss behaviour, and invalidation."""

import logging
import multiprocessing
import sys
from dataclasses import replace

from repro.interp import MachineOptions
from repro.pipeline import Analysis, ExperimentCell, PipelineOptions
from repro.runner.cache import SCHEMA_VERSION, ResultCache, cell_key
from repro.runner.scheduler import CellFailure, run_cells, spec_cache_key

from tests.runner.helpers import CRASH_SOURCE, GOOD_SOURCE, make_spec


class TestCellKey:
    def test_key_is_deterministic(self):
        a = cell_key(GOOD_SOURCE, {}, PipelineOptions(), MachineOptions())
        b = cell_key(GOOD_SOURCE, {}, PipelineOptions(), MachineOptions())
        assert a == b
        assert len(a) == 64

    def test_key_covers_every_input(self):
        base = cell_key(GOOD_SOURCE, {}, PipelineOptions(), MachineOptions())
        assert base != cell_key(
            GOOD_SOURCE + " ", {}, PipelineOptions(), MachineOptions()
        )
        assert base != cell_key(
            GOOD_SOURCE, {"N": "9"}, PipelineOptions(), MachineOptions()
        )
        assert base != cell_key(
            GOOD_SOURCE,
            {},
            PipelineOptions(analysis=Analysis.POINTER),
            MachineOptions(),
        )
        assert base != cell_key(
            GOOD_SOURCE, {}, PipelineOptions(), MachineOptions(max_steps=7)
        )
        assert base != cell_key(
            GOOD_SOURCE, {}, PipelineOptions(), MachineOptions(), schema_version=99
        )

    def test_key_covers_nested_options(self):
        options = PipelineOptions()
        tweaked = replace(
            options, regalloc=replace(options.regalloc, num_registers=8)
        )
        assert cell_key(GOOD_SOURCE, {}, options, MachineOptions()) != cell_key(
            GOOD_SOURCE, {}, tweaked, MachineOptions()
        )


class TestResultCache:
    def test_warm_run_matches_cold_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cold = run_cells([spec], jobs=1, cache=cache)[spec.key]
        assert not cold.from_cache
        assert cache.misses == 1 and cache.hits == 0

        warm = run_cells([spec], jobs=1, cache=cache)[spec.key]
        assert isinstance(warm, ExperimentCell)
        assert warm.from_cache
        assert cache.hits == 1
        assert warm.counters == cold.counters
        assert warm.output == cold.output
        assert warm.exit_code == cold.exit_code

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = make_spec(workload="crasher", source=CRASH_SOURCE)
        first = run_cells([bad], jobs=1, retries=0, cache=cache)[bad.key]
        assert isinstance(first, CellFailure)
        assert len(cache) == 0
        second = run_cells([bad], jobs=1, retries=0, cache=cache)[bad.key]
        assert isinstance(second, CellFailure)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        run_cells([spec], jobs=1, cache=cache)
        path = cache.path_for(spec_cache_key(spec))
        path.write_text("{ not json")
        again = run_cells([spec], jobs=1, cache=cache)[spec.key]
        assert not again.from_cache
        assert again.ok

    def test_clear_invalidates_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        run_cells([spec], jobs=1, cache=cache)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0
        rerun = run_cells([spec], jobs=1, cache=cache)[spec.key]
        assert not rerun.from_cache

    def test_cache_shared_across_job_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cold = run_cells([spec], jobs=2, cache=cache)[spec.key]
        warm = run_cells([spec], jobs=1, cache=cache)[spec.key]
        assert warm.from_cache
        assert warm.counters == cold.counters


def _hammer(cache: ResultCache, key: str, payload: dict, puts: int) -> None:
    """Put then read back ``puts`` times; exit with the number of raised
    exceptions, torn read-backs and logged warnings (failed or dropped
    entries) seen."""
    problems = []

    class Count(logging.Handler):
        def emit(self, record):
            problems.append(record.getMessage())

    logger = logging.getLogger("repro")
    logger.addHandler(Count(logging.WARNING))
    logger.setLevel(logging.WARNING)
    for _ in range(puts):
        try:
            cache.put(key, payload)
            if cache.get(key) != {"schema": SCHEMA_VERSION, **payload}:
                problems.append("torn read")
        except Exception as error:  # noqa: BLE001 - counting is the test
            problems.append(repr(error))
    sys.exit(min(len(problems), 100))


def test_forked_writers_share_one_key_safely(tmp_path):
    # forked copies of one cache object: the temp-file name must still
    # differ per process and per write
    cache = ResultCache(tmp_path)
    key = spec_cache_key(make_spec())
    payload = {"output": "x" * 200_000, "counters": {"loads": 1}}
    fork = multiprocessing.get_context("fork")
    writers = [
        fork.Process(target=_hammer, args=(cache, key, payload, 150))
        for _ in range(4)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=120)
        if writer.is_alive():  # hung: stop it, and fail on its exit code
            writer.kill()
            writer.join()
    assert [writer.exitcode for writer in writers] == [0, 0, 0, 0]
    assert ResultCache(tmp_path).get(key) == {"schema": SCHEMA_VERSION, **payload}
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [f"{key}.json"]
