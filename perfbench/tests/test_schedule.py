"""The seed alone decides every order, choice and cold position."""

import pytest

from perfbench.workloads import workload_classes


def _schedules(seed: int) -> dict:
    schedules = {}
    for name, cls in workload_classes().items():
        workload = cls(seed=seed, seconds=10, traced=False)
        schedules[name] = [workload.schedule(0), workload.schedule(1)]
    return schedules


def test_same_seed_same_schedule_other_seed_other_schedule():
    first, again, other = _schedules(3), _schedules(3), _schedules(4)
    for name in first:
        assert first[name] == again[name], name
        assert first[name] != other[name], name


@pytest.mark.parametrize("seed", [0, 1])
def test_every_pass_does_the_same_work(seed):
    for name, cls in workload_classes().items():
        workload = cls(seed=seed, seconds=10, traced=False)
        first, second = workload.schedule(0), workload.schedule(1)
        assert sorted(first) == sorted(second), name


def test_serve_mix_sends_every_fiftieth_request_cold():
    cls = workload_classes()["serve-mixed"]
    requests = cls(seed=0, seconds=10, traced=False).schedule()
    assert len(requests) == 1000
    cold_at = [index for index, (*_, cold) in enumerate(requests) if cold]
    assert len(cold_at) == 20
    assert {b - a for a, b in zip(cold_at, cold_at[1:])} == {50}
    hits = [(program, variant) for program, variant, cold in requests if not cold]
    counts = {cell: hits.count(cell) for cell in set(hits)}
    assert max(counts.values()) - min(counts.values()) <= 1
