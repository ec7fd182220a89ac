"""Wrong outputs are counted as failures and never crash a run."""

import shutil

from perfbench.expected import EXPECTED_DIR, load_references, output_problem
from perfbench.workloads import ExecuteHot


def test_references_cover_every_program():
    from repro.workloads import workload_names

    assert set(load_references()) == set(workload_names())


def test_malformed_reference_is_dropped(tmp_path):
    shutil.copytree(EXPECTED_DIR, tmp_path, dirs_exist_ok=True)
    (tmp_path / "fft.txt").write_text("not a reference\n")
    references = load_references(tmp_path)
    assert "fft" not in references
    assert output_problem(references, "fft", 0, "") == "fft: no valid reference output"


def test_corrupted_reference_counts_as_failures(tmp_path):
    shutil.copytree(EXPECTED_DIR, tmp_path, dirs_exist_ok=True)
    mlink = tmp_path / "mlink.txt"
    mlink.write_text(mlink.read_text().replace("1", "2"))
    (tmp_path / "water.txt").write_text("garbage")

    workload = ExecuteHot(seed=0, seconds=0, traced=False, smoke=True)
    workload.setup()
    workload.references = load_references(tmp_path)
    outcome = workload.measure()

    # four variants each of mlink (wrong stdout) and water (no reference)
    assert outcome.failed == 8
    assert outcome.attempted == 16
    assert any("mlink: stdout differs" in problem for problem in outcome.problems)
    assert {"mean_ms", "p50_ms", "tail_ms", "exact_ops"} <= set(outcome.metrics)
