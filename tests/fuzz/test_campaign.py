"""The campaign driver: budgets, artifacts, and corpus promotion."""

import os

import pytest

from repro.fuzz import CampaignOptions, oracle, run_campaign
from repro.fuzz.oracle import config_with_broken_promotion

#: seed whose program the injected promotion bug miscompiles
MISCOMPILED_SEED = 4

_run_oracle = oracle.run_oracle


def run_oracle_dying_on_seed_1(program, *args, **kwargs):
    """Stand-in for ``oracle.run_oracle`` that the forked workers inherit:
    takes the worker down without a reply on the program of seed 1."""
    if program.seed == 1:
        os._exit(3)
    return _run_oracle(program, *args, **kwargs)


class TestCleanCampaign:
    @pytest.mark.slow
    def test_program_cap_is_exact(self, tmp_path):
        options = CampaignOptions(
            budget_seconds=1e9,
            max_programs=3,
            seed=0,
            artifacts_dir=str(tmp_path / "artifacts"),
        )
        result = run_campaign(options)
        assert result.programs == 3
        assert result.ok == 3
        assert result.divergent == 0
        assert result.exit_code() == 0
        assert result.first_seed == 0 and result.last_seed == 2
        assert "3 program(s)" in result.summary()

    def test_zero_budget_runs_nothing(self, tmp_path):
        options = CampaignOptions(
            budget_seconds=0.0, artifacts_dir=str(tmp_path / "artifacts")
        )
        result = run_campaign(options)
        assert result.programs == 0

    @pytest.mark.slow
    def test_progress_callback_sees_every_report(self, tmp_path):
        seen = []
        options = CampaignOptions(
            budget_seconds=1e9,
            max_programs=2,
            artifacts_dir=str(tmp_path / "artifacts"),
        )
        run_campaign(options, progress=seen.append)
        assert [r.program.seed for r in seen] == [0, 1]


class TestPooledCampaign:
    def test_pooled_reports_equal_inline(self, tmp_path):
        def reports(jobs):
            seen = []
            options = CampaignOptions(
                budget_seconds=1e9,
                max_programs=4,
                jobs=jobs,
                artifacts_dir=str(tmp_path / f"artifacts{jobs}"),
            )
            run_campaign(options, progress=seen.append)
            return [report.as_dict() for report in seen]

        inline = reports(1)
        assert [r["seed"] for r in inline] == [0, 1, 2, 3]
        assert reports(2) == inline

    def test_lost_worker_fails_only_its_program(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oracle, "run_oracle", run_oracle_dying_on_seed_1)
        options = CampaignOptions(
            budget_seconds=1e9,
            max_programs=3,
            jobs=2,
            keep_going=True,
            reduce=False,
            artifacts_dir=str(tmp_path / "artifacts"),
        )
        result = run_campaign(options)
        assert (result.programs, result.ok, result.divergent) == (3, 2, 1)
        [report] = result.divergence_reports
        assert report.program.seed == 1
        [divergence] = report.divergences
        assert divergence.kind == "crash-divergence"
        assert "worker process died" in divergence.message


class TestDivergentCampaign:
    def test_divergence_writes_artifact_and_corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        options = CampaignOptions(
            budget_seconds=1e9,
            max_programs=1,
            seed=MISCOMPILED_SEED,
            reduce=False,
            corpus_dir=str(corpus),
            artifacts_dir=str(tmp_path / "artifacts"),
            oracle=config_with_broken_promotion(),
        )
        result = run_campaign(options)
        assert result.divergent == 1
        assert result.exit_code() == 1
        (artifact,) = result.artifact_dirs
        assert (artifact / "program.c").exists()
        assert (artifact / "report.json").exists()
        promoted = corpus / f"fuzz-{MISCOMPILED_SEED}.c"
        header = promoted.read_text()
        assert header.startswith("/* fuzz-")
        assert f"--seed {MISCOMPILED_SEED}" in header

    @pytest.mark.slow
    def test_stops_at_first_divergence_without_keep_going(self, tmp_path):
        options = CampaignOptions(
            budget_seconds=1e9,
            max_programs=32,
            batch_size=8,
            seed=MISCOMPILED_SEED,
            reduce=False,
            artifacts_dir=str(tmp_path / "artifacts"),
            oracle=config_with_broken_promotion(),
        )
        result = run_campaign(options)
        assert result.divergent == 1
        assert result.programs <= 8  # stopped inside the first batch

    @pytest.mark.slow
    def test_keep_going_collects_several(self, tmp_path):
        options = CampaignOptions(
            budget_seconds=1e9,
            max_programs=8,
            batch_size=8,
            seed=MISCOMPILED_SEED,
            keep_going=True,
            reduce=False,
            artifacts_dir=str(tmp_path / "artifacts"),
            oracle=config_with_broken_promotion(),
        )
        result = run_campaign(options)
        assert result.programs == 8
        # seeds 4, 6, 7, 10 all diverge under the injected bug
        assert result.divergent >= 2
        assert len(result.artifact_dirs) == result.divergent
