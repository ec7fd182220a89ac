"""The differential oracle: classification rules and end-to-end runs."""

import pytest

from repro.fuzz import generate_program, run_oracle
from repro.fuzz.gen import FuzzProgram
from repro.fuzz.oracle import (
    OracleConfig,
    build_oracle_specs,
    classify_outcomes,
    config_with_broken_promotion,
    make_divergence_predicate,
    o0_options,
    write_divergence_artifact,
)
from repro.interp import Counters
from repro.pipeline import ExperimentCell
from repro.runner.scheduler import CellFailure

#: a seed whose program the unsafe_ignore_call_ambiguity miscompile
#: visibly breaks (a loop stores a global a callee reads)
MISCOMPILED_SEED = 4


def _data(variant, output="x 1\n", exit_code=0, **counter_overrides):
    counters = Counters(
        total_ops=100,
        loads=10,
        stores=5,
        scalar_loads=6,
        general_loads=4,
        scalar_stores=3,
        general_stores=2,
        branches=7,
    )
    for name, value in counter_overrides.items():
        setattr(counters, name, value)
    return ExperimentCell(
        workload="p",
        variant=variant,
        counters=counters,
        exit_code=exit_code,
        output=output,
        seconds=0.0,
    )


def _failure(variant, message="InterpTrap: integer division by zero"):
    return CellFailure(
        workload="p", variant=variant, kind="crash", message=message, attempts=1
    )


def _program():
    return FuzzProgram(seed=-1, source="int main(void) { return 0; }\n")


class TestClassification:
    def test_all_agree_is_ok(self):
        outcomes = {v: _data(v) for v in ("O0+compiled", "O0+simple")}
        report = classify_outcomes(_program(), outcomes)
        assert report.status == "ok"
        assert not report.divergences

    def test_consistent_trap_is_explained(self):
        outcomes = {v: _failure(v) for v in ("O0+compiled", "full+compiled")}
        report = classify_outcomes(_program(), outcomes)
        assert report.status == "trap"
        assert report.ok

    def test_mixed_crash_and_success_diverges(self):
        outcomes = {"O0+compiled": _data("O0+compiled"),
                    "full+compiled": _failure("full+compiled")}
        report = classify_outcomes(_program(), outcomes)
        assert report.status == "divergent"
        assert report.divergences[0].kind == "crash-divergence"

    def test_different_trap_messages_diverge(self):
        outcomes = {
            "O0+compiled": _failure("O0+compiled", "InterpTrap: a"),
            "full+compiled": _failure("full+compiled", "InterpTrap: b"),
        }
        report = classify_outcomes(_program(), outcomes)
        assert report.status == "divergent"
        assert report.divergences[0].kind == "crash-divergence"

    def test_output_mismatch_diverges(self):
        outcomes = {
            "O0+compiled": _data("O0+compiled", output="x 1\n"),
            "full+compiled": _data("full+compiled", output="x 2\n"),
        }
        report = classify_outcomes(_program(), outcomes)
        assert any(d.kind == "output-divergence" for d in report.divergences)

    def test_exit_code_mismatch_diverges(self):
        outcomes = {
            "O0+compiled": _data("O0+compiled", exit_code=0),
            "full+compiled": _data("full+compiled", exit_code=3),
        }
        report = classify_outcomes(_program(), outcomes)
        assert any(d.kind == "output-divergence" for d in report.divergences)

    def test_engine_counter_mismatch_diverges(self):
        outcomes = {
            "full+compiled": _data("full+compiled"),
            "full+simple": _data("full+simple", total_ops=101),
        }
        report = classify_outcomes(_program(), outcomes)
        assert any(d.kind == "engine-divergence" for d in report.divergences)

    def test_engine_divergence_names_the_pair(self):
        outcomes = {
            "full+simple": _data("full+simple"),
            "full+compiled": _data("full+compiled", total_ops=101),
        }
        report = classify_outcomes(_program(), outcomes)
        d = next(
            d for d in report.divergences if d.kind == "engine-divergence"
        )
        assert d.detail["engines"] == ["simple", "compiled"]
        assert d.detail["fields"] == ["total_ops"]
        assert "compiled" in d.message and "simple" in d.message

    def test_counter_invariant_violation_diverges(self):
        outcomes = {"full+compiled": _data("full+compiled", scalar_loads=999)}
        report = classify_outcomes(_program(), outcomes)
        assert any(d.kind == "counter-invariant" for d in report.divergences)

    def test_promotion_traffic_growth_is_advisory(self):
        # more memory ops under "full" than "full-nopromo" warns, not fails
        outcomes = {
            "full-nopromo+compiled": _data(
                "full-nopromo+compiled", loads=4, stores=2,
                scalar_loads=2, general_loads=2,
                scalar_stores=1, general_stores=1,
            ),
            "full+compiled": _data("full+compiled"),
        }
        report = classify_outcomes(_program(), outcomes)
        assert report.status == "ok"
        assert report.warnings


class TestEndToEnd:
    def test_specs_cover_the_matrix(self):
        config = OracleConfig()
        specs = build_oracle_specs("p", "int main(void){return 0;}", config)
        assert len(specs) == len(config.levels) * len(config.engines)
        assert all(spec.options.verify_each_stage for spec in specs)

    def test_matrix_includes_both_engines(self):
        config = OracleConfig()
        assert set(config.engines) == {"simple", "compiled"}
        specs = build_oracle_specs("p", "int main(void){return 0;}", config)
        variants = {spec.variant for spec in specs}
        for level in config.levels:
            for engine in config.engines:
                assert f"{level}+{engine}" in variants

    def test_o0_disables_everything(self):
        options = o0_options()
        assert not options.promotion
        assert not options.optimize
        assert options.verify_each_stage

    def test_clean_seed_passes(self):
        report = run_oracle(generate_program(0))
        assert report.status == "ok", [d.message for d in report.divergences]

    @pytest.mark.slow
    def test_injected_miscompile_is_caught(self):
        program = generate_program(MISCOMPILED_SEED)
        report = run_oracle(program, config_with_broken_promotion())
        assert report.status == "divergent"
        assert any(
            d.kind == "output-divergence" for d in report.divergences
        )
        # and the same program is clean under the correct pipeline
        assert run_oracle(program).status == "ok"

    def test_decisions_speak_the_diag_vocabulary(self):
        report = run_oracle(generate_program(0))
        decisions = report.decisions()
        assert decisions[0].pass_name == "fuzz.oracle"
        assert decisions[0].action == "passed"

    @pytest.mark.slow
    def test_divergence_artifact_layout(self, tmp_path):
        program = generate_program(MISCOMPILED_SEED)
        report = run_oracle(program, config_with_broken_promotion())
        target = write_divergence_artifact(
            report, tmp_path, reduced_source="int main(void){return 1;}\n"
        )
        assert (target / "program.c").read_text() == program.source
        assert (target / "reduced.c").exists()
        assert '"status": "divergent"' in (target / "report.json").read_text()


class TestPredicate:
    def test_predicate_rejects_invalid_c(self):
        predicate = make_divergence_predicate()
        assert predicate("this is not C") is False

    def test_predicate_rejects_clean_program(self):
        predicate = make_divergence_predicate()
        assert predicate(generate_program(0).source) is False

    @pytest.mark.slow
    def test_predicate_accepts_miscompiled_program(self):
        predicate = make_divergence_predicate(
            config_with_broken_promotion(), kind="output-divergence"
        )
        assert predicate(generate_program(MISCOMPILED_SEED).source) is True
