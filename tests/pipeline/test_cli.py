"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

PROGRAM = r"""
int total;
int main(void) {
    int i;
    for (i = 0; i < 10; i++) { total += i; }
    printf("total=%d\n", total);
    return 0;
}
"""


@pytest.fixture()
def c_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return str(path)


class TestRun:
    def test_run_executes_and_prints(self, c_file, capsys):
        code = main(["run", c_file])
        captured = capsys.readouterr()
        assert code == 0
        assert "total=45" in captured.out
        assert "ops=" in captured.err

    def test_run_exit_code_is_programs(self, tmp_path, capsys):
        path = tmp_path / "exit7.c"
        path.write_text("int main(void) { return 7; }")
        assert main(["run", str(path)]) == 7

    def test_variant_flags(self, c_file, capsys):
        code = main(["run", c_file, "--analysis", "pointer", "--no-promotion"])
        assert code == 0
        assert "pointer/nopromo" in capsys.readouterr().err

    def test_missing_file_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "absent.c"
        assert main(["run", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert str(missing) in err
        assert "Traceback" not in err

    def test_malformed_c_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "b.c"
        path.write_text("int main(void){ return x; }")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "b:1:24: undeclared identifier 'x'" in err
        assert "Traceback" not in err


class TestCompare:
    def test_compare_prints_four_variants(self, c_file, capsys):
        assert main(["compare", c_file]) == 0
        out = capsys.readouterr().out
        for variant in (
            "modref/nopromo", "modref/promo", "pointer/nopromo", "pointer/promo"
        ):
            assert variant in out
        assert "total=45" in out

    def test_compare_json_dump(self, c_file, tmp_path, capsys):
        import json

        out = tmp_path / "cells.json"
        assert main(["compare", c_file, "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "modref/nopromo", "modref/promo", "pointer/nopromo", "pointer/promo"
        }
        assert payload["modref/promo"]["counters"]["total_ops"] > 0

    def test_compare_trace_export(self, c_file, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(["compare", c_file, "--trace", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert any(e.get("name") == "promotion" for e in events)
        assert "span" in capsys.readouterr().err


class TestRunProfile:
    def test_profile_prints_hot_loop_table(self, c_file, capsys):
        assert main(["run", c_file, "--profile"]) == 0
        err = capsys.readouterr().err
        assert "visits" in err
        assert "main@" in err

    def test_profile_leaves_stdout_untouched(self, c_file, capsys):
        main(["run", c_file])
        plain = capsys.readouterr().out
        main(["run", c_file, "--profile"])
        profiled = capsys.readouterr().out
        assert profiled == plain


class TestCompareExtras:
    def test_promotion_summary_per_variant(self, c_file, capsys):
        assert main(["compare", c_file]) == 0
        out = capsys.readouterr().out
        assert "promotion summary:" in out
        assert "promotion disabled" in out  # the nopromo rows
        assert "tag(s) promoted" in out
        assert "lifted main@" in out  # `total` lifts out of the loop

    def test_profile_comparison_tables(self, c_file, capsys):
        assert main(["compare", c_file, "--profile"]) == 0
        err = capsys.readouterr().err
        assert "per-loop memory traffic (modref):" in err
        assert "per-loop memory traffic (pointer):" in err
        assert "mem removed" in err


class TestExplain:
    def test_promotion_decision_in_table(self, c_file, capsys):
        assert main(["explain", c_file, "--pass", "promotion"]) == 0
        out = capsys.readouterr().out
        assert "promotion" in out
        assert "total" in out
        assert "promoted" in out

    def test_tag_filter_and_json(self, c_file, capsys):
        import json

        assert main(["explain", c_file, "--tag", "total", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["tag"] == "total"

    def test_no_matches_renders_empty_table(self, c_file, capsys):
        assert main(["explain", c_file, "--tag", "nonesuch"]) == 0
        assert "(no decisions recorded)" in capsys.readouterr().out


class TestVerbosity:
    def test_verbose_before_or_after_subcommand(self, c_file, capsys):
        assert main(["-v", "run", c_file]) == 0
        before = capsys.readouterr().err
        assert "INFO repro.pipeline" in before
        assert main(["run", c_file, "-v"]) == 0
        assert "INFO repro.pipeline" in capsys.readouterr().err

    def test_default_hides_info_logs(self, c_file, capsys):
        assert main(["run", c_file]) == 0
        assert "INFO repro" not in capsys.readouterr().err

    def test_quiet_flag_accepted(self, c_file, capsys):
        assert main(["-q", "run", c_file]) == 0


class TestIR:
    def test_ir_prints_module(self, c_file, capsys):
        assert main(["ir", c_file]) == 0
        out = capsys.readouterr().out
        assert "func main()" in out
        assert "global total" in out

    def test_no_opt_keeps_raw_loads(self, c_file, capsys):
        main(["ir", c_file, "--no-opt"])
        raw = capsys.readouterr().out
        main(["ir", c_file])
        optimized = capsys.readouterr().out
        # the raw form reloads `total` in the loop; the optimized form
        # promotes it, so the loop body loses its sload
        assert raw.count("sload [total]") > optimized.count("sload [total]")


class TestSuite:
    def test_unknown_program_rejected(self, capsys):
        assert main(["suite", "nonesuch"]) == 2
        assert "unknown workloads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "allroots", "--timeout", "5"],
            ["suite", "allroots", "--timeout", "5", "--jobs", "1"],
            ["drift", "baseline.json", "--timeout", "5"],
        ],
    )
    def test_timeout_without_jobs_rejected(self, argv, tmp_path, capsys):
        # an inline cell cannot be preempted: the budget would be ignored
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert "--timeout needs --jobs > 1" in line
        assert not any(tmp_path.iterdir())  # rejected before any work

    def test_single_program(self, capsys):
        assert main(["suite", "allroots", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5: Total Operations" in out

    @pytest.mark.slow
    def test_parallel_jobs_and_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "suite.json"
        code = main(
            ["suite", "allroots", "tsp", "--jobs", "2", "--no-cache",
             "--json", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["jobs"] == 2
        assert set(payload["programs"]) == {"allroots", "tsp"}
        assert "Figure 7: Loads" in capsys.readouterr().out

    def test_cache_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["suite", "allroots", "--cache-dir", cache_dir]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "misses" in cold.err
        assert main(args) == 0
        warm = capsys.readouterr()
        assert "cache: 4 hits" in warm.err
        assert cold.out == warm.out  # byte-identical figures from cache
        assert main(args + ["--clear-cache"]) == 0
        cleared = capsys.readouterr().err
        # 4 result cells plus the per-function entries behind them
        assert "cache cleared (4 cells, " in cleared
        assert " functions)" in cleared

    def test_unwritable_cache_dir_degrades_to_uncached(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("a regular file, so nothing can be created below it")
        args = ["suite", "dhrystone", "--cache-dir", str(blocker / "cache")]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "FAILED" not in err
        cells = [line for line in err.splitlines() if line.startswith("  dhrystone ")]
        assert len(cells) == 4
        assert all(line.endswith("s") for line in cells)  # timed, not cached
        assert "left uncached" in err
        assert "cache: 0 hits, 4 misses" in err

    def test_trace_export(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        code = main(["suite", "allroots", "--no-cache", "--trace", str(out)])
        assert code == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert any(e.get("name") == "promotion" for e in events)

    def test_max_steps_flag_is_enforced(self, capsys):
        # an absurdly small budget must surface as a cell failure, not a
        # crash of the whole suite
        code = main(["suite", "allroots", "--no-cache", "--max-steps", "10"])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAILED" in err
        assert "exceeded 10 executed operations" in err

    def test_pointer_promotion_flag_accepted(self, capsys):
        assert main(["suite", "allroots", "--no-cache",
                     "--pointer-promotion"]) == 0
        assert "Figure 5" in capsys.readouterr().out


class TestUnreadableInputs:
    """A torn span stream or a wrong-schema drift baseline is one
    ``repro: error:`` line naming the file, and exit 2."""

    def _assert_one_error_line(self, capsys, *names):
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "Traceback" not in err
        for name in names:
            assert name in err

    def test_torn_span_line(self, tmp_path, capsys):
        stream = tmp_path / "spans.jsonl"
        whole = json.dumps({
            "name": "request", "start": 0.0, "seconds": 0.1, "depth": 0,
            "self_seconds": 0.1, "args": {}, "trace_id": "t1",
            "span_id": "a-1", "parent_id": None,
        })
        # a server killed mid-append leaves half a line at the end
        stream.write_text(whole + "\n" + whole[:40] + "\n")
        assert main(["trace", "show", str(stream)]) == 2
        self._assert_one_error_line(capsys, f"{stream}:2:")

    def test_span_missing_a_key(self, tmp_path, capsys):
        stream = tmp_path / "spans.jsonl"
        stream.write_text(json.dumps({"name": "request", "start": 0.0}) + "\n")
        assert main(["trace", "show", str(stream)]) == 2
        self._assert_one_error_line(capsys, f"{stream}:1:")

    def test_wrong_schema_drift_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"schema": 999, "cells": {}}))
        code = main([
            "drift", str(baseline), "--programs", "allroots",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 2
        self._assert_one_error_line(capsys, str(baseline), "schema 999")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analysis_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "x.c", "--analysis", "magic"])
