"""compare.py flags a regression beyond the bound and passes identical runs."""

import json

from perfbench import compare
from perfbench.metrics import END_TO_END


def _results(path, scale: dict[str, float], smoke: bool = False, workload: str = "compile-cold"):
    runs = []
    for jitter in (0.99, 1.0, 1.01, 1.0, 0.995):
        metrics = {
            name: {"value": 100.0 * jitter * scale.get(name, 1.0), "unit": unit}
            for name, (unit, _, _) in END_TO_END.items()
        }
        metrics["exact_ops"]["value"] = 5000 * scale.get("exact_ops", 1.0)
        metrics["ok_frac"]["value"] = 1.0
        runs.append({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics})
    payload = {
        "seconds": 0.5 if smoke else 15,
        "smoke": smoke,
        "workloads": {workload: {"runs": runs, "traced": None}},
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_identical_inputs_pass(tmp_path, capsys):
    base = _results(tmp_path / "a.json", {})
    again = _results(tmp_path / "b.json", {})
    assert compare.main([base, again]) == 0
    assert "regression" not in capsys.readouterr().out.split("0 regression(s)")[0]


def test_twenty_percent_regression_is_flagged(tmp_path, capsys):
    base = _results(tmp_path / "a.json", {})
    slower = _results(tmp_path / "b.json", {"mean_ms": 1.20})
    assert compare.main([base, slower]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if line.endswith(" regression")]
    assert len(rows) == 1 and "mean_ms" in rows[0]


def test_a_workload_benchmark_json_leaves_out_never_fails_the_compare(tmp_path, capsys):
    base = _results(tmp_path / "a.json", {}, workload="serve-mixed")
    slower = _results(tmp_path / "b.json", {"mean_ms": 1.20}, workload="serve-mixed")
    assert compare.main([base, slower]) == 0
    assert "regression (not gated)" in capsys.readouterr().out


def test_files_made_with_other_settings_are_not_compared(tmp_path):
    base = _results(tmp_path / "a.json", {})
    smoke = _results(tmp_path / "b.json", {}, smoke=True)
    assert compare.main([base, smoke]) == 2


def test_improvement_and_noise():
    assert compare.verdict([10, 10, 10], [8, 8, 8], "lower", 0.1)[1] == "within bound"
    # a baseline spread wider than the bound cannot resolve a small change
    assert compare.verdict([8, 10, 12, 9, 11], [11, 12, 13], "lower", 0.1)[1] == "unresolved"
    # unless every candidate run is better than every baseline run
    assert compare.verdict([8, 10, 12, 9, 11], [5, 6, 7], "lower", 0.1)[1] == "within bound"
    # for a higher-is-better metric, falling is the regression
    assert compare.verdict([1.0, 1.0], [0.9, 0.9], "higher", 0.001)[1] == "regression"
