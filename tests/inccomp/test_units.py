"""Unit tests for the `repro.inccomp` building blocks: the function
store's memory-only configuration (the mechanics both stores share are
in tests/test_store.py), key-digest invariants the property tests don't
reach, the edit helper, and the bench gate."""

from __future__ import annotations

import pytest

from repro.frontend import compile_c
from repro.inccomp import (
    EDIT_MARKER,
    FunctionRecord,
    FunctionStore,
    function_digest,
    list_functions,
    module_env_digest,
    mutate_function,
)
from repro.bench.compile import (
    bench_compile,
    check_compile_gate,
    format_compile_bench,
)

TINY = (
    "int add(int a, int b) {\n    return a + b;\n}\n"
    "int main(void) {\n    return add(1, 2) - 3;\n}\n"
)


def make_record(name: str = "add") -> FunctionRecord:
    module = compile_c(TINY, name="tiny")
    return FunctionRecord(function=module.functions[name], seconds=0.01)


# ---------------------------------------------------------------------------
# FunctionStore
# ---------------------------------------------------------------------------

class TestFunctionStore:
    def test_miss_counts(self):
        store = FunctionStore(root=None)
        assert store.get("absent") is None
        assert (store.hits, store.misses) == (0, 1)

    def test_disk_roundtrip_survives_new_store_instance(self, tmp_path):
        FunctionStore(root=tmp_path).put("aa11", make_record())
        fresh = FunctionStore(root=tmp_path)
        record = fresh.get("aa11")
        assert record is not None
        assert fresh.path_for("aa11").exists()
        assert fresh.path_for("aa11").parent.name == "aa"

    def test_memory_only_store_has_no_paths(self):
        with pytest.raises(ValueError):
            FunctionStore(root=None).path_for("deadbeef")

    def test_clear_on_empty_roots(self, tmp_path):
        assert FunctionStore(root=None).clear() == 0
        assert FunctionStore(root=tmp_path / "never-made").clear() == 0
        assert len(FunctionStore(root=tmp_path / "never-made")) == 0


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

class TestKeys:
    def test_function_digest_is_deterministic_across_compiles(self):
        a = compile_c(TINY, name="one").functions["add"]
        b = compile_c(TINY, name="two").functions["add"]
        assert function_digest(a) == function_digest(b)

    def test_module_env_digest_ignores_module_name(self):
        a = module_env_digest(compile_c(TINY, name="one"))
        b = module_env_digest(compile_c(TINY, name="two"))
        assert a == b

    def test_module_env_digest_sees_global_initializers(self):
        a = module_env_digest(compile_c("int g = 1;" + TINY, name="m"))
        b = module_env_digest(compile_c("int g = 2;" + TINY, name="m"))
        assert a != b


# ---------------------------------------------------------------------------
# edits
# ---------------------------------------------------------------------------

class TestEdits:
    def test_list_functions_in_order(self):
        assert list_functions(TINY) == ["add", "main"]

    def test_default_edit_picks_first_non_main(self):
        edited, name = mutate_function(TINY)
        assert name == "add"
        assert EDIT_MARKER in edited
        assert edited.count(EDIT_MARKER) == 1
        # everything else untouched
        assert edited.replace(f"    {EDIT_MARKER}\n", "") == TINY

    def test_named_edit(self):
        edited, name = mutate_function(TINY, "main")
        assert name == "main"
        assert edited.index(EDIT_MARKER) > edited.index("main")

    def test_unknown_function_raises(self):
        with pytest.raises(ValueError, match="no function named"):
            mutate_function(TINY, "absent")

    def test_sourceless_input_raises(self):
        with pytest.raises(ValueError, match="no function definitions"):
            mutate_function("int x;\n")

    def test_edited_program_still_compiles_identically_elsewhere(self):
        edited, _ = mutate_function(TINY, "add")
        module = compile_c(edited, name="tiny")
        assert set(module.functions) == {"add", "main"}


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

class TestBench:
    def test_small_bench_run(self):
        payload = bench_compile(names=["dhrystone"])
        assert payload["schema"] == 1
        assert [p["name"] for p in payload["programs"]] == ["dhrystone"]
        row = payload["programs"][0]
        assert row["identical"] is True
        assert row["incremental_misses"] == 1
        assert row["incremental_hits"] == row["functions"] - 1
        assert payload["all_identical"] is True
        assert payload["speedup"]["incremental"] > 0
        table = format_compile_bench(payload)
        assert "dhrystone" in table and "speedup vs scratch" in table

    def test_gate_passes_on_good_payload(self):
        payload = {
            "programs": [{"name": "x", "identical": True}],
            "all_identical": True,
            "speedup": {"incremental": 2.5},
        }
        assert check_compile_gate(payload) == []

    def test_gate_flags_slow_and_divergent(self):
        payload = {
            "programs": [{"name": "x", "identical": False}],
            "all_identical": False,
            "speedup": {"incremental": 1.2},
        }
        problems = check_compile_gate(payload, min_speedup=2.0)
        assert len(problems) == 2
        assert any("differs" in p for p in problems)
        assert any("below" in p for p in problems)
