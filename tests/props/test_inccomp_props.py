"""Property tests for the incremental-compilation cache keys.

Three properties, per the key's contract (`repro.inccomp.keys`):

1. **Soundness** — same key ⇒ byte-identical optimized body, across
   independent stores and across a population of generated programs.
2. **Invalidation precision** — a summary-neutral edit to one function
   changes only that function's key; a summary-*changing* edit changes
   the keys of the edited function and its transitive callers, and of
   nothing else.
3. **Options sensitivity** — any change to pipeline options changes
   every function's key.
"""

from __future__ import annotations

import enum
from dataclasses import fields, is_dataclass, replace

import pytest

from repro.frontend import compile_c
from repro.inccomp import (
    FunctionStore,
    function_digest,
    function_key,
    module_env_digest,
    mutate_function,
    options_digest,
)
from repro.ir.printer import format_function, format_module
from repro.pipeline import (
    PipelineOptions,
    compile_module,
    compile_source,
)

#: main -> outer -> inner, with `bystander` unreachable from the chain.
#: `inner` reads and writes global `g`, so its MOD/REF summary is what
#: callers' printed call sites embed.
CHAIN_SOURCE = """
int g;
int data[16];

int inner(int x) {
    int i;
    int acc = 0;
    for (i = 0; i < x; i = i + 1) { acc = acc + data[i]; }
    g = g + acc;
    return acc;
}

int outer(int n) {
    int k;
    int total = 0;
    for (k = 0; k < n; k = k + 1) { total = total + inner(k); }
    return total;
}

int bystander(int n) {
    int j;
    int s = 0;
    for (j = 0; j < n; j = j + 1) { s = s + j; }
    return s;
}

int main(void) {
    int r = outer(8) + bystander(3);
    return r - r;
}
"""


def post_analysis_keys(
    source: str, options: PipelineOptions | None = None
) -> dict[str, str]:
    """Per-function content keys at the point the pipeline computes them
    (post-analysis, pre-optimization)."""
    options = options or PipelineOptions()
    module = compile_c(source, name="prop")
    captured: dict[str, str] = {}

    def hook(stage: str, mod) -> None:
        if stage != "analysis":
            return
        env = module_env_digest(mod)
        opts = options_digest(options)
        for name, func in mod.functions.items():
            captured[name] = function_key(function_digest(func), env, opts)

    compile_module(module, options, stage_hook=hook)
    return captured


# ---------------------------------------------------------------------------
# 1. soundness: same key => identical optimized body
# ---------------------------------------------------------------------------

def generated_sources(count: int = 8) -> list[str]:
    from repro.fuzz.gen import GenOptions, generate_program

    return [
        generate_program(seed, GenOptions()).source for seed in range(count)
    ]


@pytest.mark.slow  # quantifies over a generated-program population
@pytest.mark.parametrize("options", [PipelineOptions()], ids=["full"])
def test_same_key_same_body_across_stores(options):
    """Two unrelated stores, same inputs: every key collision yields a
    byte-identical optimized function body."""
    bodies: dict[str, str] = {}
    for store in (FunctionStore(root=None), FunctionStore(root=None)):
        for source in generated_sources():
            result = compile_source(source, options, fn_store=store)
            assert result.fn_cache_misses + result.fn_cache_hits == len(
                result.module.functions
            )
        for key, blob in store._memory.items():
            record = store.get(key)
            body = format_function(record.function)
            assert bodies.setdefault(key, body) == body, (
                f"key {key[:12]} mapped to two different optimized bodies"
            )
    assert bodies  # the property quantified over something real


def test_recompile_is_all_hits_and_identical():
    store = FunctionStore(root=None)
    for source in generated_sources(4):
        first = compile_source(source, PipelineOptions(), fn_store=store)
        again = compile_source(source, PipelineOptions(), fn_store=store)
        assert again.fn_cache_misses == 0
        assert format_module(again.module) == format_module(first.module)


# ---------------------------------------------------------------------------
# 2. invalidation precision along call edges
# ---------------------------------------------------------------------------

def test_neutral_edit_invalidates_only_the_edited_function():
    base = post_analysis_keys(CHAIN_SOURCE)
    edited_source, edited = mutate_function(CHAIN_SOURCE, "inner")
    after = post_analysis_keys(edited_source)
    assert set(after) == set(base)
    changed = {name for name in base if after[name] != base[name]}
    assert changed == {"inner"}, (
        f"dead-local edit to inner should not touch {changed - {'inner'}}"
    )


def test_summary_changing_edit_invalidates_transitive_callers():
    base = post_analysis_keys(CHAIN_SOURCE)
    # make inner write a second global: its MOD summary grows, so every
    # call site that prints `mod=...` up the chain changes too
    edited_source = CHAIN_SOURCE.replace(
        "int g;", "int g;\nint g2;"
    ).replace("g = g + acc;", "g = g + acc; g2 = acc;")
    after = post_analysis_keys(edited_source)
    changed = {name for name in base if after[name] != base[name]}
    # a new global changes the module data environment, which is part of
    # every key — but the *function digests* must isolate the chain
    base_digests = _function_digests(CHAIN_SOURCE)
    after_digests = _function_digests(edited_source)
    digest_changed = {
        name for name in base_digests if after_digests[name] != base_digests[name]
    }
    assert "inner" in digest_changed
    assert "outer" in digest_changed  # call site prints inner's new MOD set
    assert "main" in digest_changed  # transitively via outer's summary
    assert "bystander" not in digest_changed
    assert changed  # keys changed as well, env included


def _function_digests(source: str) -> dict[str, str]:
    module = compile_c(source, name="prop")
    captured: dict[str, str] = {}

    def hook(stage: str, mod) -> None:
        if stage == "analysis":
            for name, func in mod.functions.items():
                captured[name] = function_digest(func)

    compile_module(module, PipelineOptions(), stage_hook=hook)
    return captured


def test_incremental_behaviour_matches_key_prediction():
    """End-to-end: after a summary-changing edit, the whole chain is
    re-optimized but the bystander still hits."""
    store = FunctionStore(root=None)
    compile_source(CHAIN_SOURCE, PipelineOptions(), fn_store=store)
    edited_source = CHAIN_SOURCE.replace(
        "g = g + acc;", "g = g + acc; g = g * 1;"
    )
    result = compile_source(edited_source, PipelineOptions(), fn_store=store)
    # the edit stays inside inner (no new summary facts): only it misses
    assert result.fn_cache_misses == 1
    assert result.fn_cache_hits == len(result.module.functions) - 1


# ---------------------------------------------------------------------------
# 3. options changes invalidate everything
# ---------------------------------------------------------------------------

def _other_value(value):
    """A value of the same option that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(member for member in type(value) if member is not value)
    if value is None:
        return 4
    return value + 1


def leaf_mutations(options, path: tuple[str, ...] = ()):
    """``(dotted field path, options with only that leaf changed)`` for
    every leaf field of ``options`` and of the option dataclasses it
    nests, so a field added later is covered without editing this test."""
    for option in fields(options):
        value = getattr(options, option.name)
        where = path + (option.name,)
        if is_dataclass(value):
            for leaf, changed in leaf_mutations(value, where):
                yield leaf, replace(options, **{option.name: changed})
        else:
            yield ".".join(where), replace(options, **{option.name: _other_value(value)})


OPTION_MUTATIONS = dict(leaf_mutations(PipelineOptions()))


@pytest.mark.parametrize(
    "changed_options", OPTION_MUTATIONS.values(), ids=OPTION_MUTATIONS.keys()
)
def test_options_change_invalidates_every_function(changed_options):
    base_options = PipelineOptions()
    assert options_digest(base_options) != options_digest(changed_options)
    base = post_analysis_keys(CHAIN_SOURCE, base_options)
    after = post_analysis_keys(CHAIN_SOURCE, changed_options)
    assert all(after[name] != base[name] for name in base)


def test_options_digest_is_stable_for_equal_options():
    assert options_digest(PipelineOptions()) == options_digest(PipelineOptions())
