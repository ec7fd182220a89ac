"""Per-layer timing from outside the program.

:class:`LayerTimer` swaps the names ``repro.pipeline`` calls each layer
through (and ``FunctionStore.get``/``put``) for timing wrappers, and
puts the originals back on exit.  Each wrapper keeps a self-time stack:
a layer's self time is its call's duration minus the time of wrapped
layers it called, so nested layers are never counted twice.  Nothing in
``src/`` changes and nothing is timed while no timer is installed.

Because the wrappers replace names in the pipeline module rather than
the functions themselves, calls the pipeline makes are attributed where
the pipeline makes them: the DCE and clean that run after register
allocation land in ``opt.dce``/``opt.clean``, not in ``regalloc``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: pipeline-module name -> the layer its time is booked to
PIPELINE_LAYERS = {
    "compile_c": "frontend",
    "run_modref": "analysis.modref",
    "run_points_to": "analysis.points_to",
    "apply_points_to": "analysis.points_to",
    "refine_memory_ops": "analysis.tagrefine",
    "clean_function": "opt.clean",
    "run_value_numbering": "opt.valuenum",
    "run_sccp": "opt.sccp",
    "promote_function": "opt.promotion",
    "run_licm": "opt.licm",
    "run_pre": "opt.pre",
    "run_dce": "opt.dce",
    "allocate_function": "regalloc",
    "verify_module": "ir.verify",
    "function_digest": "inccomp.key",
    "function_key": "inccomp.key",
    "module_env_digest": "inccomp.key",
    "options_digest": "inccomp.key",
}

#: ``FunctionStore`` method -> layer
STORE_LAYERS = {"get": "inccomp.get", "put": "inccomp.put"}


class LayerTimer:
    """Self time and work counts per layer while :meth:`installed`."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []

    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def _observe(self, layer: str, args: tuple, result) -> None:
        """Work counts read off a layer's inputs and results."""
        counts = self.counts
        if layer == "frontend":
            counts["frontend.lines"] += len(args[0].splitlines())
        elif layer == "opt.promotion":
            counts["opt.promotion.tags_promoted"] += len(result.promoted_tags)
            counts["opt.promotion.refs_rewritten"] += result.references_rewritten
        elif layer == "regalloc":
            counts["regalloc.spill_ops"] += result.spill_loads + result.spill_stores
            counts["regalloc.coalesced"] += result.copies_coalesced
            counts["regalloc.rounds"] += result.rounds
        elif layer == "inccomp.get":
            counts["inccomp.hits" if result is not None else "inccomp.misses"] += 1

    def wrap(self, layer: str, fn):
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            self._observe(layer, args, result)
            return result

        return timed

    @contextmanager
    def installed(self):
        """Wrap every layer entry point; restore the originals on exit."""
        from repro import pipeline
        from repro.inccomp.store import FunctionStore

        saved = [(pipeline, name, getattr(pipeline, name)) for name in PIPELINE_LAYERS]
        saved += [(FunctionStore, name, getattr(FunctionStore, name)) for name in STORE_LAYERS]
        try:
            for owner, name, original in saved:
                layer = PIPELINE_LAYERS.get(name) if owner is pipeline else STORE_LAYERS[name]
                setattr(owner, name, self.wrap(layer, original))
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)
