"""Incremental per-function compilation.

``repro.inccomp`` gives the pipeline a content-addressed memory of
optimized function bodies.  A module compile still lowers and runs the
interprocedural analyses from scratch (they establish the facts the keys
are built from); the per-function optimize-and-allocate phase is then
served from the store for every function whose key is unchanged.  The
store also carries the front end's memo of parsed top-level
declarations and lowered function bodies, so an edit parses and lowers
only what it changed.

* :mod:`~repro.inccomp.keys` — what a function's content address covers
  and why that makes invalidation propagate along call edges.
* :mod:`~repro.inccomp.store` — the ``.repro-cache/fn/`` pickle store.
* :mod:`~repro.inccomp.edits` — controlled one-function source edits for
  benchmarks and differential tests.

See ``docs/INCREMENTAL.md`` for the operational story.
"""

from .edits import EDIT_MARKER, list_functions, mutate_function
from .keys import (
    FN_SCHEMA_VERSION,
    function_digest,
    function_key,
    module_env_digest,
    options_digest,
)
from .store import DEFAULT_FN_CACHE_DIR, FunctionRecord, FunctionStore

__all__ = [
    "DEFAULT_FN_CACHE_DIR",
    "EDIT_MARKER",
    "FN_SCHEMA_VERSION",
    "FunctionRecord",
    "FunctionStore",
    "function_digest",
    "function_key",
    "list_functions",
    "module_env_digest",
    "mutate_function",
    "options_digest",
]
