"""The store of optimized function bodies: a :class:`repro.store.Store`
of :class:`FunctionRecord` pickles (``<root>/<2 hex>/<key>.pkl``).

A record is the optimized :class:`~repro.ir.function.Function` plus
everything the pipeline must replay to stay observably identical to a
from-scratch compile: pass reports, additive pass-stat contributions,
and the decision rows the function's passes returned.  The
memory layer unpickles on every hit, so a spliced function is never
shared between two modules.  ``root=None`` is memory-only.

The store also carries the front end's memo of parsed top-level
declarations and lowered function bodies (:attr:`FunctionStore.decls`,
a :class:`~repro.frontend.decls.DeclMemo`), so a compile that passes a
store re-parses only the declarations an edit changed and re-lowers
only the bodies whose lowering could differ.  The memo is
memory-only and never goes through :meth:`get`/:meth:`put`, so the
hit/miss counters count function records alone.  Like the memory layer
it does not travel by pickle, and :meth:`clear` empties it.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..frontend.decls import DeclMemo
from ..store import Store

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..diag.ledger import Decision
    from ..ir.function import Function

__all__ = ["DEFAULT_FN_CACHE_DIR", "FunctionRecord", "FunctionStore"]

DEFAULT_FN_CACHE_DIR = Path(".repro-cache") / "fn"


@dataclass
class FunctionRecord:
    """One cached compilation of one function."""

    function: "Function"
    promotion: object | None = None
    pointer_promotion: object | None = None
    regalloc: object | None = None
    #: additive metric contributions (``licm.hoisted`` etc.)
    stats: dict[str, float] = field(default_factory=dict)
    #: the decision rows this function's passes returned, in pass order
    decisions: list["Decision"] = field(default_factory=list)


class FunctionStore(Store):
    """Content-addressed store of :class:`FunctionRecord` pickles."""

    suffix = ".pkl"
    memory = True
    encode = staticmethod(pickle.dumps)
    decode = staticmethod(pickle.loads)

    def __init__(self, root: str | Path | None = DEFAULT_FN_CACHE_DIR) -> None:
        super().__init__(root)
        #: parsed declarations and lowered bodies, for ``compile_c``
        self.decls = DeclMemo()

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["decls"] = DeclMemo()
        return state

    def clear(self) -> int:
        self.decls.clear()
        return super().clear()

    def accepts(self, record) -> bool:
        return isinstance(record, FunctionRecord)
