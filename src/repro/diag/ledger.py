"""The compiler-decision ledger.

Every optimization pass records *why* it did (or refused to do) something
as a structured :class:`Decision`.  The canonical example is register
promotion: one decision per (loop, tag) pair, either ``promoted`` or
``blocked`` with the blocking reason — ``ambiguous-via-call`` naming the
offending callee and its MOD/REF summary, ``ambiguous-via-pointer`` with
the memory operation's tag set, ``not-scalar``, ``not-referenced``, or
``pressure-throttled``.  This is exactly the provenance needed to answer
the paper's section 5 question "why does points-to promote tags MOD/REF
cannot?" about a concrete program.

Decisions are values: each pass returns its rows on the report or
stats object it already hands back, and
:func:`repro.pipeline.compile_module` gathers them, in pass order, into
``CompileResult.decisions`` — the same rows whether a function was
optimized fresh or replayed from a ``FunctionStore``.  ``repro explain
FILE`` filters one compilation's rows (:func:`filter_decisions`) and
renders them as a table or JSONL.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "Decision",
    "decisions_jsonl",
    "filter_decisions",
    "format_decision_table",
    "trim_tag_names",
]

#: cap on how many tag names a decision detail spells out verbatim
MAX_DETAIL_TAGS = 12


@dataclass
class Decision:
    """One recorded compiler decision.

    ``action`` is the verb ("promoted", "blocked", "hoisted",
    "strengthened", "applied", "summarized", "refined"); ``reason`` is a
    short kebab-case code explaining a negative outcome; ``detail`` holds
    pass-specific provenance (JSON-serializable only).
    """

    pass_name: str
    function: str
    action: str
    loop: str | None = None
    tag: str | None = None
    reason: str | None = None
    detail: dict = field(default_factory=dict)

    def __reduce__(self):
        # every FunctionRecord pickles its function's rows: positional
        # fields make a pickle about 30% smaller, and about twice as fast
        # to load, than the default instance-dict state
        return (
            Decision,
            (
                self.pass_name, self.function, self.action,
                self.loop, self.tag, self.reason, self.detail,
            ),
        )

    def as_dict(self) -> dict:
        return {
            "pass": self.pass_name,
            "function": self.function,
            "action": self.action,
            "loop": self.loop,
            "tag": self.tag,
            "reason": self.reason,
            "detail": dict(self.detail),
        }

    def why(self) -> str:
        """One human-readable clause of provenance for the table view."""
        parts: list[str] = []
        for call in self.detail.get("calls", ()):
            sets = [s for s in ("mod", "ref") if call.get(f"in_{s}")]
            parts.append(f"call {call['callee']} ({'+'.join(sets) or '?'})")
        for op in self.detail.get("pointer_ops", ()):
            tags = "*" if op.get("universal") else "{%s}" % ",".join(op["tags"])
            parts.append(f"{op['op']} via {tags}")
        if self.detail.get("lifted_here") is True:
            parts.append("lifted here")
        elif self.detail.get("lifted_here") is False:
            parts.append("inherited from outer loop")
        if "opcode" in self.detail:
            parts.append(str(self.detail["opcode"]))
        if not parts and self.detail:
            parts.append(
                " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
            )
        return "; ".join(parts)


def filter_decisions(
    decisions: list[Decision],
    pass_name: str | None = None,
    function: str | None = None,
    loop: str | None = None,
    tag: str | None = None,
    action: str | None = None,
) -> list[Decision]:
    """The rows of ``decisions`` matching every given field, in order."""
    wanted = {
        "pass_name": pass_name,
        "function": function,
        "loop": loop,
        "tag": tag,
        "action": action,
    }
    wanted = {name: value for name, value in wanted.items() if value is not None}
    return [
        d for d in decisions
        if all(getattr(d, name) == value for name, value in wanted.items())
    ]


def decisions_jsonl(decisions: list[Decision]) -> str:
    """One sorted-key JSON object per row (``repro explain --json``)."""
    return "\n".join(json.dumps(d.as_dict(), sort_keys=True) for d in decisions)


def trim_tag_names(tags, limit: int = MAX_DETAIL_TAGS) -> list[str]:
    """Sorted tag names, truncated so a huge universe can't bloat details."""
    names = sorted(str(t) for t in tags)
    if len(names) > limit:
        names = names[:limit] + [f"... +{len(names) - limit} more"]
    return names


def format_decision_table(decisions: list[Decision]) -> str:
    """The ``repro explain`` human view."""
    if not decisions:
        return "(no decisions recorded)"
    header = (
        f"{'pass':<18} {'function':<14} {'loop':<8} {'tag':<14} "
        f"{'action':<12} {'reason':<22} why"
    )
    lines = [header, "-" * len(header)]
    for d in decisions:
        lines.append(
            f"{d.pass_name:<18} {d.function:<14} {d.loop or '-':<8} "
            f"{d.tag or '-':<14} {d.action:<12} {d.reason or '-':<22} "
            f"{d.why()}"
        )
    return "\n".join(lines)
