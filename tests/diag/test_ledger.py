"""The decision ledger: what promotion records, and why.

The headline scenario is the paper's section 5 question made concrete:
under MOD/REF a store through ``p`` carries the tag set ``{a, b}`` and
blocks promoting ``a``; points-to narrows the store to ``{b}`` and the
same tag promotes.  The rows must name the exact blocker either way.
"""

import json

import pytest

from repro.diag.ledger import (
    Decision,
    decisions_jsonl,
    filter_decisions,
    format_decision_table,
    trim_tag_names,
)
from repro.pipeline import Analysis, PipelineOptions, compile_source
from repro.workloads import get_workload

#: `*p` really points only at `b`, but MOD/REF sees `{a, b}`
POINTER_BLOCKED = r"""
int a;
int b;

int main(void) {
    int *p;
    int *q;
    int i;
    int sum;
    q = &a;
    p = &b;
    sum = 0;
    for (i = 0; i < 10; i = i + 1) {
        a = a + i;
        *p = i;
        sum = sum + a;
    }
    printf("%d\n", sum);
    return 0;
}
"""

#: the callee's MOD/REF summary covers `g`, so the call blocks it
CALL_BLOCKED = r"""
int g;

void bump(void) {
    g = g + 1;
}

int main(void) {
    int i;
    for (i = 0; i < 10; i = i + 1) {
        g = g + i;
        bump();
    }
    printf("%d\n", g);
    return 0;
}
"""


def explain(source: str, analysis: Analysis) -> list[Decision]:
    return compile_source(source, PipelineOptions(analysis=analysis)).decisions


class TestPromotionProvenance:
    def test_pointer_op_blocks_tag_under_modref(self):
        rows = explain(POINTER_BLOCKED, Analysis.MODREF)
        [blocked] = filter_decisions(
            rows, pass_name="promotion", tag="a", action="blocked"
        )
        assert blocked.reason == "ambiguous-via-pointer"
        [op] = blocked.detail["pointer_ops"]
        assert set(op["tags"]) == {"a", "b"}
        assert op["op"] == "store"
        # nothing was promoted in that loop
        assert not filter_decisions(
            rows, pass_name="promotion", tag="a", action="promoted"
        )

    def test_points_to_unblocks_the_same_tag(self):
        rows = explain(POINTER_BLOCKED, Analysis.POINTER)
        [promoted] = filter_decisions(
            rows, pass_name="promotion", tag="a", action="promoted"
        )
        assert promoted.detail["lifted_here"] is True
        assert not filter_decisions(
            rows, pass_name="promotion", tag="a", action="blocked"
        )

    def test_call_blocker_names_the_callee(self):
        rows = explain(CALL_BLOCKED, Analysis.MODREF)
        [blocked] = filter_decisions(
            rows, pass_name="promotion", tag="g", action="blocked"
        )
        assert blocked.reason == "ambiguous-via-call"
        [call] = blocked.detail["calls"]
        assert call["callee"] == "bump"
        assert call["in_mod"] is True
        assert "g" in call["mod"]

    def test_other_passes_record_too(self):
        rows = explain(POINTER_BLOCKED, Analysis.MODREF)
        passes = {d.pass_name for d in rows}
        assert "modref" in passes  # per-function summaries

    def test_points_to_records_refinement(self):
        rows = explain(POINTER_BLOCKED, Analysis.POINTER)
        refined = filter_decisions(rows, pass_name="points_to", action="refined")
        assert refined
        assert any(d.detail["ops_refined"] > 0 for d in refined)


class TestModRefRows:
    @pytest.mark.parametrize("analysis", [Analysis.MODREF, Analysis.POINTER])
    def test_one_summary_row_per_function(self, analysis):
        """Under the pointer analysis MOD/REF runs twice; only the final
        run's summaries reach call sites, and only they are listed."""
        wl = get_workload("fft")
        compiled = compile_source(
            wl.source, PipelineOptions(analysis=analysis), name=wl.name,
            defines=dict(wl.defines) or None,
        )
        rows = filter_decisions(compiled.decisions, pass_name="modref")
        assert sorted(d.function for d in rows) == sorted(compiled.module.functions)
        summaries = compiled.modref.summaries
        for row in rows:
            assert row.detail["mod"] == trim_tag_names(summaries[row.function].mod)
            assert row.detail["ref"] == trim_tag_names(summaries[row.function].ref)


class TestLedgerMechanics:
    def test_query_filters_compose(self):
        rows = [
            Decision("promotion", "f", "blocked", loop="L1", tag="x"),
            Decision("promotion", "f", "promoted", loop="L1", tag="y"),
            Decision("licm", "g", "hoisted", loop="L2"),
        ]
        assert len(filter_decisions(rows, pass_name="promotion")) == 2
        assert len(filter_decisions(rows, loop="L1", action="promoted")) == 1
        assert filter_decisions(rows, function="g")[0].pass_name == "licm"
        assert filter_decisions(rows, tag="nope") == []
        assert filter_decisions(rows) == rows

    def test_jsonl_is_one_valid_object_per_line(self):
        rows = explain(CALL_BLOCKED, Analysis.MODREF)
        lines = decisions_jsonl(rows).splitlines()
        assert len(lines) == len(rows)
        for line in lines:
            payload = json.loads(line)
            assert {"pass", "function", "action"} <= set(payload)

    def test_table_renders_every_decision(self):
        rows = explain(CALL_BLOCKED, Analysis.MODREF)
        table = format_decision_table(rows)
        assert "ambiguous-via-call" in table
        assert "bump" in table
        assert format_decision_table([]) == "(no decisions recorded)"

    def test_trim_tag_names_caps_huge_sets(self):
        names = trim_tag_names([f"t{i:03d}" for i in range(50)], limit=5)
        assert len(names) == 6
        assert names[-1] == "... +45 more"


class TestDecisionsAreValues:
    @pytest.mark.parametrize("analysis", [Analysis.MODREF, Analysis.POINTER])
    def test_every_compile_returns_its_rows(self, analysis):
        """Two compiles of one program return equal, separate rows: no
        state is shared between compiles."""
        first = explain(POINTER_BLOCKED, analysis)
        second = explain(POINTER_BLOCKED, analysis)
        assert filter_decisions(first, pass_name="promotion", tag="a")
        assert [d.as_dict() for d in first] == [d.as_dict() for d in second]
        assert not any(a is b for a, b in zip(first, second))
