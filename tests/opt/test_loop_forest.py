"""The loop passes share one forest per function.

The pipeline normalizes loop shape once per function and hands that
forest to promotion, LICM and pointer promotion.  That is only sound
while none of them edits the CFG: they may insert non-terminator
instructions into existing blocks, nothing more.  This test runs the
three passes on every function of the 14 workloads, straight after the
interprocedural analyses, and fails if one splits an edge or adds a
block without renormalizing.
"""

import copy

import pytest

from repro.analysis.loops import normalize_loops
from repro.frontend import compile_c
from repro.opt.licm import run_licm
from repro.opt.pointer_promotion import promote_pointers_function
from repro.opt.promotion import promote_function
from repro.pipeline import Analysis, PipelineOptions, compile_module
from repro.workloads import get_workload, workload_names
from tests.props.test_loops_props import loop_shape, successor_map

OPTIONS = PipelineOptions(analysis=Analysis.POINTER, pointer_promotion=True)


def analyzed_module(name):
    """The workload's module at the pipeline's ``"analysis"`` stage."""
    workload = get_workload(name)
    stages = {}

    def hook(stage, module):
        if stage == "analysis":
            stages[stage] = copy.deepcopy(module)

    module = compile_c(workload.source, name=workload.name, defines=workload.defines)
    compile_module(module, OPTIONS, stage_hook=hook)
    return stages["analysis"]


@pytest.mark.parametrize("name", workload_names())
def test_loop_passes_keep_the_forest_exact(name):
    module = analyzed_module(name)
    universe = frozenset(module.memory_tags())
    for func in module.functions.values():
        forest = normalize_loops(func)
        cfg = successor_map(func)
        promote_function(func, forest, universe)
        run_licm(func, forest)
        promote_pointers_function(func, forest, universe)
        assert successor_map(func) == cfg, func.name
        assert loop_shape(normalize_loops(func)) == loop_shape(forest), func.name
