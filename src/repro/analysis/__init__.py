"""Program analyses: dominators, loops, call graph, liveness, SSA,
interprocedural MOD/REF, and points-to."""

from .callgraph import CallGraph, SCCInfo, build_call_graph, condense_sccs
from .dominators import DominatorInfo, compute_dominators, dominance_frontiers
from .liveness import Liveness, compute_liveness
from .loops import Loop, LoopForest, find_loops, normalize_loops
from .modref import ModRefResult, ModRefSummary, run_modref
from .pointsto import PointsToResult, apply_points_to, run_points_to
from .ssa import SSAInfo, construct_ssa, destruct_ssa
from .tagrefine import RefineStats, refine_memory_ops

__all__ = [
    "CallGraph",
    "DominatorInfo",
    "Liveness",
    "Loop",
    "LoopForest",
    "ModRefResult",
    "ModRefSummary",
    "PointsToResult",
    "RefineStats",
    "SCCInfo",
    "SSAInfo",
    "apply_points_to",
    "build_call_graph",
    "compute_dominators",
    "compute_liveness",
    "condense_sccs",
    "construct_ssa",
    "destruct_ssa",
    "dominance_frontiers",
    "find_loops",
    "normalize_loops",
    "refine_memory_ops",
    "run_modref",
    "run_points_to",
]
