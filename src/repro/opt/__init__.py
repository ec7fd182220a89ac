"""The optimizer: register promotion plus the paper's baseline passes."""

from .clean import CleanStats, clean_function
from .constprop import SCCPStats, run_sccp, run_sccp_module
from .dce import DCEStats, run_dce
from .licm import LICMStats, run_licm, run_licm_module
from .pointer_promotion import (
    PointerPromotionReport,
    promote_pointers_function,
    promote_pointers_module,
)
from .pre import PREStats, run_pre
from .pressure import (
    PressurePlan,
    estimate_loop_pressure,
    plan_promotions,
    tag_use_frequency,
)
from .promotion import (
    LoopPromotion,
    LoopSets,
    PromotionOptions,
    PromotionReport,
    gather_block_info,
    promote_function,
    promote_module,
    solve_loop_equations,
)
from .valuenum import VNStats, run_value_numbering, run_value_numbering_module

__all__ = [
    "CleanStats",
    "DCEStats",
    "LICMStats",
    "LoopPromotion",
    "LoopSets",
    "PointerPromotionReport",
    "PREStats",
    "PressurePlan",
    "PromotionOptions",
    "PromotionReport",
    "SCCPStats",
    "VNStats",
    "clean_function",
    "estimate_loop_pressure",
    "gather_block_info",
    "plan_promotions",
    "promote_function",
    "promote_module",
    "promote_pointers_function",
    "promote_pointers_module",
    "run_dce",
    "run_licm",
    "run_licm_module",
    "run_pre",
    "run_sccp",
    "run_sccp_module",
    "run_value_numbering",
    "run_value_numbering_module",
    "solve_loop_equations",
    "tag_use_frequency",
]
