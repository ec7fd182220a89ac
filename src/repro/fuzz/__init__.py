"""Generative differential testing for the whole compiler + interpreter.

The 14 paper workloads exercise a fixed set of shapes; a miscompile that
those programs do not happen to trigger ships silently.  This package is
the Csmith-style answer (scaled to our C subset):

:mod:`repro.fuzz.gen`
    a seeded random C program generator biased toward the constructs
    register promotion, tag refinement, and the compiled interpreter tier
    actually have to get right — loops over memory-resident scalars, aliasing
    pointer stores, calls with varied MOD/REF effects, and 64-bit
    wrap-boundary arithmetic;

:mod:`repro.fuzz.oracle`
    a multi-level differential oracle: each program is compiled at -O0,
    at the full pipeline without/with promotion, and at full + pointer
    analysis + pointer promotion (all with ``verify_each_stage``), each
    variant runs on both interpreter engines (the simple reference loop
    and the compiled tier), and every observable — output, exit
    code, counters, metric invariants — must agree;

:mod:`repro.fuzz.reduce`
    a delta-debugging (ddmin) reducer that shrinks a divergent program
    to a minimal reproducer while the divergence predicate holds;

:mod:`repro.fuzz.campaign`
    the ``repro fuzz`` driver: judges program batches inline or one
    program per :mod:`repro.runner.pool` job, records every divergence as a
    :mod:`repro.diag` Decision-style artifact, and promotes reduced
    reproducers into the regression corpus.
"""

from .campaign import CampaignOptions, CampaignResult, run_campaign
from .gen import FuzzProgram, GenOptions, generate_program
from .oracle import (
    Divergence,
    OracleConfig,
    OracleReport,
    make_divergence_predicate,
    run_oracle,
    write_divergence_artifact,
)
from .reduce import reduce_source

__all__ = [
    "CampaignOptions",
    "CampaignResult",
    "Divergence",
    "FuzzProgram",
    "GenOptions",
    "OracleConfig",
    "OracleReport",
    "generate_program",
    "make_divergence_predicate",
    "reduce_source",
    "run_campaign",
    "run_oracle",
    "write_divergence_artifact",
]
