"""Compile-once/solve-many auction engine.

Three layers (see DESIGN.md for the architecture):

* :mod:`repro.engine.compiled` — :class:`CompiledStructure` /
  :class:`CompiledAuction`: cached LP columns, vectorized ``(A, b, c)``
  assembly over precompiled interference coefficients, cached LP solutions;
* :mod:`repro.engine.vectorized` — batched randomized rounding, drawing all
  ``attempts × n`` bundle choices as one RNG matrix and resolving conflicts
  with mask operations (bit-equal to Algorithms 1/2 run in a loop);
* :mod:`repro.engine.batch` — :class:`BatchAuctionEngine`: fan a list of
  problems across a serial or thread executor with deterministic
  per-instance seed spawning.

:class:`~repro.core.solver.SpectrumAuctionSolver` is a thin facade over
these pieces; use the engine directly for many-instance workloads.
"""

from repro.engine.batch import BatchAuctionEngine, BatchResult
from repro.engine.compiled import (
    CompiledAuction,
    CompiledStructure,
    auction_cache_stats,
    clear_auction_cache,
    clear_structure_cache,
    compile_auction,
    compile_structure,
    structure_cache_stats,
)
from repro.engine.highs import (
    fast_backend_available,
    solve_packing_lp_fast,
    warm_start_stats,
)
from repro.engine.vectorized import (
    BatchRoundingOutcome,
    RoundingPlan,
    build_rounding_plan,
    round_batch,
    stack_draws,
)

__all__ = [
    "BatchAuctionEngine",
    "BatchResult",
    "CompiledAuction",
    "CompiledStructure",
    "compile_auction",
    "compile_structure",
    "structure_cache_stats",
    "auction_cache_stats",
    "clear_structure_cache",
    "clear_auction_cache",
    "fast_backend_available",
    "solve_packing_lp_fast",
    "warm_start_stats",
    "BatchRoundingOutcome",
    "RoundingPlan",
    "build_rounding_plan",
    "round_batch",
    "stack_draws",
]
