"""The truthful-in-expectation mechanism (Section 5, end to end).

Pipeline per auction:

1. collect reported valuations, solve LP (1)/(4);
2. decompose x*/α into a convex combination of feasible integral
   allocations (:mod:`repro.mechanism.lavi_swamy`);
3. charge scaled fractional VCG payments (:mod:`repro.mechanism.vcg`);
4. sample the published distribution.

Expected utilities are *exactly computable* from the decomposition (no
sampling noise): bidder v's expected value under reports ``b'`` equals
``Σ_T b_v(T) · mass_{v,T}(b')`` where the mass is the decomposition target.
:meth:`TruthfulMechanism.expected_utility` exposes this, and the E8
experiment uses it to check  E[u(truth)] ≥ E[u(misreport)]  across sampled
misreports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.auction import Allocation, AuctionProblem
from repro.core.solver import SpectrumAuctionSolver
from repro.mechanism.lavi_swamy import (
    DecompositionResult,
    decompose_lp_solution,
    default_alpha,
)
from repro.mechanism.vcg import FractionalVCG, vcg_payments
from repro.util.rng import ensure_rng
from repro.valuations.base import Valuation

__all__ = ["MechanismOutcome", "TruthfulMechanism"]


@dataclass
class MechanismOutcome:
    """Published outcome of one mechanism run."""

    decomposition: DecompositionResult
    payments: np.ndarray
    alpha: float
    lp_value: float
    sampled_allocation: Allocation = field(default_factory=dict)

    def expected_value_for(self, vertex: int, true_valuation: Valuation) -> float:
        """Bidder's expected *true* value under the published distribution."""
        return float(
            sum(
                true_valuation.value(bundle) * mass
                for (v, bundle), mass in self.decomposition.target.items()
                if v == vertex
            )
        )

    def expected_utility(self, vertex: int, true_valuation: Valuation) -> float:
        return self.expected_value_for(vertex, true_valuation) - float(
            self.payments[vertex]
        )


class TruthfulMechanism:
    """Truthful-in-expectation spectrum auction for a fixed conflict
    structure (interference is public; valuations are reported).

    The structure is compiled once at construction: every
    :meth:`run` — including the misreport probes of E8, which re-solve the
    LP for each reported profile — reuses the engine's precomputed
    interference coefficients instead of rebuilding the LP rows."""

    def __init__(
        self,
        structure,
        k: int,
        alpha: float | None = None,
        compiled_structure=None,
    ) -> None:
        """``compiled_structure`` injects an existing engine compilation of
        ``structure`` (the auction service passes its own cached one);
        ``None`` compiles through the engine's keyed cache."""
        from repro.engine import compile_structure

        self.structure = structure
        self.k = k
        self.alpha = alpha
        # the structure's engine compilation, held for the mechanism's
        # lifetime and passed to every run()'s solver — reuse survives
        # eviction from the engine's bounded cache
        self._compiled_structure = (
            compile_structure(structure)
            if compiled_structure is None
            else compiled_structure
        )

    def prepare(
        self,
        valuations: list[Valuation],
        seed=None,
        lp_method: str = "auto",
    ) -> MechanismOutcome:
        """Compute the published outcome — LP, decomposition, payments —
        without sampling.

        This is the cacheable half of the mechanism: for a fixed reported
        profile the outcome is deterministic (the seed only feeds the
        decomposition's rare randomized-escape path), so the auction
        service keys prepared outcomes by scene + profile fingerprint and
        draws per-request samples from the shared decomposition.
        """
        rng = ensure_rng(seed)
        problem = AuctionProblem(self.structure, self.k, valuations)
        from repro.engine import CompiledAuction

        solver = SpectrumAuctionSolver(
            problem,
            compiled=CompiledAuction(problem, structure=self._compiled_structure),
        )
        solution = solver.solve_lp(lp_method)
        alpha = default_alpha(problem) if self.alpha is None else self.alpha
        decomposition = decompose_lp_solution(
            problem,
            solution,
            alpha=alpha,
            seed=rng,
            compiled_structure=self._compiled_structure,
        )
        vcg: FractionalVCG = vcg_payments(
            problem, solution, alpha, compiled_structure=self._compiled_structure
        )
        return MechanismOutcome(
            decomposition=decomposition,
            payments=vcg.payments,
            alpha=alpha,
            lp_value=solution.value,
        )

    def run(
        self,
        valuations: list[Valuation],
        seed=None,
        lp_method: str = "auto",
        sample: bool = True,
    ) -> MechanismOutcome:
        """Run the mechanism on reported valuations."""
        rng = ensure_rng(seed)
        outcome = self.prepare(valuations, seed=rng, lp_method=lp_method)
        if sample:
            outcome.sampled_allocation = outcome.decomposition.sample(rng)
        return outcome
