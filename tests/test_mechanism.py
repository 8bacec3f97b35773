"""Tests for the Lavi–Swamy mechanism (Section 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.auction import AuctionProblem
from repro.core.solver import SpectrumAuctionSolver
from repro.geometry.links import random_links
from repro.interference.protocol import protocol_model
from repro.mechanism.lavi_swamy import decompose_lp_solution, default_alpha
from repro.mechanism.truthful import TruthfulMechanism
from repro.mechanism.vcg import vcg_payments
from repro.valuations.explicit import XORValuation
from repro.valuations.generators import random_xor_valuations


@pytest.fixture(scope="module")
def small_setup():
    links = random_links(10, seed=81, length_range=(0.04, 0.12))
    structure = protocol_model(links, delta=1.0)
    vals = random_xor_valuations(10, 3, seed=82, bids_per_bidder=2)
    problem = AuctionProblem(structure, 3, vals)
    solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
    return problem, solution


class TestDecomposition:
    def test_exact_pair_masses(self, small_setup):
        problem, solution = small_setup
        dec = decompose_lp_solution(problem, solution, seed=1)
        mass = dec.pair_mass()
        for pair, target in dec.target.items():
            assert mass[pair] == pytest.approx(target, abs=1e-7)

    def test_expected_welfare_is_scaled_lp(self, small_setup):
        problem, solution = small_setup
        dec = decompose_lp_solution(problem, solution, seed=2)
        assert dec.expected_welfare() == pytest.approx(
            solution.value / dec.alpha, rel=1e-6
        )

    def test_all_pool_allocations_feasible(self, small_setup):
        problem, solution = small_setup
        dec = decompose_lp_solution(problem, solution, seed=3)
        for alloc in dec.allocations:
            assert problem.is_feasible(alloc)

    def test_weights_form_subdistribution(self, small_setup):
        problem, solution = small_setup
        dec = decompose_lp_solution(problem, solution, seed=4)
        assert (dec.weights >= -1e-12).all()
        assert dec.weights.sum() <= 1.0 + 1e-9
        assert dec.empty_weight >= -1e-9

    def test_sampling_unbiased(self, small_setup):
        problem, solution = small_setup
        dec = decompose_lp_solution(problem, solution, seed=5)
        rng = np.random.default_rng(6)
        trials = 3000
        counts: dict = {p: 0 for p in dec.target}
        for _ in range(trials):
            alloc = dec.sample(rng)
            for v, bundle in alloc.items():
                if (v, bundle) in counts:
                    counts[(v, bundle)] += 1
        for pair, target in dec.target.items():
            if target > 0.002:
                emp = counts[pair] / trials
                assert emp == pytest.approx(target, abs=4 * np.sqrt(target / trials))

    def test_tight_alpha_exercises_pricing(self, small_setup):
        """With α far below 8√kρ the seeded pool cannot cover x*/α, so the
        pricing loop must generate real allocations.  Exact pricing makes
        any α above the instance's *pointwise* decomposition gap work —
        here that gap is 3 (note it exceeds the scalar LP/OPT ratio 1.21:
        domination must hold coordinatewise, for every weighting w ≥ 0)."""
        problem, solution = small_setup
        dec = decompose_lp_solution(
            problem, solution, alpha=3.5, seed=7, pricing="exact"
        )
        assert dec.iterations >= 2
        mass = dec.pair_mass()
        for pair, target in dec.target.items():
            assert mass[pair] == pytest.approx(target, abs=1e-6)
        for alloc in dec.allocations:
            assert problem.is_feasible(alloc)

    def test_alpha_below_gap_detected(self, small_setup):
        """Exact pricing proves infeasibility when α is below the gap
        (this instance's LP/OPT ratio is ≈ 1.21)."""
        problem, solution = small_setup
        with pytest.raises(RuntimeError, match="integrality gap"):
            decompose_lp_solution(
                problem, solution, alpha=1.05, seed=8, pricing="exact"
            )

    def test_invalid_pricing_mode(self, small_setup):
        problem, solution = small_setup
        with pytest.raises(ValueError):
            decompose_lp_solution(problem, solution, pricing="magic")


class TestDecompositionWeighted:
    """Section 5 applies verbatim to weighted graphs via Algorithms 2+3."""

    @pytest.fixture(scope="class")
    def weighted_setup(self):
        from repro.interference.physical import linear_power, physical_model_structure

        links = random_links(8, seed=83, length_range=(0.03, 0.1))
        structure = physical_model_structure(links, linear_power(links, 3.0))
        vals = random_xor_valuations(8, 2, seed=84, bids_per_bidder=2)
        problem = AuctionProblem(structure, 2, vals)
        solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
        return problem, solution

    def test_weighted_decomposition_exact(self, weighted_setup):
        problem, solution = weighted_setup
        dec = decompose_lp_solution(problem, solution, seed=20)
        mass = dec.pair_mass()
        for pair, target in dec.target.items():
            assert mass[pair] == pytest.approx(target, abs=1e-7)
        for alloc in dec.allocations:
            assert problem.is_feasible(alloc)

    def test_weighted_mechanism_ir(self, weighted_setup):
        problem, _ = weighted_setup
        mech = TruthfulMechanism(problem.structure, problem.k)
        outcome = mech.run(problem.valuations, seed=21)
        assert problem.is_feasible(outcome.sampled_allocation)
        for v in range(problem.n):
            assert outcome.expected_utility(v, problem.valuations[v]) >= -1e-9


class TestDecompositionWithColumnGeneration:
    """Section 5's closing remark: arbitrary k via demand oracles; the
    decomposition never touches the original valuations."""

    def test_colgen_solution_decomposes(self):
        from repro.core.column_generation import solve_with_column_generation
        from repro.valuations.generators import random_additive_valuations

        links = random_links(10, seed=85, length_range=(0.04, 0.12))
        structure = protocol_model(links, delta=1.0)
        k = 12  # 4096 bundles: enumeration unattractive, oracles fine
        vals = random_additive_valuations(10, k, seed=86)
        problem = AuctionProblem(structure, k, vals)
        cg = solve_with_column_generation(problem)
        assert cg.converged
        dec = decompose_lp_solution(problem, cg.solution, seed=22)
        mass = dec.pair_mass()
        for pair, target in dec.target.items():
            assert mass[pair] == pytest.approx(target, abs=1e-7)


class TestVCG:
    def test_payments_nonnegative_and_ir(self, small_setup):
        problem, solution = small_setup
        alpha = default_alpha(problem)
        vcg = vcg_payments(problem, solution, alpha)
        assert (vcg.payments >= 0).all()
        # Individual rationality: expected value ≥ payment.
        for v in range(problem.n):
            expected_value = vcg.contributions[v] / alpha
            assert vcg.payments[v] <= expected_value + 1e-7

    def test_removing_bidder_weakly_decreases_lp(self, small_setup):
        problem, solution = small_setup
        vcg = vcg_payments(problem, solution, default_alpha(problem))
        assert (vcg.lp_without <= solution.value + 1e-6).all()

    def test_zero_contribution_zero_payment(self, small_setup):
        problem, solution = small_setup
        vcg = vcg_payments(problem, solution, default_alpha(problem))
        for v in range(problem.n):
            if vcg.contributions[v] == 0:
                assert vcg.payments[v] == 0


class TestTruthfulMechanism:
    def test_outcome_consistency(self, small_setup):
        problem, _ = small_setup
        mech = TruthfulMechanism(problem.structure, problem.k)
        outcome = mech.run(problem.valuations, seed=8)
        assert problem.is_feasible(outcome.sampled_allocation)
        assert outcome.lp_value > 0
        for v in range(problem.n):
            assert outcome.expected_utility(v, problem.valuations[v]) >= -1e-9

    def test_truthfulness_in_expectation(self, small_setup):
        """E[u(truth)] ≥ E[u(misreport)] for sampled misreports (exact
        expected utilities, no sampling noise)."""
        problem, _ = small_setup
        mech = TruthfulMechanism(problem.structure, problem.k)
        truthful_outcome = mech.run(problem.valuations, seed=9, sample=False)
        rng = np.random.default_rng(10)
        bidder = 2
        true_val = problem.valuations[bidder]
        u_truth = truthful_outcome.expected_utility(bidder, true_val)
        for trial in range(4):
            lied = list(problem.valuations)
            bids = {
                bundle: float(rng.integers(1, 120))
                for bundle in true_val.support()
            }
            lied[bidder] = XORValuation(problem.k, bids)
            lied_outcome = mech.run(lied, seed=11 + trial, sample=False)
            u_lie = lied_outcome.expected_utility(bidder, true_val)
            assert u_truth >= u_lie - 1e-6

    def test_overbidding_not_profitable(self, small_setup):
        problem, _ = small_setup
        mech = TruthfulMechanism(problem.structure, problem.k)
        truthful_outcome = mech.run(problem.valuations, seed=12, sample=False)
        bidder = 0
        true_val = problem.valuations[bidder]
        u_truth = truthful_outcome.expected_utility(bidder, true_val)
        exaggerated = XORValuation(
            problem.k, {b: v * 10 for b, v in true_val.bids.items()}
        )
        lied = list(problem.valuations)
        lied[bidder] = exaggerated
        out = mech.run(lied, seed=13, sample=False)
        assert u_truth >= out.expected_utility(bidder, true_val) - 1e-6


class TestTruthfulnessAtServiceScale:
    """Bid-scaling misreports on an n=300 metro scene, the size the service
    benchmarks run: no bidder gains expected utility by scaling its bids."""

    def test_scaled_misreports_never_gain(self):
        from repro.experiments.workloads import metro_truthful_auction

        problem = metro_truthful_auction(300, 4, seed=1600)
        mech = TruthfulMechanism(problem.structure, problem.k)
        truth = mech.prepare(problem.valuations, seed=0)
        has_share = {v for (v, _), mass in truth.decomposition.target.items() if mass > 0}
        winners = sorted(has_share)[:3]
        loser = min(v for v in range(problem.n) if v not in has_share)
        max_gain = -np.inf
        for bidder in (*winners, loser):
            true_val = problem.valuations[bidder]
            u_truth = truth.expected_utility(bidder, true_val)
            for factor in (0.5, 1.5, 3.0):
                lied = list(problem.valuations)
                lied[bidder] = XORValuation(
                    problem.k, {b: x * factor for b, x in true_val.bids.items()}
                )
                out = mech.prepare(lied, seed=0)
                max_gain = max(max_gain, out.expected_utility(bidder, true_val) - u_truth)
        assert max_gain <= 1e-6
