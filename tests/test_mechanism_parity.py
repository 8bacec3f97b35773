"""Reference-vs-compiled parity of the truthful-mechanism fast path (PR 5).

The compiled decomposition (:func:`decompose_lp_solution`) must publish
the *same* distribution as the seed-era pipeline
(:func:`reference_decomposition`): the exact-marginal guarantee
E[𝟙(v gets T)] = x*_{v,T}/α  holds on both, and the pool, convex weights,
keep probabilities — and therefore the sampled allocations for fixed
seeds — are bit-identical across disk, protocol, weighted (physical), and
distance-2 conflict models.  The same holds when the private HiGHS
bindings are missing and every solve falls back to ``linprog``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.auction import AuctionProblem
from repro.core.solver import SpectrumAuctionSolver
from repro.geometry.disks import random_disk_instance
from repro.geometry.links import random_links
from repro.interference.disk import disk_transmitter_model, distance2_coloring_model
from repro.interference.physical import linear_power, physical_model_structure
from repro.interference.protocol import protocol_model
from repro.mechanism.lavi_swamy import (
    decompose_lp_solution,
    default_alpha,
    reference_decomposition,
)
from repro.mechanism.truthful import TruthfulMechanism
from repro.mechanism.vcg import reference_vcg_payments, vcg_payments
from repro.valuations.generators import random_xor_valuations

MODELS = ["disk", "protocol", "physical", "distance2"]


def build_problem(model: str) -> AuctionProblem:
    if model == "disk":
        structure = disk_transmitter_model(random_disk_instance(14, seed=91))
        k, vseed = 3, 92
    elif model == "protocol":
        links = random_links(12, seed=81, length_range=(0.04, 0.12))
        structure = protocol_model(links, delta=1.0)
        k, vseed = 3, 82
    elif model == "physical":
        links = random_links(8, seed=83, length_range=(0.03, 0.1))
        structure = physical_model_structure(links, linear_power(links, 3.0))
        k, vseed = 2, 84
    else:
        structure = distance2_coloring_model(random_disk_instance(12, seed=95))
        k, vseed = 2, 96
    valuations = random_xor_valuations(
        structure.n, k, seed=vseed, bids_per_bidder=2
    )
    return AuctionProblem(structure, k, valuations)


@pytest.fixture(scope="module", params=MODELS)
def case(request):
    problem = build_problem(request.param)
    solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
    reference = reference_decomposition(problem, solution, seed=5)
    compiled = decompose_lp_solution(problem, solution, seed=5)
    return problem, solution, reference, compiled


class TestBitIdenticalDecomposition:
    def test_targets_identical(self, case):
        _, _, reference, compiled = case
        assert reference.target == compiled.target  # dict of floats, bit-equal

    def test_pool_identical(self, case):
        _, _, reference, compiled = case
        assert reference.allocations == compiled.allocations
        assert np.array_equal(reference.weights, compiled.weights)

    def test_keep_probabilities_identical(self, case):
        _, _, reference, compiled = case
        assert reference.keep_probability == compiled.keep_probability

    def test_iterations_identical(self, case):
        _, _, reference, compiled = case
        assert reference.iterations == compiled.iterations

    def test_sampled_allocations_identical_for_fixed_seeds(self, case):
        _, _, reference, compiled = case
        for seed in range(20):
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            assert reference.sample(rng_a) == compiled.sample(rng_b)


class TestExactMarginalGuarantee:
    def test_both_paths_hit_targets(self, case):
        _, _, reference, compiled = case
        for dec in (reference, compiled):
            mass = dec.pair_mass()
            for pair, target in dec.target.items():
                assert mass[pair] == pytest.approx(target, abs=1e-9)


class TestForcedPricingIterations:
    """Sub-gap α forces the pricing loop to run; parity must survive it."""

    @pytest.fixture(scope="class")
    def tight_case(self):
        from repro.experiments.workloads import metro_disk_auction

        problem = metro_disk_auction(80, 4, seed=11)
        solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
        alpha = problem.approximation_bound() * 0.25
        reference = reference_decomposition(problem, solution, alpha=alpha, seed=5)
        compiled = decompose_lp_solution(problem, solution, alpha=alpha, seed=5)
        return reference, compiled

    def test_pricing_actually_iterated(self, tight_case):
        reference, _ = tight_case
        assert reference.iterations >= 3

    def test_bit_identical_under_iteration(self, tight_case):
        reference, compiled = tight_case
        assert reference.allocations == compiled.allocations
        assert np.array_equal(reference.weights, compiled.weights)
        assert reference.keep_probability == compiled.keep_probability


class TestBindingsOff:
    """Without the private HiGHS bindings every solve falls back to
    ``linprog``: decompositions stay bit-identical and payments agree."""

    @pytest.fixture(params=["disk", "physical", "sub-gap"])
    def bound(self, request):
        if request.param == "sub-gap":
            from repro.experiments.workloads import metro_disk_auction

            problem = metro_disk_auction(80, 4, seed=11)
            alpha = problem.approximation_bound() * 0.25
        else:
            problem = build_problem(request.param)
            alpha = default_alpha(problem)
        solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
        decomposition = decompose_lp_solution(problem, solution, alpha=alpha, seed=5)
        payments = vcg_payments(problem, solution, alpha)
        return problem, solution, alpha, decomposition, payments

    def test_fallback_matches_bound_path_and_oracle(self, monkeypatch, bound):
        import repro.engine.highs as highs_backend

        problem, solution, alpha, expected, expected_vcg = bound
        monkeypatch.setattr(highs_backend, "_hcore", None)
        fallback = decompose_lp_solution(problem, solution, alpha=alpha, seed=5)
        reference = reference_decomposition(problem, solution, alpha=alpha, seed=5)
        for dec in (fallback, reference):
            assert dec.iterations == expected.iterations
            assert dec.allocations == expected.allocations
            assert np.array_equal(dec.weights, expected.weights)
            assert dec.keep_probability == expected.keep_probability
        fallback_vcg = vcg_payments(problem, solution, alpha)
        np.testing.assert_allclose(
            fallback_vcg.payments, expected_vcg.payments, atol=1e-6
        )


class TestMechanismEndToEnd:
    def test_fast_and_reference_outcomes_agree(self):
        problem = build_problem("protocol")
        out_fast = TruthfulMechanism(problem.structure, problem.k).run(
            problem.valuations, seed=17
        )
        # the seed-era pipeline: explicit LP, reference oracles, then a
        # sample from the same generator the mechanism hands through
        solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
        rng = np.random.default_rng(17)
        dec = reference_decomposition(problem, solution, seed=rng)
        payments = reference_vcg_payments(problem, solution, dec.alpha).payments
        assert out_fast.sampled_allocation == dec.sample(rng)
        assert out_fast.decomposition.target == dec.target
        np.testing.assert_allclose(out_fast.payments, payments, atol=1e-6)

    def test_warm_vcg_matches_reference_values(self):
        problem = build_problem("disk")
        solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
        alpha = default_alpha(problem)
        warm = vcg_payments(problem, solution, alpha)
        reference = reference_vcg_payments(problem, solution, alpha)
        np.testing.assert_allclose(warm.payments, reference.payments, atol=1e-6)
        np.testing.assert_allclose(
            warm.contributions, reference.contributions, atol=1e-9
        )

    def test_prepare_is_deterministic_and_run_samples_it(self):
        problem = build_problem("disk")
        mech = TruthfulMechanism(problem.structure, problem.k)
        a = mech.prepare(problem.valuations, seed=1)
        b = mech.prepare(problem.valuations, seed=2)  # seed only feeds escapes
        assert a.decomposition.target == b.decomposition.target
        assert a.decomposition.allocations == b.decomposition.allocations
        out = mech.run(problem.valuations, seed=3)
        assert problem.is_feasible(out.sampled_allocation)
