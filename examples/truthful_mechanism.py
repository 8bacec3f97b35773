"""Truthful-in-expectation spectrum auction (Section 5, Lavi–Swamy).

Runs the full mechanism on a 12-bidder protocol-model instance:
LP → decomposition of x*/α into feasible integral allocations → scaled
VCG payments → sampling.  Then demonstrates truthfulness: a bidder's
exactly-computed expected utility never improves under misreports.

Run:  python examples/truthful_mechanism.py
"""

import numpy as np

from repro import (
    AuctionProblem,
    SpectrumAuctionSolver,
    TruthfulMechanism,
    XORValuation,
    protocol_model,
    random_links,
    random_xor_valuations,
)
from repro.mechanism.lavi_swamy import reference_decomposition
from repro.mechanism.vcg import reference_vcg_payments


def main() -> None:
    links = random_links(12, seed=3, length_range=(0.04, 0.12))
    structure = protocol_model(links, delta=1.0)
    k = 3
    valuations = random_xor_valuations(12, k, seed=5, bids_per_bidder=2)

    mech = TruthfulMechanism(structure, k)
    outcome = mech.run(valuations, seed=8)
    dec = outcome.decomposition

    print(f"alpha (verified integrality gap): {outcome.alpha:.1f}")
    print(f"LP optimum b*: {outcome.lp_value:.1f}")
    print(f"decomposition pool: {len(dec.allocations)} feasible allocations")
    print(f"expected welfare (= b*/alpha): {dec.expected_welfare():.3f}")

    mass = dec.pair_mass()
    err = max(abs(mass[p] - dec.target[p]) for p in dec.target)
    print(f"pair-mass error vs x*/alpha: {err:.2e} (exact by construction)")

    print("\nper-bidder expected utilities and payments:")
    for v in range(12):
        ev = outcome.expected_value_for(v, valuations[v])
        pay = outcome.payments[v]
        print(f"  bidder {v:2d}: E[value]={ev:7.4f}  payment={pay:7.4f}  E[u]={ev - pay:7.4f}")

    sampled = outcome.sampled_allocation
    print(f"\nsampled allocation: { {v: sorted(s) for v, s in sampled.items()} }")

    # --- truthfulness demo -------------------------------------------------
    bidder = 1
    truth_u = outcome.expected_utility(bidder, valuations[bidder])
    print(f"\nbidder {bidder} truthful expected utility: {truth_u:.4f}")
    rng = np.random.default_rng(9)
    for trial in range(5):
        lied = list(valuations)
        fake_bids = {
            b: float(rng.integers(1, 200))
            for b in valuations[bidder].support()
        }
        lied[bidder] = XORValuation(k, fake_bids)
        lied_outcome = mech.run(lied, seed=10 + trial, sample=False)
        lie_u = lied_outcome.expected_utility(bidder, valuations[bidder])
        marker = "<= truthful (as proven)" if lie_u <= truth_u + 1e-9 else "VIOLATION!"
        print(f"  misreport {fake_bids}: E[u] = {lie_u:.4f}  {marker}")
        assert lie_u <= truth_u + 1e-6

    # --- fast path vs reference pipeline ----------------------------------
    # The mechanism runs on the engine-compiled fast path (compiled pricing,
    # warm VCG probes, vectorized derandomization); the seed-era pipeline
    # survives as two oracle functions and publishes the exact same
    # distribution — same marginals, same pool, same samples per seed.
    problem = AuctionProblem(structure, k, valuations)
    solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
    rng = np.random.default_rng(8)
    reference = reference_decomposition(problem, solution, seed=rng)
    ref_payments = reference_vcg_payments(problem, solution, outcome.alpha).payments
    assert reference.target == dec.target
    assert reference.sample(rng) == sampled
    gap = float(np.abs(ref_payments - outcome.payments).max())
    print(f"\nfast vs reference pipeline: identical samples, payment gap {gap:.1e}")

if __name__ == "__main__":
    main()
