"""Truthful-mechanism benchmark — writes BENCH_mechanism.json.

Measures the Section 5 truthful-in-expectation mechanism on the compiled
fast path against the reference (pre-fast-path) pipeline:

* ``truthful_trace_n300`` — the acceptance scenario: a repeat-heavy
  Poisson trace of truthful requests (85% reuse one of 6 valuation
  profiles) against one n≈300 metro disk scene, replayed at maximum
  service rate.  The fast service prepares each profile's decomposition +
  payments once (compiled pricing, warm-started VCG probes, vectorized
  derandomization) and serves repeats by sampling; the baseline replays
  the same trace through the seed-era oracles, recomputing every request
  — explicit ``AuctionLP`` solve, :func:`reference_decomposition`
  (``AuctionLP`` rebuilds + ``linprog`` master) and
  :func:`reference_vcg_payments` (per-bidder cold solves), then a sample
  with the request's seed, as the service draws it.  Sampled allocations
  must be bit-identical between the two replays and payments equal to
  VCG-probe tolerance.
* ``truthful_n1000`` — one n=1000 metro disk truthful auction end to end
  on the fast path (LP → decomposition → payments → sample), which the
  reference pipeline cannot finish in reasonable time; the acceptance
  criterion is single-digit seconds.
* ``decomposition_parity`` — a direct :func:`decompose_lp_solution` vs
  :func:`reference_decomposition` comparison on one instance: pool,
  weights, keep probabilities, and samples compared bit-for-bit (the same
  invariant ``tests/test_mechanism_parity.py`` pins across models).
* ``smoke_truthful_n150`` — a scaled-down trace cheap enough for the CI
  regression gate to re-measure (see check_regression.py).

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_mechanism.py            # full
    PYTHONPATH=src python benchmarks/bench_mechanism.py --smoke    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

import numpy as np

from repro.core.auction import AuctionProblem
from repro.core.solver import SpectrumAuctionSolver
from repro.experiments.workloads import metro_disk_scene, metro_truthful_auction
from repro.mechanism.lavi_swamy import (
    decompose_lp_solution,
    default_alpha,
    reference_decomposition,
)
from repro.mechanism.truthful import MechanismOutcome, TruthfulMechanism
from repro.mechanism.vcg import reference_vcg_payments
from repro.service import AuctionService, SceneRegistry, poisson_trace
from repro.util.rng import ensure_rng

OUTPUT = pathlib.Path(__file__).parent.parent / "BENCH_mechanism.json"

HEADLINE_MIN_SPEEDUP = 4.0
SMOKE_MIN_SPEEDUP = 3.0
N1000_MAX_SECONDS = 10.0


def _reference_replay(registry: SceneRegistry, trace) -> tuple[list, list[float]]:
    """The baseline: every request of ``trace`` recomputed through the
    seed-era oracles, prepared with seed 0 and sampled with the request's
    seed as the service does.  Returns the outcomes and per-request
    seconds."""
    outcomes, seconds = [], []
    for item in trace:
        request = item.request
        start = time.perf_counter()
        problem = AuctionProblem(
            registry.get(request.scene_id), request.k, list(request.valuations)
        )
        solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
        alpha = default_alpha(problem)
        decomposition = reference_decomposition(problem, solution, alpha, seed=0)
        vcg = reference_vcg_payments(problem, solution, alpha)
        outcomes.append(
            MechanismOutcome(
                decomposition=decomposition,
                payments=vcg.payments,
                alpha=alpha,
                lp_value=solution.value,
                sampled_allocation=decomposition.sample(ensure_rng(request.seed)),
            )
        )
        seconds.append(time.perf_counter() - start)
    return outcomes, seconds


def bench_truthful_trace(
    n: int,
    *,
    k: int = 4,
    num_requests: int = 36,
    repeat_fraction: float = 0.85,
    unique_profiles: int = 6,
    bids_per_bidder: int = 2,
    scene_seed: int = 1500,
    trace_seed: int = 51,
) -> dict:
    """Max-rate replay of one truthful Poisson trace, fast vs reference.

    The fast service and the reference oracles replay the *identical*
    trace (same valuations, same per-request sampling seeds); the service
    runs in simulated time.  The fast path's caching, coalescing, compiled
    pricing, and warm VCG probes are result-preserving: sampled allocations
    are asserted bit-identical and payments equal within probe tolerance.
    """
    registry = SceneRegistry()
    scene_id = registry.register(metro_disk_scene(n, seed=scene_seed))
    trace = poisson_trace(
        registry,
        [scene_id],
        k=k,
        rate=100.0,
        num_requests=num_requests,
        seed=trace_seed,
        repeat_fraction=repeat_fraction,
        unique_profiles=unique_profiles,
        bids_per_bidder=bids_per_bidder,
        mode="truthful",
    )
    entry: dict = {
        "workload": (
            f"{num_requests} truthful requests, 1 metro disk scene n={n}, "
            f"k={k}, repeat_fraction={repeat_fraction}, "
            f"{unique_profiles} reusable profiles, {bids_per_bidder} bids/bidder"
        ),
    }
    start = time.perf_counter()
    base_r, seconds = _reference_replay(registry, trace)
    wall = time.perf_counter() - start
    entry["baseline"] = {
        "requests": len(base_r),
        "wall_seconds": wall,
        "throughput_rps": len(base_r) / wall,
        "latency_p50_ms": float(np.percentile(seconds, 50)) * 1e3,
        "latency_p95_ms": float(np.percentile(seconds, 95)) * 1e3,
        "mechanism_cache_hit_rate": 0.0,
        "expected_welfare": float(
            sum(r.decomposition.expected_welfare() for r in base_r)
        ),
    }
    service = AuctionService(
        registry=registry, executor="serial", coalesce_window=0.05, max_batch=16
    )
    start = time.perf_counter()
    fast_r = service.run_trace(trace)
    wall = time.perf_counter() - start
    snap = service.metrics_snapshot()
    entry["fast"] = {
        "requests": snap["requests_completed"],
        "wall_seconds": wall,
        "throughput_rps": snap["requests_completed"] / wall,
        "latency_p50_ms": snap["latency_seconds"]["p50"] * 1e3,
        "latency_p95_ms": snap["latency_seconds"]["p95"] * 1e3,
        "mechanism_cache_hit_rate": snap["caches"]["mechanisms"]["hit_rate"],
        "expected_welfare": float(
            sum(r.decomposition.expected_welfare() for r in fast_r)
        ),
    }
    samples_identical = all(
        f.sampled_allocation == b.sampled_allocation
        for f, b in zip(fast_r, base_r)
    )
    payment_gap = float(
        max(
            np.abs(f.payments - b.payments).max()
            for f, b in zip(fast_r, base_r)
        )
    )
    marginals_identical = all(
        f.decomposition.target == b.decomposition.target
        for f, b in zip(fast_r, base_r)
    )
    assert samples_identical, "fast path sampled different allocations"
    assert marginals_identical, "fast path published different marginals"
    assert payment_gap < 1e-6, f"payments diverged by {payment_gap}"
    entry["samples_identical"] = samples_identical
    entry["marginals_identical"] = marginals_identical
    entry["max_payment_gap"] = payment_gap
    entry["speedup"] = (
        entry["fast"]["throughput_rps"] / entry["baseline"]["throughput_rps"]
    )
    return entry


def bench_n1000(n: int = 1000, k: int = 4, seed: int = 1700) -> dict:
    """One n=1000 truthful metro disk auction end to end on the fast path."""
    problem = metro_truthful_auction(n, k, seed=seed)
    mechanism = TruthfulMechanism(problem.structure, problem.k)
    start = time.perf_counter()
    outcome = mechanism.run(problem.valuations, seed=1)
    wall = time.perf_counter() - start
    mass = outcome.decomposition.pair_mass()
    mass_error = max(
        (abs(mass[p] - t) for p, t in outcome.decomposition.target.items()),
        default=0.0,
    )
    return {
        "workload": f"metro_truthful_auction(n={n}, k={k}), single fast-path run",
        "wall_seconds": wall,
        "n": n,
        "k": k,
        "lp_value": float(outcome.lp_value),
        "decomposition_iterations": outcome.decomposition.iterations,
        "pool_size": len(outcome.decomposition.allocations),
        "pair_mass_error": float(mass_error),
        "revenue": float(outcome.payments.sum()),
        "winners_sampled": len(outcome.sampled_allocation),
    }


def bench_decomposition_parity(n: int = 200, k: int = 4, seed: int = 1600) -> dict:
    """Direct approx-vs-reference decomposition comparison on one instance."""
    problem = metro_truthful_auction(n, k, seed=seed)
    solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
    start = time.perf_counter()
    ref = reference_decomposition(problem, solution, seed=7)
    seconds_reference = time.perf_counter() - start
    start = time.perf_counter()
    fast = decompose_lp_solution(problem, solution, seed=7)
    seconds_approx = time.perf_counter() - start
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    entry = {
        "workload": f"decompose x*/alpha, metro_truthful_auction(n={n}, k={k})",
        "iterations": ref.iterations,
        "pool_size": len(ref.allocations),
        "seconds_reference": seconds_reference,
        "seconds_approx": seconds_approx,
        "decompose_speedup": seconds_reference / seconds_approx,
        "pool_identical": ref.allocations == fast.allocations,
        "weights_identical": bool(np.array_equal(ref.weights, fast.weights)),
        "keep_identical": ref.keep_probability == fast.keep_probability,
        "samples_identical": all(
            ref.sample(rng_a) == fast.sample(rng_b) for _ in range(100)
        ),
    }
    assert entry["pool_identical"] and entry["weights_identical"]
    assert entry["keep_identical"] and entry["samples_identical"]
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small repeat-heavy truthful trace only; exit nonzero below "
        f"{SMOKE_MIN_SPEEDUP}x",
    )
    args = parser.parse_args(argv)

    # warm imports/HiGHS on a throwaway scene so neither config pays cold-start
    bench_truthful_trace(
        60, num_requests=4, unique_profiles=2, scene_seed=19, trace_seed=19
    )

    if args.smoke:
        smoke = bench_truthful_trace(
            150, num_requests=10, unique_profiles=4, scene_seed=1400, trace_seed=52
        )
        ok = smoke["speedup"] >= SMOKE_MIN_SPEEDUP and smoke["samples_identical"]
        print(
            f"mechanism smoke n=150: {smoke['speedup']:.2f}x "
            f"(floor {SMOKE_MIN_SPEEDUP}x), samples identical -> "
            f"{'OK' if ok else 'FAIL'}"
        )
        return 0 if ok else 1

    trace = bench_truthful_trace(300)
    print(
        f"truthful trace n=300: {trace['speedup']:.2f}x "
        f"({trace['fast']['throughput_rps']:.2f} vs "
        f"{trace['baseline']['throughput_rps']:.2f} rps), "
        f"samples identical: {trace['samples_identical']}",
        flush=True,
    )
    parity = bench_decomposition_parity()
    print(
        f"decomposition parity n=200: approx {parity['decompose_speedup']:.1f}x "
        f"vs reference, bit-identical: {parity['pool_identical']}",
        flush=True,
    )
    n1000 = bench_n1000()
    print(
        f"truthful n=1000: {n1000['wall_seconds']:.2f}s "
        f"({n1000['decomposition_iterations']} pricing iterations, "
        f"pool {n1000['pool_size']})",
        flush=True,
    )
    smoke = bench_truthful_trace(
        150, num_requests=10, unique_profiles=4, scene_seed=1400, trace_seed=52
    )

    results = {
        "config": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "truthful_trace_n300": trace,
        "decomposition_parity": parity,
        "truthful_n1000": n1000,
        "smoke_truthful_n150": smoke,
        "headline": {
            "criterion": (
                "fast truthful path >= 4x throughput of the reference "
                "(pre-fast-path) pipeline on a repeat-heavy truthful metro "
                "trace, with bit-identical decomposition marginals and "
                "sampled allocations for fixed seeds, and a truthful n=1000 "
                "disk auction in single-digit seconds"
            ),
            "trace_speedup": trace["speedup"],
            "samples_identical": trace["samples_identical"],
            "marginals_identical": trace["marginals_identical"],
            "n1000_seconds": n1000["wall_seconds"],
            "met": bool(
                trace["speedup"] >= HEADLINE_MIN_SPEEDUP
                and trace["samples_identical"]
                and trace["marginals_identical"]
                and n1000["wall_seconds"] < N1000_MAX_SECONDS
            ),
        },
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results["headline"], indent=2))
    print(f"wrote {OUTPUT}")
    return 0 if results["headline"]["met"] else 1


if __name__ == "__main__":
    sys.exit(main())
