"""Experiment runners: one function per paper claim (see the experiment
index in DESIGN.md).

Every runner is deterministic from its seed, returns an
:class:`ExperimentOutput` holding a printable table plus machine-readable
summary stats, and is sized so the full benchmark suite finishes in
minutes on a laptop.  The benchmarks in ``benchmarks/`` are thin wrappers
that time these runners and persist the tables under
``benchmarks/results/``.

Repetition loops route through :mod:`repro.engine`: the LP is compiled and
solved once per instance and the rounding repetitions run on the
vectorized kernels with per-repetition child RNGs, which draw exactly the
same uniforms as the original sequential loops — the tables and summary
stats are bit-identical to the seed pipeline, only faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.auction import AuctionProblem
from repro.core.auction_lp import AuctionLP
from repro.core.asymmetric import AsymmetricAuctionLP, round_asymmetric
from repro.core.baselines import (
    edge_lp_value,
    greedy_channel_allocation,
    local_ratio_independent_set,
)
from repro.core.column_generation import solve_with_column_generation
from repro.core.conflict_resolution import make_fully_feasible
from repro.core.derandomize import derandomize_rounding
from repro.core.exact import solve_exact
from repro.core.rounding import default_scale
from repro.core.solver import SpectrumAuctionSolver
from repro.engine import compile_auction, round_batch, stack_draws
from repro.experiments import workloads
from repro.geometry.disks import random_disk_instance
from repro.geometry.links import random_links
from repro.graphs.conflict_graph import VertexOrdering
from repro.graphs.generators import clique
from repro.graphs.independence import max_weight_independent_set
from repro.graphs.inductive import (
    inductive_independence_number,
    rho_of_ordering,
    weighted_rho_of_ordering,
)
from repro.interference.base import ConflictStructure
from repro.interference.civilized import (
    CivilizedInstance,
    civilized_distance2_model,
)
from repro.interference.disk import (
    DISK_RHO_BOUND,
    DISTANCE2_DISK_RHO_BOUND,
    distance2_coloring_model,
)
from repro.interference.physical import (
    linear_power,
    mean_power,
    physical_model_structure,
    uniform_power,
)
from repro.interference.protocol import protocol_model, protocol_rho_bound
from repro.mechanism.lavi_swamy import decompose_lp_solution, reference_decomposition
from repro.mechanism.truthful import TruthfulMechanism
from repro.mechanism.vcg import reference_vcg_payments
from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.tables import Table
from repro.valuations.explicit import XORValuation
from repro.valuations.generators import random_xor_valuations

__all__ = ["ExperimentOutput"] + [f"run_e{i}" for i in range(1, 17)] + [
    "run_a1_split_ablation",
    "run_a2_resolution_ablation",
    "run_a3_scaling_ablation",
    "run_a4_clip_ablation",
    "run_a5_derandomization_comparison",
    "run_a6_ordering_sensitivity",
]


@dataclass
class ExperimentOutput:
    """A printable table plus the summary stats tests assert on."""

    experiment: str
    table: Table
    summary: dict = field(default_factory=dict)
    chart: str = ""

    def render(self) -> str:
        body = f"== {self.experiment} ==\n{self.table.render()}"
        if self.chart:
            body += "\n\n" + self.chart
        return body


def _rounded_welfares(problem, lp_solution, reps, seed, **plan_kwargs) -> list[float]:
    """Welfare of one rounding repetition per child RNG, engine-vectorized.

    Each repetition draws the same uniforms its child generator would feed
    the sequential Algorithm 1/2 loop, so the values match the seed
    pipeline exactly (weighted problems: partly-feasible welfare, finish
    with Algorithm 3 separately).
    """
    resolve = plan_kwargs.pop("resolve", "survivors")
    compiled = compile_auction(problem)
    plan = compiled.rounding_plan(lp_solution, **plan_kwargs)
    draws = stack_draws(spawn_rngs(seed, reps), plan.width)
    outcome = round_batch(compiled, plan, draws, resolve=resolve)
    return [problem.welfare(alloc) for alloc in outcome.allocations]


def _mean_rounded_welfare(problem, lp_solution, reps, seed) -> tuple[float, float]:
    values = _rounded_welfares(problem, lp_solution, reps, seed)
    return float(np.mean(values)), float(np.max(values))


# ----------------------------------------------------------------------
# E1 — Theorem 3: Algorithm 1 meets b*/(8√k ρ); ratio scales like √k.
# ----------------------------------------------------------------------
def run_e1(n: int = 40, ks=(1, 2, 4, 9, 16), reps: int = 20, seed: int = 11) -> ExperimentOutput:
    table = Table(
        ["k", "lp_value", "mean_welfare", "emp_ratio", "bound_8sqrtk_rho", "bound_met"]
    )
    ratios = []
    all_met = True
    for k in ks:
        problem = workloads.protocol_auction(n, k, seed=seed + k)
        lp = compile_auction(problem).solve_lp()
        mean_w, _ = _mean_rounded_welfare(problem, lp, reps, seed + 100 + k)
        bound = 8.0 * math.sqrt(k) * problem.rho
        met = mean_w >= lp.value / bound - 1e-9
        all_met &= met
        ratio = lp.value / mean_w if mean_w > 0 else float("inf")
        ratios.append(ratio)
        table.add_row(k, lp.value, mean_w, ratio, bound, met)
    from repro.util.ascii_plot import bar_chart

    chart = bar_chart(
        [f"k={k}" for k in ks],
        ratios,
        title="empirical LP/welfare ratio vs k (bound grows as 8sqrt(k)rho)",
    )
    return ExperimentOutput(
        "E1 Theorem 3: unweighted rounding vs k",
        table,
        {"all_bounds_met": all_met, "ratios": ratios, "ks": list(ks)},
        chart=chart,
    )


# ----------------------------------------------------------------------
# E2 — Proposition 9: disk graphs have ρ ≤ 5.
# ----------------------------------------------------------------------
def run_e2(ns=(20, 40, 80, 160), reps: int = 3, seed: int = 21) -> ExperimentOutput:
    table = Table(["n", "max_rho_ordering", "max_rho_exact", "bound"])
    worst = 0
    for n in ns:
        ordered, exact = 0, 0
        for child in spawn_rngs(seed + n, reps):
            inst = random_disk_instance(n, seed=child, radius_range=(0.03, 0.15))
            ordered = max(ordered, rho_of_ordering(inst.graph, inst.ordering))
            exact = max(exact, inductive_independence_number(inst.graph)[0])
        worst = max(worst, ordered)
        table.add_row(n, ordered, exact, DISK_RHO_BOUND)
    return ExperimentOutput(
        "E2 Proposition 9: disk-graph rho <= 5",
        table,
        {"worst_measured": worst, "bound": DISK_RHO_BOUND},
    )


# ----------------------------------------------------------------------
# E3 — Proposition 13: protocol-model ρ bound over Δ.
# ----------------------------------------------------------------------
def run_e3(deltas=(0.5, 1.0, 2.0, 4.0), n: int = 50, reps: int = 3, seed: int = 31) -> ExperimentOutput:
    table = Table(["delta", "max_rho_ordering", "bound"])
    ok = True
    for delta in deltas:
        measured = 0
        for child in spawn_rngs(seed + int(delta * 10), reps):
            links = random_links(n, length_range=(0.02, 0.08), seed=child)
            cs = protocol_model(links, delta)
            measured = max(measured, rho_of_ordering(cs.graph, cs.ordering))
        bound = protocol_rho_bound(delta)
        ok &= measured <= bound
        table.add_row(delta, measured, bound)
    return ExperimentOutput(
        "E3 Proposition 13: protocol-model rho vs delta",
        table,
        {"all_within_bound": ok},
    )


# ----------------------------------------------------------------------
# E4 — Propositions 11/12: distance-2 coloring ρ bounds.
# ----------------------------------------------------------------------
def run_e4(n: int = 25, ratios=(2.0, 3.0, 4.0), seed: int = 41) -> ExperimentOutput:
    table = Table(["model", "r_over_s", "measured_rho", "bound"])
    ok = True
    s = 0.05
    for r_over_s in ratios:
        r = r_over_s * s
        inst = CivilizedInstance.sample(n, r=r, s=s, seed=seed + int(r_over_s))
        cs = civilized_distance2_model(inst)
        measured = rho_of_ordering(cs.graph, cs.ordering)
        ok &= measured <= cs.rho
        table.add_row("civilized", r_over_s, measured, cs.rho)
    disk = random_disk_instance(n, seed=seed, radius_range=(0.04, 0.12))
    cs = distance2_coloring_model(disk)
    measured = rho_of_ordering(cs.graph, cs.ordering)
    ok &= measured <= DISTANCE2_DISK_RHO_BOUND
    table.add_row("disk", "-", measured, DISTANCE2_DISK_RHO_BOUND)
    return ExperimentOutput(
        "E4 Propositions 11/12: distance-2 coloring rho",
        table,
        {"all_within_bound": ok},
    )


# ----------------------------------------------------------------------
# E5 — Proposition 15: physical model fixed powers, ρ = O(log n).
# ----------------------------------------------------------------------
def run_e5(ns=(10, 20, 40, 80), schemes=("uniform", "linear", "mean"), seed: int = 51) -> ExperimentOutput:
    from repro.util.ascii_plot import bar_chart

    table = Table(["scheme", "n", "rho_lower", "rho_upper", "upper_over_log2n"])
    max_normalized = 0.0
    mean_upper_by_n: dict[int, list[float]] = {n: [] for n in ns}
    for scheme in schemes:
        for n in ns:
            links = random_links(n, length_range=(0.02, 0.08), seed=seed + n)
            power = {
                "uniform": lambda: uniform_power(links),
                "linear": lambda: linear_power(links, 3.0),
                "mean": lambda: mean_power(links, 3.0),
            }[scheme]()
            structure = physical_model_structure(links, power)
            bounds = weighted_rho_of_ordering(
                structure.graph, structure.ordering, heavy_threshold=0.05
            )
            normalized = bounds.upper / math.log2(max(2, n))
            max_normalized = max(max_normalized, normalized)
            mean_upper_by_n[n].append(bounds.upper)
            table.add_row(scheme, n, bounds.lower, bounds.upper, normalized)
    chart = bar_chart(
        [f"n={n}" for n in ns],
        [float(np.mean(mean_upper_by_n[n])) for n in ns],
        title="mean rho upper bound vs n (O(log n) shape: ~+1 per doubling)",
    )
    return ExperimentOutput(
        "E5 Proposition 15: physical-model rho growth",
        table,
        {"max_rho_over_log2n": max_normalized},
        chart=chart,
    )


# ----------------------------------------------------------------------
# E6 — Lemmas 7+8: weighted rounding + Algorithm 3.
# ----------------------------------------------------------------------
def run_e6(n: int = 30, ks=(1, 4, 9), reps: int = 15, seed: int = 61) -> ExperimentOutput:
    table = Table(
        ["k", "lp_value", "mean_welfare", "bound", "bound_met", "max_alg3_rounds", "log2n_cap"]
    )
    all_met = True
    rounds_ok = True
    for k in ks:
        problem = workloads.physical_auction(n, k, seed=seed + k)
        compiled = compile_auction(problem)
        lp = compiled.solve_lp()
        log_cap = math.ceil(math.log2(max(2, n)))
        plan = compiled.rounding_plan(lp)
        draws = stack_draws(spawn_rngs(seed + 100 + k, reps), plan.width)
        outcome = round_batch(compiled, plan, draws)
        values, max_rounds = [], 0
        for partly in outcome.allocations:
            res = make_fully_feasible(problem, partly)
            values.append(problem.welfare(res.allocation))
            max_rounds = max(max_rounds, res.rounds)
        mean_w = float(np.mean(values))
        bound = 16.0 * math.sqrt(k) * problem.rho * log_cap
        met = mean_w >= lp.value / bound - 1e-9
        all_met &= met
        rounds_ok &= max_rounds <= log_cap
        table.add_row(k, lp.value, mean_w, bound, met, max_rounds, log_cap)
    return ExperimentOutput(
        "E6 Lemmas 7+8: weighted rounding + Algorithm 3",
        table,
        {"all_bounds_met": all_met, "rounds_within_log": rounds_ok},
    )


# ----------------------------------------------------------------------
# E7 — Theorem 17: power control end-to-end.
# ----------------------------------------------------------------------
def run_e7(n: int = 24, ks=(1, 4), reps: int = 10, seed: int = 71) -> ExperimentOutput:
    table = Table(["k", "lp_value", "mean_welfare", "sinr_ok_fraction", "mean_winners"])
    sinr_all_ok = True
    for k in ks:
        problem = workloads.power_control_auction(n, k, seed=seed + k)
        solver = SpectrumAuctionSolver(problem)
        lp = solver.solve_lp()
        welfare, sinr_ok, winners = [], 0, []
        for child in spawn_rngs(seed + 100 + k, reps):
            # engine path: the LP is solved once above and reused per rep
            result = solver.solve(seed=child, lp_solution=lp)
            welfare.append(result.welfare)
            sinr_ok += bool(result.sinr_feasible)
            winners.append(len([v for v, s in result.allocation.items() if s]))
        frac = sinr_ok / reps
        sinr_all_ok &= sinr_ok == reps
        table.add_row(k, lp.value, float(np.mean(welfare)), frac, float(np.mean(winners)))
    return ExperimentOutput(
        "E7 Theorem 17: power control end-to-end",
        table,
        {"sinr_always_feasible": sinr_all_ok},
    )


# ----------------------------------------------------------------------
# E8 — Section 5: Lavi–Swamy mechanism.
# ----------------------------------------------------------------------
def run_e8(n: int = 10, k: int = 3, misreports: int = 4, seed: int = 81) -> ExperimentOutput:
    problem = workloads.protocol_auction(n, k, seed=seed, bids_per_bidder=2)
    solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
    dec = decompose_lp_solution(problem, solution, seed=seed)
    mass = dec.pair_mass()
    mass_err = max(
        (abs(mass[p] - dec.target[p]) for p in dec.target), default=0.0
    )
    welfare_err = abs(dec.expected_welfare() - solution.value / dec.alpha)

    # fast-vs-reference parity on this instance: the mechanism must publish
    # the same distribution (bit-identical marginals, identical pool) and
    # the same payoffs (within VCG-probe tolerance) as the seed-era oracles
    mech = TruthfulMechanism(problem.structure, k)
    truth = mech.run(problem.valuations, seed=seed, sample=False)
    reference = reference_decomposition(problem, solution, seed=seed)
    reference_payments = reference_vcg_payments(problem, solution, dec.alpha).payments
    marginals_identical = truth.decomposition.target == reference.target
    pool_identical = truth.decomposition.allocations == reference.allocations
    payment_gap = float(np.abs(truth.payments - reference_payments).max())
    rng = ensure_rng(seed + 1)
    max_gain = -math.inf
    for bidder in range(min(4, n)):
        true_val = problem.valuations[bidder]
        u_truth = truth.expected_utility(bidder, true_val)
        for _ in range(misreports):
            lied = list(problem.valuations)
            lied[bidder] = XORValuation(
                k,
                {b: float(rng.integers(1, 150)) for b in true_val.support()},
            )
            out = mech.run(lied, seed=int(rng.integers(2**31)), sample=False)
            max_gain = max(max_gain, out.expected_utility(bidder, true_val) - u_truth)

    revenue = float(truth.payments.sum())
    table = Table(["metric", "value"], precision=9)
    table.add_row("decomposition pair-mass error", mass_err)
    table.add_row("E[welfare] - b*/alpha error", welfare_err)
    table.add_row("max misreport utility gain", max_gain)
    table.add_row("alpha", dec.alpha)
    table.add_row("pool size", len(dec.allocations))
    table.add_row("total scaled-VCG revenue", revenue)
    table.add_row("fast-vs-reference payment gap", payment_gap)
    table.add_row("fast-vs-reference marginals identical", float(marginals_identical))
    return ExperimentOutput(
        "E8 Section 5: truthful-in-expectation mechanism",
        table,
        {
            "mass_error": mass_err,
            "welfare_error": welfare_err,
            "max_misreport_gain": max_gain,
            "revenue": revenue,
            "payment_parity_gap": payment_gap,
            "marginals_identical": bool(marginals_identical),
            "pool_identical": bool(pool_identical),
        },
    )


# ----------------------------------------------------------------------
# E9 — Theorem 18 / Section 6: asymmetric channels.
# ----------------------------------------------------------------------
def run_e9(n: int = 24, d: int = 8, ks=(1, 2, 4, 8), reps: int = 20, seed: int = 91) -> ExperimentOutput:
    table = Table(
        ["k", "rho", "lp_value", "opt_alpha_G", "mean_welfare", "emp_ratio", "bound_4k_rho", "bound_met"]
    )
    all_met = True
    for k in ks:
        problem, base = workloads.theorem18_auction(n, d, k, seed=seed)
        solution = AsymmetricAuctionLP(problem).solve()
        _, opt = max_weight_independent_set(base)
        values = [
            problem.welfare(round_asymmetric(problem, solution, child)[0])
            for child in spawn_rngs(seed + k, reps)
        ]
        mean_w = float(np.mean(values))
        bound = 4.0 * k * problem.rho
        met = mean_w >= solution.value / bound - 1e-9
        all_met &= met
        ratio = solution.value / mean_w if mean_w > 0 else float("inf")
        table.add_row(k, problem.rho, solution.value, opt, mean_w, ratio, bound, met)
    return ExperimentOutput(
        "E9 Theorem 18: asymmetric channels",
        table,
        {"all_bounds_met": all_met},
    )


# ----------------------------------------------------------------------
# E10 — Section 2.1: edge-LP clique gap vs the inductive LP.
# ----------------------------------------------------------------------
def run_e10(ns=(4, 8, 16, 32, 64), seed: int = 101) -> ExperimentOutput:
    table = Table(["n", "opt", "edge_lp", "edge_gap", "inductive_lp", "inductive_gap"])
    max_inductive_gap = 0.0
    for n in ns:
        graph = clique(n)
        profits = np.ones(n)
        _, edge_value = edge_lp_value(graph, profits)
        structure = ConflictStructure(graph, VertexOrdering.identity(n), rho=1.0)
        vals = [XORValuation(1, {frozenset({0}): 1.0}) for _ in range(n)]
        problem = AuctionProblem(structure, 1, vals)
        inductive_value = AuctionLP(problem).solve().value
        opt = 1.0  # best feasible: one winner on a clique
        max_inductive_gap = max(max_inductive_gap, inductive_value / opt)
        table.add_row(
            n, opt, edge_value, edge_value / opt, inductive_value, inductive_value / opt
        )
    return ExperimentOutput(
        "E10 Section 2.1: clique integrality gaps",
        table,
        {"max_inductive_gap": max_inductive_gap},
    )


# ----------------------------------------------------------------------
# E11 — Who wins: LP rounding vs greedy vs exact optimum.
# ----------------------------------------------------------------------
def run_e11(n: int = 10, k: int = 3, instances: int = 8, seed: int = 111) -> ExperimentOutput:
    table = Table(
        ["instance", "opt", "lp", "rounding_best5", "derandomized", "greedy", "local_ratio_k1"]
    )
    ratios = {"rounding": [], "derandomized": [], "greedy": []}
    for i, child in enumerate(spawn_rngs(seed, instances)):
        inst_seed = int(child.integers(2**31))
        problem = workloads.protocol_auction(n, k, seed=inst_seed, bids_per_bidder=3)
        opt = solve_exact(problem).value
        lp = compile_auction(problem).solve_lp()
        _, best5 = _mean_rounded_welfare(problem, lp, 5, inst_seed + 1)
        der = problem.welfare(derandomize_rounding(problem, lp).allocation)
        greedy = problem.welfare(greedy_channel_allocation(problem))
        # Local ratio on channel 0's projection (k=1 reference point).
        profits = np.array(
            [problem.valuations[v].value(frozenset({0})) for v in range(n)]
        )
        _, lr = local_ratio_independent_set(
            problem.graph, problem.ordering, profits
        )
        if opt > 0:
            ratios["rounding"].append(best5 / opt)
            ratios["derandomized"].append(der / opt)
            ratios["greedy"].append(greedy / opt)
        table.add_row(i, opt, lp.value, best5, der, greedy, lr)
    summary = {name: float(np.mean(vals)) for name, vals in ratios.items()}
    return ExperimentOutput(
        "E11 empirical comparison vs exact optimum",
        table,
        summary,
    )


# ----------------------------------------------------------------------
# E12 — Section 2.2: demand-oracle column generation.
# ----------------------------------------------------------------------
def run_e12(n: int = 30, ks=(4, 8, 16, 32), seed: int = 121) -> ExperimentOutput:
    # A dense disk instance (ρ = 5, many conflicts) makes the packing rows
    # bind, so pricing must run several rounds before the duals settle.
    from repro.interference.disk import disk_transmitter_model
    from repro.valuations.generators import random_capped_additive_valuations

    table = Table(
        ["k", "colgen_value", "explicit_value", "iterations", "columns", "oracle_calls"]
    )
    agree = True
    inst = random_disk_instance(n, seed=seed, radius_range=(0.15, 0.3))
    structure = disk_transmitter_model(inst)
    max_iters = 0
    for k in ks:
        vals = random_capped_additive_valuations(n, k, seed=seed + k)
        problem = AuctionProblem(structure, k, vals)
        cg = solve_with_column_generation(problem)
        max_iters = max(max_iters, cg.iterations)
        if 2**k <= 2048:
            explicit = AuctionLP(problem).solve().value
            agree &= abs(cg.solution.value - explicit) <= 1e-5 * max(1.0, explicit)
            explicit_str = explicit
        else:
            explicit_str = float("nan")
        table.add_row(
            k,
            cg.solution.value,
            explicit_str,
            cg.iterations,
            cg.columns_generated,
            cg.oracle_calls,
        )
    return ExperimentOutput(
        "E12 Section 2.2: column generation with demand oracles",
        table,
        {"values_agree": agree, "max_iterations": max_iters},
    )


# ----------------------------------------------------------------------
# E13 — derandomized rounding meets the bound deterministically.
# ----------------------------------------------------------------------
def run_e13(n: int = 40, ks=(1, 4, 9), seed: int = 131) -> ExperimentOutput:
    table = Table(["k", "lp_value", "derand_welfare", "bound", "bound_met"])
    all_met = True
    for k in ks:
        problem = workloads.protocol_auction(n, k, seed=seed + k)
        lp = compile_auction(problem).solve_lp()
        result = derandomize_rounding(problem, lp)
        welfare = problem.welfare(result.allocation)
        bound = lp.value / (8.0 * math.sqrt(k) * problem.rho)
        met = welfare >= bound - 1e-9
        all_met &= met
        table.add_row(k, lp.value, welfare, bound, met)
    return ExperimentOutput(
        "E13 derandomized rounding (deterministic bound)",
        table,
        {"all_bounds_met": all_met},
    )


# ----------------------------------------------------------------------
# E14 — Theorem 17's two regimes: fading (Euclidean) vs general metrics.
# ----------------------------------------------------------------------
def run_e14(ns=(10, 20, 40), alphas=(1.5, 2.5, 3.5), seed: int = 141) -> ExperimentOutput:
    """Theorem 17's *fading metric* hypothesis, probed via the path-loss
    exponent: the plane has doubling dimension 2, so α > 2 is fading
    (O(1) promised) and α < 2 is not (only the general O(log n) bound
    applies).  Measured ρ(π) of the Theorem 17 weighted graph should be
    larger and grow faster for α below 2.  A homogeneous shortest-path
    metric is included for reference: there everything interferes with
    everything, the clipped graph degenerates to all-pairs conflicts and
    ρ collapses to 1 (only singleton independent sets)."""
    from repro.geometry.links import random_metric_links
    from repro.graphs.independence import greedy_weighted_independent_set
    from repro.interference.power_control import power_control_structure

    table = Table(["setting", "n", "rho_upper", "greedy_IS_size", "parallelism"])
    parallelism: dict[str, list[float]] = {"fading": [], "nonfading": []}

    def measure(label: str, links, n: int, alpha: float, bucket: str | None) -> None:
        structure = power_control_structure(links, alpha=alpha)
        bounds = weighted_rho_of_ordering(
            structure.graph, structure.ordering, heavy_threshold=0.05
        )
        members, _ = greedy_weighted_independent_set(
            structure.graph, np.ones(n)
        )
        frac = len(members) / n
        if bucket:
            parallelism[bucket].append(frac)
        table.add_row(label, n, bounds.upper, len(members), frac)

    for alpha in alphas:
        for n in ns:
            links = random_links(n, length_range=(0.02, 0.08), seed=seed + n)
            bucket = "fading" if alpha > 2 else "nonfading"
            label = f"alpha={alpha}" + (" (fading)" if alpha > 2 else " (non-fading)")
            measure(label, links, n, alpha, bucket)
    for n in ns:
        links = random_metric_links(n, seed=seed + n)
        measure("shortest-path metric", links, n, 3.0, None)
    return ExperimentOutput(
        "E14 Theorem 17: fading (alpha>2) vs non-fading exponents",
        table,
        {
            "mean_parallelism_fading": float(np.mean(parallelism["fading"])),
            "mean_parallelism_nonfading": float(np.mean(parallelism["nonfading"])),
        },
    )


# ----------------------------------------------------------------------
# E15 — scheduling extension: channels needed to serve everyone.
# ----------------------------------------------------------------------
def run_e15(ns=(20, 40, 80), seed: int = 151) -> ExperimentOutput:
    """Extension (Section 1.2 related work): greedy peeling scheduler on
    the auction substrate.  Reports channels needed vs. n and vs. the
    max-degree+1 coloring bound."""
    from repro.core.scheduling import schedule_all
    from repro.interference.disk import disk_transmitter_model

    table = Table(["model", "n", "channels_used", "max_degree_plus1", "valid"])
    all_valid = True
    for n in ns:
        links = random_links(n, length_range=(0.02, 0.08), seed=seed + n)
        cs = protocol_model(links, 1.0)
        sched = schedule_all(cs)
        valid = sched.validate(cs.graph)
        all_valid &= valid
        table.add_row("protocol", n, sched.num_channels, cs.graph.max_degree() + 1, valid)
        inst = random_disk_instance(n, seed=seed + n)
        ds = disk_transmitter_model(inst)
        sched_d = schedule_all(ds)
        valid_d = sched_d.validate(ds.graph)
        all_valid &= valid_d
        table.add_row("disk", n, sched_d.num_channels, ds.graph.max_degree() + 1, valid_d)
    return ExperimentOutput(
        "E15 scheduling extension: channels to serve all bidders",
        table,
        {"all_valid": all_valid},
    )


# ----------------------------------------------------------------------
# E16 — online arrival baseline (related work [9]) vs offline optimum.
# ----------------------------------------------------------------------
def run_e16(n: int = 10, k: int = 3, instances: int = 6, orders: int = 10, seed: int = 161) -> ExperimentOutput:
    """Competitive ratio of the online greedy against the offline exact
    optimum, over random arrival orders."""
    from repro.core.online import online_greedy

    table = Table(["instance", "opt", "online_mean", "online_worst", "competitive_mean"])
    ratios = []
    for i, child in enumerate(spawn_rngs(seed, instances)):
        inst_seed = int(child.integers(2**31))
        problem = workloads.protocol_auction(n, k, seed=inst_seed, bids_per_bidder=3)
        opt = solve_exact(problem).value
        values = [
            online_greedy(problem, seed=order_rng).welfare
            for order_rng in spawn_rngs(inst_seed + 1, orders)
        ]
        mean_v, worst_v = float(np.mean(values)), float(np.min(values))
        comp = mean_v / opt if opt > 0 else 1.0
        ratios.append(comp)
        table.add_row(i, opt, mean_v, worst_v, comp)
    return ExperimentOutput(
        "E16 online greedy vs offline optimum (extension)",
        table,
        {"mean_competitive_ratio": float(np.mean(ratios))},
    )


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def run_a1_split_ablation(n: int = 40, k: int = 16, reps: int = 30, seed: int = 141) -> ExperimentOutput:
    """A1: the √k bundle-size split (Algorithm 1 line 1) on/off."""
    problem = workloads.protocol_auction(n, k, seed=seed, bids_per_bidder=4)
    lp = compile_auction(problem).solve_lp()
    table = Table(["variant", "mean_welfare"])
    out = {}
    for split in (True, False):
        values = _rounded_welfares(problem, lp, reps, seed + split, split=split)
        out["split" if split else "no_split"] = float(np.mean(values))
        table.add_row("split" if split else "no_split", float(np.mean(values)))
    return ExperimentOutput("A1 bundle-size split ablation", table, out)


def run_a2_resolution_ablation(n: int = 40, k: int = 4, reps: int = 30, seed: int = 151) -> ExperimentOutput:
    """A2: conflict resolution against survivors vs tentative bundles."""
    problem = workloads.protocol_auction(n, k, seed=seed)
    lp = compile_auction(problem).solve_lp()
    table = Table(["variant", "mean_welfare"])
    out = {}
    for mode in ("survivors", "tentative"):
        values = _rounded_welfares(problem, lp, reps, seed, resolve=mode)
        out[mode] = float(np.mean(values))
        table.add_row(mode, float(np.mean(values)))
    return ExperimentOutput("A2 conflict-resolution reference ablation", table, out)


def run_a3_scaling_ablation(n: int = 40, k: int = 4, reps: int = 30, seed: int = 161) -> ExperimentOutput:
    """A3: rounding scale multiplier (paper: 2√kρ)."""
    problem = workloads.protocol_auction(n, k, seed=seed)
    lp = compile_auction(problem).solve_lp()
    base = default_scale(problem)
    table = Table(["scale_multiplier", "scale", "mean_welfare"])
    out = {}
    for mult in (0.25, 0.5, 1.0, 2.0):
        scale = max(1.0, base * mult)
        values = _rounded_welfares(
            problem, lp, reps, seed + int(mult * 100), scale=scale
        )
        out[mult] = float(np.mean(values))
        table.add_row(mult, scale, float(np.mean(values)))
    return ExperimentOutput("A3 rounding-scale ablation", table, out)


def run_a6_ordering_sensitivity(
    n: int = 30, k: int = 4, seed: int = 191
) -> ExperimentOutput:
    """A6: how ordering quality propagates through the pipeline.

    Runs the same protocol-model auction with four orderings — the model's
    certified one, exact-optimal, degeneracy, and random — each paired with
    its *measured* ρ(π) in the LP.  Worse orderings inflate ρ, loosening the
    LP and deflating the derandomized welfare."""
    from repro.graphs.inductive import inductive_independence_number
    from repro.graphs.orderings import degeneracy_ordering, random_ordering
    from repro.interference.base import ConflictStructure

    base = workloads.protocol_auction(n, k, seed=seed)
    graph = base.graph
    exact_rho, exact_order = inductive_independence_number(graph)
    candidates = {
        "certified (length)": base.ordering,
        "exact-optimal": exact_order,
        "degeneracy": degeneracy_ordering(graph),
        "random": random_ordering(graph, seed=seed),
    }
    table = Table(["ordering", "rho_pi", "lp_value", "derand_welfare"])
    out: dict[str, dict] = {}
    for name, ordering in candidates.items():
        rho_pi = max(1, rho_of_ordering(graph, ordering))
        structure = ConflictStructure(graph, ordering, float(rho_pi), "measured")
        problem = AuctionProblem(structure, k, base.valuations)
        lp = AuctionLP(problem).solve()
        welfare = problem.welfare(derandomize_rounding(problem, lp).allocation)
        out[name] = {"rho": rho_pi, "lp": lp.value, "welfare": welfare}
        table.add_row(name, rho_pi, lp.value, welfare)
    return ExperimentOutput(
        "A6 ordering-quality sensitivity",
        table,
        out,
    )


def run_a5_derandomization_comparison(
    n: int = 30, k: int = 4, reps: int = 30, seed: int = 181
) -> ExperimentOutput:
    """A5: conditional expectations vs pairwise-independent seed space vs
    randomized rounding (mean and best-of-reps)."""
    from repro.core.pairwise import pairwise_derandomize

    problem = workloads.protocol_auction(n, k, seed=seed)
    lp = compile_auction(problem).solve_lp()
    cond = problem.welfare(derandomize_rounding(problem, lp).allocation)
    pw = pairwise_derandomize(problem, lp, max_seeds=8000)
    rand_vals = _rounded_welfares(problem, lp, reps, seed)
    table = Table(["method", "welfare", "deterministic"])
    table.add_row("conditional expectations", cond, True)
    table.add_row(f"pairwise q={pw.q}", pw.welfare, True)
    table.add_row(f"randomized mean ({reps} reps)", float(np.mean(rand_vals)), False)
    table.add_row(f"randomized best-of-{reps}", float(np.max(rand_vals)), False)
    return ExperimentOutput(
        "A5 derandomization strategies",
        table,
        {
            "conditional": cond,
            "pairwise": pw.welfare,
            "randomized_mean": float(np.mean(rand_vals)),
            "randomized_best": float(np.max(rand_vals)),
        },
    )


def run_a4_clip_ablation(n: int = 25, k: int = 2, reps: int = 10, seed: int = 171) -> ExperimentOutput:
    """A4: Theorem 17 weights raw vs clipped at 1."""
    from repro.interference.power_control import power_control_structure

    rng = ensure_rng(seed)
    links = random_links(n, length_range=(0.02, 0.08), seed=rng)
    vals = random_xor_valuations(n, k, seed=rng)
    table = Table(["variant", "rho", "lp_value", "mean_welfare"])
    out = {}
    for clip in (True, False):
        structure = power_control_structure(links, clip=clip)
        problem = AuctionProblem(structure, k, vals)
        compiled = compile_auction(problem)
        lp = compiled.solve_lp()
        plan = compiled.rounding_plan(lp)
        draws = stack_draws(spawn_rngs(seed + clip, reps), plan.width)
        values = []
        for partly in round_batch(compiled, plan, draws).allocations:
            res = make_fully_feasible(problem, partly)
            values.append(problem.welfare(res.allocation))
        name = "clipped" if clip else "raw"
        out[name] = {"rho": structure.rho, "welfare": float(np.mean(values))}
        table.add_row(name, structure.rho, lp.value, float(np.mean(values)))
    return ExperimentOutput("A4 Theorem-17 weight clipping ablation", table, out)
