"""Lavi–Swamy decomposition (Section 5).

Writes the scaled LP optimum ``x*/α`` as a convex combination of feasible
*integral* allocations.  Column generation over the decomposition LP:

* master (covering form):  min Σ_l λ_l  s.t.  Σ_l λ_l·𝟙[S_l gives v bundle T]
  ≥ x*_{v,T}/α for every support pair, λ ≥ 0;
* pricing: the master's duals ``w ≥ 0`` act as *adjusted valuations*; the
  approximation algorithm (LP re-solve under w + derandomized rounding,
  + Algorithm 3 for weighted graphs) returns an integral allocation of
  w-value ≥ LPopt_w/α ≥ w·x*/α = α·μ/α = μ, so whenever the master optimum
  μ exceeds 1 a violated dual constraint — a new pool allocation — is found.
  This is exactly how the paper "verifies the integrality gap";
* termination: μ ≤ 1.  The deficit 1 − μ goes to the empty allocation, and
  per-pair *keep probabilities* shave the ≥ down to exact equality, so the
  sampled allocation satisfies  E[𝟙(v gets T)] = x*_{v,T}/α  exactly —
  the property the truthfulness proof needs.

The paper's "slight extension" of Lavi–Swamy is reproduced faithfully: the
ILP behind LP (1)/(4) is *infeasible* (integer LP points may violate actual
channel feasibility); what the decomposition uses is only that the
algorithm outputs **feasible** allocations whose value is within α of the
*fractional* optimum, which our rounding algorithms provide.

One column-generation loop serves the mechanism.  Its pricing oracle runs
on the engine: the support columns are compiled once into a
:class:`~repro.engine.compiled.CompiledAuction` (shared structure
compilation, vectorized CSC assembly); each pricing iteration re-solves
that matrix on the persistent HiGHS backend with a new objective and
rounds with the vectorized derandomization kernels, and the master is
rebuilt from the pool and solved on the same backend.  Every solve is
*cold* (model re-passed, no basis reuse), which is what keeps every
vertex — and therefore the whole decomposition: pool, weights, keep
probabilities, samples — bit-identical to :func:`reference_decomposition`,
the seed-era loop (fresh ``AuctionLP`` build + ``linprog`` per iteration)
kept as the test and benchmark oracle (parity pinned by
``tests/test_mechanism_parity.py``).

``pricing="exact"`` prices with the MILP instead, letting small instances
decompose at any α above their true integrality gap.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.core.auction import Allocation, AuctionProblem
from repro.core.auction_lp import AuctionLP, AuctionLPSolution, Column
from repro.core.conflict_resolution import make_fully_feasible
from repro.core.derandomize import derandomize_rounding
from repro.util.rng import ensure_rng

__all__ = [
    "DecompositionResult",
    "decompose_lp_solution",
    "default_alpha",
    "reference_decomposition",
]

PRICING_MODES = ("approx", "exact")


def default_alpha(problem: AuctionProblem) -> float:
    """The verified integrality gap: 8√kρ, ×2⌈log₂ n⌉ for weighted graphs."""
    return problem.approximation_bound()


@dataclass
class DecompositionResult:
    """A convex combination of feasible allocations matching x*/α exactly."""

    problem: AuctionProblem
    allocations: list[Allocation]
    weights: np.ndarray  # convex weights over `allocations` (sum ≤ 1;
    # the remainder is the empty allocation)
    target: dict[tuple[int, frozenset[int]], float]  # x*_{v,T}/α
    keep_probability: dict[tuple[int, int, frozenset[int]], float]
    alpha: float
    iterations: int
    master_value: float

    @property
    def empty_weight(self) -> float:
        return float(max(0.0, 1.0 - self.weights.sum()))

    def pair_mass(self) -> dict[tuple[int, frozenset[int]], float]:
        """E[𝟙(v gets T)] after keep-probabilities — must equal `target`."""
        mass: dict[tuple[int, frozenset[int]], float] = {k: 0.0 for k in self.target}
        for li, (alloc, lam) in enumerate(zip(self.allocations, self.weights)):
            for v, bundle in alloc.items():
                key = (v, bundle)
                keep = self.keep_probability.get((li, v, bundle), 1.0)
                if key in mass:
                    mass[key] += float(lam) * keep
        return mass

    def expected_welfare(self) -> float:
        """Σ target·b — equals b(x*)/α by construction."""
        return float(
            sum(
                self.problem.valuations[v].value(bundle) * m
                for (v, bundle), m in self.target.items()
            )
        )

    def sample(self, rng=None) -> Allocation:
        """Draw an allocation: pick a pool member by weight, then apply the
        per-pair keep probabilities (dropping a bundle keeps feasibility)."""
        rng = ensure_rng(rng)
        u = rng.random()
        acc = 0.0
        chosen = -1
        for li, lam in enumerate(self.weights):
            acc += float(lam)
            if u < acc:
                chosen = li
                break
        if chosen < 0:
            return {}
        out: Allocation = {}
        for v, bundle in self.allocations[chosen].items():
            keep = self.keep_probability.get((chosen, v, bundle), 1.0)
            if keep >= 1.0 or rng.random() < keep:
                out[v] = bundle
        return out


def _adjusted_problem(
    problem: AuctionProblem, adjusted_cols: list[Column]
) -> AuctionProblem:
    """The problem under the adjusted valuations (one bid per support pair,
    duplicates keep the max) — what the derandomized rounding maximizes."""
    from repro.valuations.explicit import ExplicitValuation

    n = problem.n
    bids: list[dict[frozenset[int], float]] = [dict() for _ in range(n)]
    for col in adjusted_cols:
        if col.value > 0:
            prev = bids[col.vertex].get(col.bundle, 0.0)
            bids[col.vertex][col.bundle] = max(prev, col.value)
    return AuctionProblem(
        structure=problem.structure,
        k=problem.k,
        valuations=[ExplicitValuation(problem.k, b) for b in bids],
    )


def _round_adjusted(
    problem: AuctionProblem,
    adjusted_cols: list[Column],
    x: np.ndarray,
    value: float,
    y: np.ndarray,
    z: np.ndarray,
) -> Allocation:
    """Derandomized rounding (+ Algorithm 3) under adjusted valuations —
    the shared back half of both pricing oracles."""
    solution = AuctionLPSolution(
        columns=adjusted_cols, x=x, value=value, y=y, z=z
    )
    adj_problem = _adjusted_problem(problem, adjusted_cols)
    result = derandomize_rounding(adj_problem, solution)
    allocation = result.allocation
    if problem.is_weighted:
        resolution = make_fully_feasible(adj_problem, allocation)
        allocation = resolution.allocation
    return dict(allocation)


def _integral_allocation_for(
    problem: AuctionProblem,
    lp: AuctionLP,
    objective: np.ndarray,
) -> Allocation:
    """The reference pricing oracle: rebuild LP (1)/(4) and cold-solve it
    under the adjusted valuations `objective` (one value per LP column)."""
    a, b, _ = lp.build()
    from repro.core.lp import solve_packing_lp

    sol = solve_packing_lp(objective, a, b)
    n, k = problem.n, problem.k
    adjusted_cols = [
        Column(col.vertex, col.bundle, float(obj))
        for col, obj in zip(lp.columns, objective)
    ]
    return _round_adjusted(
        problem,
        adjusted_cols,
        sol.x,
        sol.value,
        sol.duals[: n * k].reshape(n, k),
        sol.duals[n * k :],
    )


class _CompiledPricer:
    """The pricing oracle on the engine: compile once, re-price many times.

    The support columns' constraint matrix never changes across pricing
    iterations — only the objective (the master's duals ``w``) does — so
    the matrix is assembled once through :class:`CompiledAuction` (shared
    structure compilation, vectorized CSC assembly).  Each solve re-passes
    the model cold — bit-identical to the reference oracle's ``linprog``
    (only the scipy/AuctionLP rebuild overhead is gone).
    """

    def __init__(
        self,
        problem: AuctionProblem,
        columns: list[Column],
        compiled_structure=None,
    ) -> None:
        from repro.engine.compiled import CompiledAuction, compile_structure

        self._problem = problem
        self._columns = columns
        compiled = CompiledAuction(
            problem,
            structure=compiled_structure or compile_structure(problem.structure),
            columns=columns,
        )
        self._a, self._b, _ = compiled.matrices_csc()

    def price(self, objective: np.ndarray) -> Allocation:
        from repro.engine.highs import solve_packing_lp_fast

        sol = solve_packing_lp_fast(objective, self._a, self._b, solver="simplex")
        n, k = self._problem.n, self._problem.k
        adjusted_cols = [
            Column(col.vertex, col.bundle, float(obj))
            for col, obj in zip(self._columns, objective)
        ]
        return _round_adjusted(
            self._problem,
            adjusted_cols,
            sol.x,
            sol.value,
            sol.duals[: n * k].reshape(n, k),
            sol.duals[n * k :],
        )


def _solve_master(
    pool: list[Allocation],
    pairs: list[tuple[int, frozenset[int]]],
    r: np.ndarray,
) -> tuple[np.ndarray, float, np.ndarray]:
    """min Σλ s.t. Σ_l λ_l 𝟙[pair ∈ l] ≥ r; returns (λ, μ, duals w ≥ 0).

    The reference master: rebuilt from the whole pool and cold-solved with
    ``linprog`` every iteration.
    """
    a = _master_matrix(pool, pairs)
    res = linprog(
        np.ones(len(pool)),
        A_ub=-a,
        b_ub=-r,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"decomposition master failed: {res.message}")
    duals = np.asarray(res.ineqlin.marginals, dtype=float)
    w = np.maximum(-duals, 0.0)  # duals of ≥-rows in min problem are ≤ 0
    return np.asarray(res.x, dtype=float), float(res.fun), w


def _master_matrix(
    pool: list[Allocation], pairs: list[tuple[int, frozenset[int]]]
) -> sp.csr_matrix:
    pair_index = {p: i for i, p in enumerate(pairs)}
    rows, cols, data = [], [], []
    for li, alloc in enumerate(pool):
        for v, bundle in alloc.items():
            idx = pair_index.get((v, bundle))
            if idx is not None:
                rows.append(idx)
                cols.append(li)
                data.append(1.0)
    return sp.coo_matrix((data, (rows, cols)), shape=(len(pairs), len(pool))).tocsr()


def _solve_master_fast(
    pool: list[Allocation],
    pairs: list[tuple[int, frozenset[int]]],
    r: np.ndarray,
) -> tuple[np.ndarray, float, np.ndarray]:
    """The reference master on the persistent HiGHS backend.

    Same model ``linprog`` would pass (min Σλ as max −Σλ over −Aλ ≤ −r),
    cold-solved — primal, value, and duals are bit-identical to
    :func:`_solve_master`; only the scipy call overhead is gone.
    """
    from repro.engine.highs import solve_packing_lp_fast

    a = _master_matrix(pool, pairs)
    sol = solve_packing_lp_fast(
        -np.ones(len(pool)), sp.csc_matrix(-a), -r, solver="simplex"
    )
    return sol.x, float(-sol.value), sol.duals


def decompose_lp_solution(
    problem: AuctionProblem,
    solution: AuctionLPSolution,
    alpha: float | None = None,
    max_iterations: int = 400,
    tolerance: float = 1e-7,
    seed=None,
    pricing: str = "approx",
    compiled_structure=None,
) -> DecompositionResult:
    """Decompose ``x*/α`` into a convex combination of feasible allocations.

    ``pricing`` selects the oracle that searches for violated dual
    constraints: ``"approx"`` is the paper's route (the α-approximation
    itself, valid whenever α is the verified gap 8√kρ / 16√kρ⌈log n⌉) on
    the engine-compiled pricer, bit-identical to
    :func:`reference_decomposition` (parity is pinned by
    ``tests/test_mechanism_parity.py``).  ``"exact"`` prices with the MILP
    of :mod:`repro.core.exact`, letting small instances decompose at *any*
    α down to their true integrality gap.

    ``compiled_structure`` forwards an existing engine compilation of the
    problem's structure to the compiled pricer (the mechanism and the
    auction service pass their cached ones).
    """
    if pricing not in PRICING_MODES:
        raise ValueError(f"unknown pricing mode {pricing!r}")
    return _column_generation(
        problem,
        solution,
        alpha,
        lambda columns: _CompiledPricer(
            problem, columns, compiled_structure=compiled_structure
        ).price,
        _solve_master_fast,
        exact=pricing == "exact",
        max_iterations=max_iterations,
        tolerance=tolerance,
        seed=seed,
    )


def reference_decomposition(
    problem: AuctionProblem,
    solution: AuctionLPSolution,
    alpha: float | None = None,
    seed=None,
) -> DecompositionResult:
    """The seed-era decomposition: the same loop, rebuilding ``AuctionLP``
    for every pricing solve and solving the master with ``linprog``.

    The test and benchmark oracle — :func:`decompose_lp_solution` must
    return a bit-identical result.
    """

    def price_for(columns: list[Column]) -> Callable[[np.ndarray], Allocation]:
        lp = AuctionLP(problem, columns=columns)
        return lambda objective: _integral_allocation_for(problem, lp, objective)

    return _column_generation(
        problem, solution, alpha, price_for, _solve_master, exact=False, seed=seed
    )


def _column_generation(
    problem: AuctionProblem,
    solution: AuctionLPSolution,
    alpha: float | None,
    price_for: Callable[[list[Column]], Callable[[np.ndarray], Allocation]],
    solve_master: Callable[
        [list[Allocation], list[tuple[int, frozenset[int]]], np.ndarray],
        tuple[np.ndarray, float, np.ndarray],
    ],
    exact: bool,
    max_iterations: int = 400,
    tolerance: float = 1e-7,
    seed=None,
) -> DecompositionResult:
    """The column-generation loop behind both decompositions.

    ``price_for(support columns)`` returns the approximation oracle (an
    adjusted objective → an integral allocation); ``solve_master`` solves
    the covering master over the pool.  ``exact`` switches the in-loop
    pricing to the MILP.
    """
    rng = ensure_rng(seed)
    alpha_val = default_alpha(problem) if alpha is None else float(alpha)
    support = solution.support()
    pairs = [(col.vertex, col.bundle) for col, _ in support]
    support_x = np.array([x for _, x in support])
    r = support_x / alpha_val
    target = {p: float(ri) for p, ri in zip(pairs, r)}
    columns = [col for col, _ in support]
    price = price_for(columns)

    # Seed pool: the true-valuation allocation plus per-pair singletons
    # (every single (v, T) is feasible on its own), guaranteeing the master
    # is feasible from the first iteration.
    pool: list[Allocation] = []
    seen: set[tuple[tuple[int, frozenset[int]], ...]] = set()

    def add(alloc: Allocation) -> bool:
        key = tuple(sorted(((v, b) for v, b in alloc.items() if b)))
        if key in seen:
            return False
        seen.add(key)
        pool.append({v: b for v, b in alloc.items() if b})
        return True

    add(price(np.array([c.value for c in columns])))
    for v, bundle in pairs:
        add({v: bundle})

    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        lam, mu, w = solve_master(pool, pairs, r)
        if mu <= 1.0 + tolerance:
            break
        # columns and pairs share the same order by construction
        objective = np.asarray(w, dtype=float).copy()
        if exact:
            from repro.core.exact import solve_exact

            adjusted_cols = [
                Column(c.vertex, c.bundle, float(o))
                for c, o in zip(columns, objective)
                if o > 0
            ]
            exact = solve_exact(problem, columns=adjusted_cols)
            if exact.value <= 1.0 + tolerance:
                raise RuntimeError(
                    f"decomposition infeasible: α={alpha_val} is below this "
                    "instance's integrality gap (exact pricing found no "
                    "violated constraint while the master optimum is "
                    f"{mu:.4f} > 1)"
                )
            new_alloc = exact.allocation
        else:
            new_alloc = price(objective)
        if not add(new_alloc):
            # Pricing returned a known allocation: numerically stuck.  Try a
            # randomized escape before giving up (theory says w-value ≥ μ).
            escaped = False
            from repro.core.rounding import round_unweighted, round_weighted

            adjusted = AuctionLPSolution(
                columns=[
                    Column(c.vertex, c.bundle, float(o))
                    for c, o in zip(columns, objective)
                ],
                x=support_x,
                value=solution.value,
                y=solution.y,
                z=solution.z,
            )
            for _ in range(10):
                if problem.is_weighted:
                    alloc, _ = round_weighted(problem, adjusted, rng)
                else:
                    alloc, _ = round_unweighted(problem, adjusted, rng)
                if add(alloc):
                    escaped = True
                    break
            if not escaped:
                raise RuntimeError(
                    "decomposition pricing stalled; the verified integrality "
                    f"gap α={alpha_val} may be too small for this instance"
                )
    else:
        raise RuntimeError("decomposition did not converge")

    # Exact equality via keep probabilities: achieved mass may exceed r.
    achieved = {p: 0.0 for p in pairs}
    for li, alloc in enumerate(pool):
        if lam[li] <= 0:
            continue
        for v, bundle in alloc.items():
            key = (v, bundle)
            if key in achieved:
                achieved[key] += lam[li]
    keep: dict[tuple[int, int, frozenset[int]], float] = {}
    for li, alloc in enumerate(pool):
        if lam[li] <= 0:
            continue
        for v, bundle in alloc.items():
            key = (v, bundle)
            if key not in achieved:
                keep[(li, v, bundle)] = 0.0  # outside support: always drop
            elif achieved[key] > target[key]:
                keep[(li, v, bundle)] = target[key] / achieved[key]

    used = [li for li in range(len(pool)) if lam[li] > tolerance]
    allocations = [pool[li] for li in used]
    weights = np.array([lam[li] for li in used])
    keep_remap = {
        (used.index(li), v, b): q for (li, v, b), q in keep.items() if li in used
    }
    total = float(weights.sum())
    if total > 1.0:  # normalize tiny numerical overshoot
        weights = weights / total
    return DecompositionResult(
        problem=problem,
        allocations=allocations,
        weights=weights,
        target=target,
        keep_probability=keep_remap,
        alpha=alpha_val,
        iterations=iterations,
        master_value=float(mu),
    )
