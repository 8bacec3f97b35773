"""Scaled fractional VCG payments (Section 5 / Lavi–Swamy).

The allocation rule of the mechanism is "sample from the decomposition of
x*/α", whose expected bidder-v value is exactly ``v's LP share / α``.
Charging 1/α times the *fractional* VCG payments then makes the mechanism
truthful in expectation:

    pay_v = ( LPopt(without v) − (LPopt − v's LP contribution) ) / α.

Both terms are LP solves of the same relaxation, so payments inherit the
LP's polynomial solvability.  Payments are clipped at 0 from below (they
are provably ≥ 0 for packing problems; the clip only guards numerics) and
never exceed v's expected value (individual rationality), which tests
verify.

The n "LP without bidder v" terms are cost-zeroing probes restarted from
the base LP's optimal basis.  Removing bidder v's columns changes the
optimal *value* exactly as zeroing their objective coefficients does
(zero-cost columns never help and never hurt a packing LP), so each probe is
``changeColsCost(v's columns → 0)`` + a primal-simplex re-solve + a cost
restore, instead of rebuilding an ``AuctionLP`` and cold-solving
``linprog`` per bidder.  Changing costs keeps every basis primal
feasible, so primal simplex restarts without a phase 1.

*Block/basis policy.*  The base LP is solved once and its optimal basis
kept.  The probe list, in bidder order, is cut into fixed blocks of
:data:`_PROBE_BLOCK`; each block starts from a clean solver
(``clearSolver`` + ``setBasis(base)``) and chains its probes within the
block.  Every payment is therefore a function of (model, base basis,
block) only: it does not depend on the order the blocks run in, on how
many threads run them, on the executor serving the request, or on the
host's core count — the tests pin payments bit-exactly across widths
and executors.  Optimal LP *values* are unique, so the floats differ
from the cold reference path only within solver tolerance.

*Width.*  Blocks fan out over ``min(usable cores, blocks)`` HiGHS
instances: the caller's thread plus a lazily created, persistent module
thread pool (HiGHS ``run()`` releases the GIL).  Each helper loads the
model into its own instance for the call and frees it when the call
ends.  A process-pool worker counts ``max(1, cores // num_shards)`` as
its usable cores, set once at worker start.  A probe with a non-optimal
status raises ``RuntimeError`` naming its bidder, whichever thread ran
it: the first failing block in block order wins and blocks not yet
started are cancelled.

Before probing, bidders are screened with the dual bound: dropping v
keeps ``(y, z without z_v)`` feasible for the reduced dual, so
``LPopt(without v) ≤ LPopt − z_v`` and the externality is at most
``contribution_v − z_v`` — when that is ≤ 0 the payment is provably
zero and the probe is skipped (typically a third of all bidders on the
metro workloads).  ``lp_without`` records the dual upper bound for
screened bidders.

:func:`reference_vcg_payments` is the seed-era per-bidder rebuild: the
test oracle, and what :func:`vcg_payments` computes when the persistent
HiGHS bindings are missing.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.auction import AuctionProblem
from repro.core.auction_lp import AuctionLP, AuctionLPSolution
from repro.util.mp import register_fork_reset

__all__ = ["FractionalVCG", "reference_vcg_payments", "vcg_payments"]

# probes per block: the block cut decides which basis each probe restarts
# from, and so the last bits of every payment — a constant, never tuned
_PROBE_BLOCK = 32
_PRIMAL_SIMPLEX = 4  # HiGHS ``simplex_strategy`` value for primal simplex


@dataclass
class FractionalVCG:
    payments: np.ndarray  # per bidder, already scaled by 1/α
    lp_value: float
    lp_without: np.ndarray  # LPopt with each bidder removed
    contributions: np.ndarray  # each bidder's share of the LP optimum


def _lp_value_without(problem: AuctionProblem, lp: AuctionLP, vertex: int) -> float:
    """LP optimum with ``vertex``'s columns removed (valuation zeroed)."""
    cols = [c for c in lp.columns if c.vertex != vertex]
    if not cols:
        return 0.0
    sub = AuctionLP(problem, columns=cols)
    return sub.solve().value


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


class _ProbeThreads:
    """The persistent helper threads that run probe blocks beside the caller.

    The executor is created on the first call that fans out and replaced
    by a larger one when a call needs more helpers than it has.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None  #: guarded-by: _lock
        self._size = 0  #: guarded-by: _lock
        self.cores = _usable_cores()

    def executor(self, helpers: int) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None or self._size < helpers:
                if self._executor is not None:
                    self._executor.shutdown(wait=False)  # queued blocks still run
                self._executor = ThreadPoolExecutor(
                    helpers, thread_name_prefix="vcg-probe"
                )
                self._size = helpers
            return self._executor


_PROBE_THREADS = _ProbeThreads()


def _reset_probe_threads() -> None:
    """Start this process's helper threads afresh.

    A forked child inherits the executor object but none of its threads
    (and possibly a lock some parent thread held), so pool workers drop it
    before their first solve.
    """
    global _PROBE_THREADS
    _PROBE_THREADS = _ProbeThreads()


register_fork_reset("repro.mechanism.vcg", _reset_probe_threads)


def _share_cores(num_shards: int) -> None:
    """Count this process's share of the host's cores as its usable ones
    (a process-pool worker, once at start)."""
    _PROBE_THREADS.cores = max(1, _usable_cores() // num_shards)


def _probe_width() -> int:
    """HiGHS instances a probe call may run at once."""
    return _PROBE_THREADS.cores


class _BlockQueue:
    """Block indices handed out in increasing order to the draining threads.

    Because blocks are taken in order, every block before a failing one
    was taken before it and runs to completion, so "the first failing
    block in block order" is well defined whichever thread failed.
    """

    def __init__(self, count: int) -> None:
        self._lock = threading.Lock()
        self._next = 0  #: guarded-by: _lock
        self._count = count

    def take(self) -> int | None:
        with self._lock:
            if self._next >= self._count:
                return None
            self._next += 1
            return self._next - 1

    def stop(self) -> None:
        with self._lock:
            self._next = self._count


@dataclass
class _ProbeRun:
    """One call's probe blocks, the state they restart from, their results."""

    model: tuple[Any, ...]  # pass_colwise_model arguments after the instance
    base: Any  # the base LP's optimal HighsBasis
    blocks: list[list[tuple[int, np.ndarray]]]  # (bidder, its column indices)
    queue: _BlockQueue
    values: list[list[float] | None]
    failures: list[str | None]

    def drain(self, highs: Any = None) -> None:
        """Run blocks until none are left; loads a per-call instance for
        a helper thread that gets at least one block."""
        from repro.engine.highs import (
            highs_core,
            new_highs_instance,
            pass_colwise_model,
        )

        index = self.queue.take()
        if index is not None and highs is None:
            highs = new_highs_instance()
            highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
            pass_colwise_model(highs, *self.model)
        optimal = highs_core().HighsModelStatus.kOptimal
        cost = self.model[1]
        while index is not None:
            highs.clearSolver()
            highs.setBasis(self.base)
            values: list[float] = []
            self.values[index] = values
            for v, idx in self.blocks[index]:
                highs.changeColsCost(idx.size, idx, np.zeros(idx.size))
                highs.run()
                status = highs.getModelStatus()
                if status != optimal:
                    self.failures[index] = (
                        f"VCG probe for bidder {v} failed: "
                        f"{highs.modelStatusToString(status)}"
                    )
                    self.queue.stop()
                    return
                values.append(-highs.getInfo().objective_function_value)
                highs.changeColsCost(idx.size, idx, cost[idx])
            index = self.queue.take()


def _warm_values_without(
    problem: AuctionProblem,
    solution: AuctionLPSolution,
    probe_vertices: list[int],
    compiled_structure=None,
) -> dict[int, float] | None:
    """All "LP without v" optima via cost-zeroing probes in fixed blocks.

    Returns ``None`` when the persistent backend is unavailable (callers
    fall back to the reference per-bidder rebuild).
    """
    from repro.engine.compiled import CompiledAuction, compile_structure
    from repro.engine.highs import highs_core, new_highs_instance, pass_colwise_model

    core = highs_core()
    if core is None:
        return None
    if not probe_vertices:  # everything screened: no model to build
        return {}
    compiled = CompiledAuction(
        problem,
        structure=compiled_structure or compile_structure(problem.structure),
        columns=list(solution.columns),
    )
    a, b, c = compiled.matrices_csc()
    m, ncol = a.shape
    # HiGHS minimizes: cost = -c
    model = (a, -c, np.zeros(ncol), np.full(ncol, np.inf), np.full(m, -np.inf), b)
    highs = new_highs_instance()
    pass_colwise_model(highs, *model)
    highs.run()  # the base LP, whose optimal basis every block restarts from
    if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
        raise RuntimeError("VCG base LP solve failed")
    highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)

    # columns grouped by bidder once: a stable sort keeps each group's
    # indices ascending, as a per-bidder flatnonzero would give them
    verts = np.fromiter(
        (col.vertex for col in solution.columns), dtype=np.intp, count=ncol
    )
    order = np.argsort(verts, kind="stable").astype(np.int32)
    grouped = verts[order]
    starts = np.searchsorted(grouped, probe_vertices, side="left")
    ends = np.searchsorted(grouped, probe_vertices, side="right")
    probes = [(v, order[lo:hi]) for v, lo, hi in zip(probe_vertices, starts, ends)]
    blocks = [
        probes[i : i + _PROBE_BLOCK] for i in range(0, len(probes), _PROBE_BLOCK)
    ]
    run = _ProbeRun(
        model=model,
        base=highs.getBasis(),
        blocks=blocks,
        queue=_BlockQueue(len(blocks)),
        values=[None] * len(blocks),
        failures=[None] * len(blocks),
    )
    width = min(_probe_width(), len(blocks))
    helpers = []
    if width > 1:
        executor = _PROBE_THREADS.executor(width - 1)
        helpers = [executor.submit(run.drain) for _ in range(width - 1)]
    try:
        run.drain(highs)
    finally:
        run.queue.stop()  # a no-op unless the caller's drain raised
        for future in helpers:
            future.cancel()  # still queued behind another call: not needed
        wait(helpers)
    for future in helpers:
        if not future.cancelled():
            future.result()
    failure = next((f for f in run.failures if f is not None), None)
    if failure is not None:
        raise RuntimeError(failure)
    values = [value for block in run.values for value in block]
    return {v: float(value) for (v, _), value in zip(probes, values)}


def _contributions(problem: AuctionProblem, solution: AuctionLPSolution) -> np.ndarray:
    """Each bidder's share of the LP optimum."""
    contributions = np.zeros(problem.n)
    for col, x in solution.support():
        contributions[col.vertex] += col.value * x
    return contributions


def _payments(
    solution: AuctionLPSolution,
    alpha: float,
    contributions: np.ndarray,
    values_without: dict[int, float],
    screened: set[int],
) -> FractionalVCG:
    """Scaled payments from the "LP without v" optima of the probed bidders
    (``screened`` ones pay zero and record the dual bound)."""
    lp_without = np.full(contributions.size, float(solution.value))
    payments = np.zeros(contributions.size)
    for v in screened:
        lp_without[v] = float(solution.value) - float(solution.z[v])
    for v, value in values_without.items():
        lp_without[v] = value
        externality = value - (solution.value - contributions[v])
        payments[v] = max(0.0, externality) / alpha
    return FractionalVCG(
        payments=payments,
        lp_value=solution.value,
        lp_without=lp_without,
        contributions=contributions,
    )


def vcg_payments(
    problem: AuctionProblem,
    solution: AuctionLPSolution,
    alpha: float,
    compiled_structure=None,
) -> FractionalVCG:
    """Compute scaled fractional VCG payments for every bidder.

    Screens bidders with the dual bound and evaluates the rest with the
    block-restarted probes; ``compiled_structure`` forwards an existing
    engine compilation.  Without the persistent HiGHS bindings this is
    :func:`reference_vcg_payments`.
    """
    contributions = _contributions(problem, solution)
    probes = [v for v in range(problem.n) if contributions[v] > 0]
    # dual screening: externality ≤ contribution_v − z_v, so bidders at or
    # below zero provably pay nothing — skip the solve, record the dual
    # bound in lp_without
    screened = {v for v in probes if contributions[v] - float(solution.z[v]) <= 1e-9}
    values = _warm_values_without(
        problem,
        solution,
        [v for v in probes if v not in screened],
        compiled_structure=compiled_structure,
    )
    if values is None:
        return reference_vcg_payments(problem, solution, alpha)
    return _payments(solution, alpha, contributions, values, screened)


def reference_vcg_payments(
    problem: AuctionProblem, solution: AuctionLPSolution, alpha: float
) -> FractionalVCG:
    """The seed-era payments: one fresh ``AuctionLP`` solve per bidder with
    a positive LP share, no screening — the test oracle."""
    contributions = _contributions(problem, solution)
    lp = AuctionLP(problem, columns=list(solution.columns))
    values = {
        v: _lp_value_without(problem, lp, v)
        for v in range(problem.n)
        if contributions[v] > 0
    }
    return _payments(solution, alpha, contributions, values, set())
