"""Order-free VCG payment probes: fixed blocks restarted from the base basis.

Every "LP without v" probe restarts, with its block, from the base LP's
optimal basis, so payments are a function of (model, base basis, block)
only.  These tests pin that bit-exactly across fan-out widths (forced
through the private ``_probe_width`` hook) and across a forked process
pool, check the values against the reference per-bidder rebuild, and
exercise the failure path from whichever thread runs the failing block.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.engine.highs as highs_backend
import repro.mechanism.vcg as vcg
from repro.core.solver import SpectrumAuctionSolver
from repro.experiments.workloads import metro_truthful_auction
from repro.mechanism.lavi_swamy import default_alpha
from repro.service import AuctionRequest, AuctionService

# n=140, k=4 probes 74 bidders: three blocks (32, 32, 10), while the
# reference rebuild it is checked against stays under two seconds
N = 140
K = 4


@pytest.fixture(scope="module")
def instance():
    problem = metro_truthful_auction(N, K, seed=1)
    solution = SpectrumAuctionSolver(problem).solve_lp("auto")
    return problem, solution, default_alpha(problem)


def probed_bidders(solution, contributions):
    """The bidders the dual screen does not skip, in probe order."""
    z = np.asarray(solution.z)
    return np.flatnonzero((contributions > 0) & (contributions - z > 1e-9))


def payments_at_width(monkeypatch, instance, width):
    monkeypatch.setattr(vcg, "_probe_width", lambda: width)
    return vcg.vcg_payments(*instance, method="warm")


def test_payments_bit_identical_across_widths_and_match_reference(
    monkeypatch, instance
):
    problem, solution, alpha = instance
    runs = [payments_at_width(monkeypatch, instance, w) for w in (1, 2, 3)]
    probed = probed_bidders(solution, runs[0].contributions)
    assert -(-probed.size // vcg._PROBE_BLOCK) >= 3
    for run in runs[1:]:
        assert np.array_equal(run.payments, runs[0].payments)
        assert np.array_equal(run.lp_without, runs[0].lp_without)
    reference = vcg.vcg_payments(problem, solution, alpha, method="reference")
    np.testing.assert_allclose(runs[0].payments, reference.payments, atol=1e-6)
    np.testing.assert_allclose(
        runs[0].lp_without[probed], reference.lp_without[probed], atol=1e-6
    )
    screened = np.setdiff1d(np.flatnonzero(runs[0].contributions > 0), probed)
    assert screened.size > 0
    assert np.all(runs[0].payments[screened] == 0)
    np.testing.assert_array_equal(
        runs[0].lp_without[screened],
        solution.value - np.asarray(solution.z)[screened],
    )


class _FailingHighs:
    """A HiGHS instance whose probes of chosen bidders report infeasible."""

    def __init__(self, inner, failing_columns):
        self._inner = inner
        self._failing_columns = failing_columns
        self._zeroed = frozenset()

    def changeColsCost(self, count, idx, costs):
        self._zeroed = frozenset(idx.tolist()) if not np.any(costs) else frozenset()
        return self._inner.changeColsCost(count, idx, costs)

    def getModelStatus(self):
        if self._zeroed and self._zeroed <= self._failing_columns:
            return highs_backend.highs_core().HighsModelStatus.kInfeasible
        return self._inner.getModelStatus()

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_failing_probe_raises_first_block_in_order(monkeypatch, instance, width):
    problem, solution, alpha = instance
    expected = payments_at_width(monkeypatch, instance, width)
    probed = probed_bidders(solution, expected.contributions).tolist()
    block = vcg._PROBE_BLOCK
    first, later = probed[block + 3], probed[2 * block + 1]  # blocks 1 and 2
    failing_columns = frozenset(
        j for j, col in enumerate(solution.columns) if col.vertex in (first, later)
    )
    created = []
    real_new = highs_backend.new_highs_instance

    def failing_instance():
        highs = _FailingHighs(real_new(), failing_columns)
        created.append(weakref.ref(highs))
        return highs

    monkeypatch.setattr(highs_backend, "new_highs_instance", failing_instance)
    message = f"VCG probe for bidder {first} failed: "
    with pytest.raises(RuntimeError, match=message) as excinfo:
        vcg.vcg_payments(problem, solution, alpha, method="warm")
    assert "Infeasible" in str(excinfo.value)
    del excinfo
    gc.collect()
    assert 1 <= len(created) <= width
    assert all(ref() is None for ref in created)  # every instance freed
    monkeypatch.setattr(highs_backend, "new_highs_instance", real_new)
    again = vcg.vcg_payments(problem, solution, alpha, method="warm")
    assert np.array_equal(again.payments, expected.payments)


def test_forked_pool_worker_serves_truthful_after_parent_fanned_out(
    monkeypatch, instance
):
    """The parent's helper threads exist when the pool forks; the worker
    resets them at spawn and its payments equal the serial ones."""
    problem = instance[0]
    monkeypatch.setattr(vcg, "_probe_width", lambda: 2)  # inherited by the fork
    request_args = (K, problem.valuations)
    serial = AuctionService(executor="serial")
    scene_id = serial.register_scene(problem.structure)
    expected = serial.solve_batch(
        [AuctionRequest(scene_id, *request_args, seed=3, mode="truthful")]
    )[0]
    assert vcg._PROBE_THREADS._executor is not None
    pooled = AuctionService(executor="process", num_shards=1, mp_start_method="fork")
    pooled.register_scene(problem.structure)
    try:
        got = pooled.submit(
            AuctionRequest(scene_id, *request_args, seed=3, mode="truthful")
        ).result(timeout=120)
    finally:
        assert pooled.close(timeout=120)
    assert np.array_equal(got.payments, expected.payments)
    assert got.sampled_allocation == expected.sampled_allocation
