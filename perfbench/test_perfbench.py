"""Tests of the benchmark's own arithmetic and correctness gate.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from gate import (
    accounting_violations,
    allocate_violations,
    independence_violations,
    lp_match_violations,
    truthful_violations,
)
from spans import Recorder, Span, coverage, self_times, union_length
from stats import (
    beyond,
    due_latencies,
    median,
    percentile,
    quartile_spread,
    share_within,
    tail_level,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(1, 4), (3, 6)]) == 5
    assert union_length([(1, 2), (3, 4), (0.5, 1.5)]) == pytest.approx(2.5)
    assert union_length([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span("request", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a on [3, 4]
        Span("a.inner", 2.0, 3.0, 1, 0),
    ]
    # root: 10 − |[1, 6]|; a: 3 − 1; b: no children; inner: leaf
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_self_time_clips_children_to_their_parent():
    spans = [Span("request", 0.0, 2.0, -1, 0), Span("late", 1.5, 3.0, 0, 0)]
    assert self_times(spans) == pytest.approx([1.5, 1.5])


def test_coverage_is_layer_self_time_over_root_time():
    spans = [
        Span("request", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("wire.request_encode", 20.0, 21.0, -1, 0),  # another root: ignored
    ]
    # a and b cover [1, 6] between them, but their self times sum to 6
    assert coverage(spans) == pytest.approx(0.6)


def test_recorder_nests_and_disabled_recorder_records_nothing():
    rec = Recorder()
    with rec.span("request", 7):
        with rec.span("a", 7):
            pass
        with rec.span("b", 7):
            pass
    assert [(s.name, s.parent, s.request) for s in rec.spans] == [
        ("request", -1, 7), ("a", 0, 7), ("b", 0, 7)
    ]
    assert all(s.end >= s.start for s in rec.spans)
    off = Recorder(enabled=False)
    with off.span("request"):
        pass
    assert off.spans == []


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_percentile_is_inverted_cdf_like_numpy_and_service_metrics():
    rng = np.random.default_rng(0)
    for size in (1, 2, 7, 20, 199, 200):
        xs = list(rng.exponential(size=size))
        for q in (1, 25, 50, 75, 90, 95, 99, 100):
            assert percentile(xs, q) == np.percentile(xs, q, method="inverted_cdf")
    assert median([3.0, 1.0, 2.0, 4.0]) == 2.0  # an observed value, not 2.5


@pytest.mark.parametrize(
    ("count", "level"),
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0),
     (40, 75.0), (39, 50.0), (20, 50.0), (7, 50.0)],
)
def test_tail_level_keeps_ten_samples_beyond(count, level):
    assert tail_level(count) == level
    if count >= 20:
        assert beyond(count, level) >= 10


def test_failed_requests_sort_last_and_miss_every_limit():
    xs = [0.1, 0.2, math.inf]
    assert percentile(xs, 100) == math.inf
    assert percentile(xs, 50) == 0.2
    assert share_within(xs, 10.0) == pytest.approx(2 / 3)


# ----------------------------------------------------------------------
# open-loop due-time latency
# ----------------------------------------------------------------------
def test_latency_is_timed_from_due_time_not_send_time():
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 1.3, 2.0]  # the generator stalled 0.3 s before request 1
    done = [0.25, 1.5, None]  # request 2 failed
    lat = due_latencies(due, done)
    assert lat[:2] == pytest.approx([0.25, 0.5])  # not 0.2 from the send
    assert lat[1] > done[1] - sent[1]
    assert lat[2] == math.inf
    assert share_within(lat, 0.4) == pytest.approx(1 / 3)


def test_due_latencies_rejects_misaligned_input():
    with pytest.raises(ValueError):
        due_latencies([0.0], [])


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 10.2, 9.8, 10.1, 9.9, 10.3, 10.0]
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / q2)


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
def _path_graph():
    """0 — 1 — 2, as the symmetric CSR a scene's conflict graph exposes."""
    rows, cols = [0, 1, 1, 2], [1, 0, 2, 1]
    csr = sp.csr_matrix((np.ones(4, dtype=bool), (rows, cols)), shape=(3, 3))
    return csr.indptr, csr.indices


class _Bid:
    def __init__(self, value: float) -> None:
        self._value = value

    def value(self, bundle: frozenset[int]) -> float:
        return self._value if bundle else 0.0


def test_gate_fires_on_a_planted_infeasible_allocation():
    indptr, indices = _path_graph()
    ok = {0: frozenset({0}), 1: frozenset({1}), 2: frozenset({0})}
    assert independence_violations(indptr, indices, 2, ok) == []
    planted = {0: frozenset({0}), 1: frozenset({0, 1})}  # 0 and 1 share channel 0
    found = independence_violations(indptr, indices, 2, planted)
    assert len(found) == 1 and "channel 0" in found[0]
    assert independence_violations(indptr, indices, 2, {2: frozenset({5})})
    assert independence_violations(indptr, indices, 2, {9: frozenset({0})})


def test_gate_checks_reported_welfare_and_lp_bound_not_feasible_flag():
    indptr, indices = _path_graph()
    bids = [_Bid(3.0), _Bid(4.0), _Bid(5.0)]
    alloc = {0: frozenset({0}), 2: frozenset({0})}
    good = SimpleNamespace(allocation=alloc, welfare=8.0, lp_value=9.0, feasible=True)
    assert allocate_violations(indptr, indices, 2, bids, good) == []
    lying = SimpleNamespace(
        allocation={0: frozenset({0}), 1: frozenset({0})}, welfare=7.0, lp_value=9.0,
        feasible=True,  # the flag says feasible; the graph says otherwise
    )
    assert allocate_violations(indptr, indices, 2, bids, lying)
    over = SimpleNamespace(allocation=alloc, welfare=8.0, lp_value=7.0, feasible=True)
    assert any("exceeds LP" in m for m in allocate_violations(indptr, indices, 2, bids, over))
    wrong = SimpleNamespace(allocation=alloc, welfare=8.5, lp_value=9.0, feasible=True)
    assert any("welfare" in m for m in allocate_violations(indptr, indices, 2, bids, wrong))


def test_lp_match_is_relative_1e9():
    assert lp_match_violations(1e6, 1e6 * (1 + 5e-10)) == []
    assert lp_match_violations(1e6, 1e6 * (1 + 2e-9))


def test_truthful_gate_checks_pair_mass_and_payments():
    indptr, indices = _path_graph()
    bids = [_Bid(3.0), _Bid(4.0), _Bid(5.0)]
    target = {(0, frozenset({0})): 0.5, (2, frozenset({1})): 0.25}

    def outcome(mass_error: float, payments: list[float]) -> SimpleNamespace:
        mass = {key: value + mass_error for key, value in target.items()}
        decomposition = SimpleNamespace(target=target, pair_mass=lambda: mass)
        return SimpleNamespace(
            decomposition=decomposition,
            payments=np.array(payments),
            sampled_allocation={0: frozenset({0})},
        )

    assert truthful_violations(indptr, indices, 2, bids, outcome(0.0, [1.5, 0.0, 1.25])) == []
    assert truthful_violations(indptr, indices, 2, bids, outcome(1e-6, [0.0, 0.0, 0.0]))
    # bidder 0 expects 3 × 0.5 = 1.5 and may pay no more
    unfair = truthful_violations(indptr, indices, 2, bids, outcome(0.0, [1.6, 0.0, 0.0]))
    assert any("bidder 0" in m for m in unfair)


def test_accounting_counts_every_request_sent():
    assert accounting_violations(10, 9, 1) == []
    assert accounting_violations(10, 9, 0)  # one request lost


# ----------------------------------------------------------------------
# the runner and BENCHMARK.json agree
# ----------------------------------------------------------------------
def test_benchmark_json_lists_exactly_the_metrics_the_runner_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
