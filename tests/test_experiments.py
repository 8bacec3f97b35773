"""Smoke + contract tests for the experiment harness (tiny parameters)."""

from __future__ import annotations

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.harness import (
    run_a1_split_ablation,
    run_a2_resolution_ablation,
    run_a3_scaling_ablation,
    run_a5_derandomization_comparison,
    run_e1,
    run_e2,
    run_e3,
    run_e6,
    run_e8,
    run_e9,
    run_e10,
    run_e11,
    run_e13,
    run_e14,
    run_e15,
)
from repro.experiments.report import render_report, run_all
from repro.experiments.workloads import (
    disk_auction,
    physical_auction,
    power_control_auction,
    protocol_auction,
    theorem18_auction,
)


class TestWorkloads:
    def test_protocol_auction_shape(self):
        p = protocol_auction(8, 3, seed=1)
        assert p.n == 8 and p.k == 3
        assert not p.is_weighted

    def test_disk_auction(self):
        p = disk_auction(8, 2, seed=2)
        assert p.rho == 5

    def test_physical_auction_weighted(self):
        p = physical_auction(8, 2, seed=3)
        assert p.is_weighted

    def test_physical_auction_schemes(self):
        for scheme in ("uniform", "linear", "mean"):
            p = physical_auction(6, 2, seed=4, scheme=scheme)
            assert p.is_weighted

    def test_power_control_auction(self):
        p = power_control_auction(8, 2, seed=5)
        assert p.structure.metadata["model"] == "power-control"

    def test_theorem18_auction(self):
        problem, base = theorem18_auction(10, 4, 2, seed=6)
        assert problem.k == 2 and problem.rho == 2
        assert base.n == 10

    def test_reproducible(self):
        a = protocol_auction(8, 3, seed=7)
        b = protocol_auction(8, 3, seed=7)
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())


class TestExperimentContracts:
    """Small-parameter runs asserting each experiment's headline claim."""

    def test_e1_bounds(self):
        out = run_e1(n=15, ks=(1, 4), reps=10, seed=1)
        assert out.summary["all_bounds_met"]

    def test_e2_bound(self):
        out = run_e2(ns=(15,), reps=2, seed=2)
        assert out.summary["worst_measured"] <= 5

    def test_e3_bound(self):
        out = run_e3(deltas=(1.0,), n=15, reps=2, seed=3)
        assert out.summary["all_within_bound"]

    def test_e6_bounds(self):
        out = run_e6(n=12, ks=(2,), reps=5, seed=4)
        assert out.summary["all_bounds_met"]
        assert out.summary["rounds_within_log"]

    def test_e8_exactness(self):
        out = run_e8(n=8, k=2, misreports=2, seed=5)
        assert out.summary["mass_error"] <= 1e-7
        assert out.summary["max_misreport_gain"] <= 1e-6
        # the mechanism against the seed-era oracles on the same instance
        assert out.summary["marginals_identical"]
        assert out.summary["pool_identical"]
        assert out.summary["payment_parity_gap"] <= 1e-6

    def test_e9_bounds(self):
        out = run_e9(n=12, d=4, ks=(1, 2), reps=10, seed=6)
        assert out.summary["all_bounds_met"]

    def test_e10_gap(self):
        out = run_e10(ns=(4, 8), seed=7)
        assert out.summary["max_inductive_gap"] <= 2.0 + 1e-9

    def test_e11_ordering(self):
        out = run_e11(n=8, k=2, instances=3, seed=8)
        assert 0 <= out.summary["derandomized"] <= 1.0 + 1e-9

    def test_e13_deterministic_bounds(self):
        out = run_e13(n=15, ks=(1, 4), seed=9)
        assert out.summary["all_bounds_met"]

    def test_e14_parallelism(self):
        out = run_e14(ns=(8, 12), alphas=(1.5, 3.5), seed=10)
        assert (
            out.summary["mean_parallelism_fading"]
            >= out.summary["mean_parallelism_nonfading"]
        )

    def test_e15_valid(self):
        out = run_e15(ns=(12,), seed=11)
        assert out.summary["all_valid"]

    def test_e16_ratio_range(self):
        from repro.experiments.harness import run_e16

        out = run_e16(n=8, k=2, instances=2, orders=4, seed=16)
        assert 0 < out.summary["mean_competitive_ratio"] <= 1.0 + 1e-9

    def test_a1_runs(self):
        out = run_a1_split_ablation(n=12, k=4, reps=5, seed=12)
        assert set(out.summary) == {"split", "no_split"}

    def test_a2_survivors_dominates(self):
        out = run_a2_resolution_ablation(n=12, k=2, reps=10, seed=13)
        assert out.summary["survivors"] >= out.summary["tentative"] - 1e-9

    def test_a3_monotone_in_scale(self):
        out = run_a3_scaling_ablation(n=15, k=2, reps=15, seed=14)
        # Smaller scale → more mass rounded → weakly more welfare on average.
        assert out.summary[0.25] >= out.summary[2.0] - 1e-9

    def test_a5_deterministic_beats_mean(self):
        out = run_a5_derandomization_comparison(n=12, k=2, reps=10, seed=15)
        assert out.summary["conditional"] >= out.summary["randomized_mean"]


class TestReport:
    def test_run_subset_and_render(self):
        results = run_all(["E10"])
        text = render_report(results)
        assert "E10" in text and "total: 1 experiments" in text

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_all(["E99"])

    def test_all_ids_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            *(f"E{i}" for i in range(1, 17)),
            "A1",
            "A2",
            "A3",
            "A4",
            "A5",
            "A6",
        }

    def test_output_render_contains_table(self):
        out = run_e10(ns=(4,), seed=1)
        rendered = out.render()
        assert "edge_lp" in rendered and out.experiment in rendered
