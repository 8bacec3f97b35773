"""Tests for valuations and demand oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.valuations.additive import (
    AdditiveValuation,
    BudgetedAdditiveValuation,
    CappedAdditiveValuation,
    UnitDemandValuation,
)
from repro.valuations.base import EMPTY_BUNDLE, Valuation, enumerate_bundles
from repro.valuations.explicit import (
    ExplicitValuation,
    SingleMindedValuation,
    XORValuation,
)
from repro.valuations.generators import (
    all_or_nothing_valuations,
    random_additive_valuations,
    random_budgeted_valuations,
    random_capped_additive_valuations,
    random_mixed_valuations,
    random_single_minded_valuations,
    random_unit_demand_valuations,
    random_xor_valuations,
)
from repro.valuations.oracles import brute_force_demand, verify_demand_oracle


class TestEnumerateBundles:
    def test_counts(self):
        assert len(list(enumerate_bundles(3))) == 8
        assert frozenset() in list(enumerate_bundles(2))


class TestExplicit:
    def test_value_table(self):
        v = ExplicitValuation(3, {frozenset({0, 1}): 7.0})
        assert v.value(frozenset({0, 1})) == 7.0
        assert v.value(frozenset({0, 1, 2})) == 0.0  # non-monotone allowed
        assert v.value(EMPTY_BUNDLE) == 0.0

    def test_negative_bid_rejected(self):
        with pytest.raises(ValueError):
            ExplicitValuation(2, {frozenset({0}): -1.0})

    @pytest.mark.parametrize("bid", [float("nan"), float("inf")])
    def test_non_finite_bid_rejected(self, bid):
        with pytest.raises(ValueError):
            ExplicitValuation(2, {frozenset({0}): bid})
        with pytest.raises(ValueError):
            XORValuation(2, {frozenset({0}): bid})

    def test_out_of_range_bundle(self):
        with pytest.raises(ValueError):
            ExplicitValuation(2, {frozenset({5}): 1.0})

    def test_demand_matches_brute_force(self):
        v = ExplicitValuation(4, {frozenset({0}): 3.0, frozenset({1, 2}): 5.0})
        assert verify_demand_oracle(v, trials=30, price_scale=4.0, seed=1)

    def test_support(self):
        v = ExplicitValuation(3, {frozenset({1}): 2.0})
        assert v.support() == [frozenset({1})]
        assert v.max_value() == 2.0


class TestXOR:
    def test_free_disposal(self):
        v = XORValuation(3, {frozenset({0}): 4.0, frozenset({1, 2}): 6.0})
        assert v.value(frozenset({0, 1})) == 4.0
        assert v.value(frozenset({0, 1, 2})) == 6.0

    def test_demand_empty_when_prices_high(self):
        v = XORValuation(2, {frozenset({0}): 1.0})
        bundle, util = v.demand(np.array([10.0, 10.0]))
        assert bundle == EMPTY_BUNDLE and util == 0.0

    def test_demand_with_negative_prices(self):
        v = XORValuation(3, {frozenset({0}): 4.0})
        bundle, util = v.demand(np.array([1.0, -2.0, 0.5]))
        # Taking the bid plus the negatively-priced channel is optimal.
        assert 1 in bundle
        assert util == pytest.approx(5.0)
        achieved = v.value(bundle) - (1.0 * (0 in bundle)) + 2.0 * (1 in bundle) - 0.5 * (2 in bundle)
        assert achieved == pytest.approx(util)

    def test_oracle_verified(self):
        for v in random_xor_valuations(5, 4, seed=2):
            assert verify_demand_oracle(v, trials=30, price_scale=60.0, seed=3)


class TestSingleMinded:
    def test_construction(self):
        v = SingleMindedValuation(4, frozenset({1, 3}), 9.0)
        assert v.value(frozenset({1, 3})) == 9.0
        assert v.value(frozenset({1})) == 0.0
        assert v.value(frozenset({0, 1, 3})) == 9.0

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError):
            SingleMindedValuation(3, frozenset(), 1.0)


class TestAdditiveFamilies:
    def test_additive_value_and_demand(self):
        v = AdditiveValuation(np.array([3.0, 1.0, 2.0]))
        assert v.value(frozenset({0, 2})) == 5.0
        bundle, util = v.demand(np.array([1.0, 2.0, 1.0]))
        assert bundle == frozenset({0, 2})
        assert util == pytest.approx(3.0)

    def test_unit_demand(self):
        v = UnitDemandValuation(np.array([3.0, 5.0]))
        assert v.value(frozenset({0, 1})) == 5.0
        bundle, _ = v.demand(np.array([0.0, 4.0]))
        assert bundle == frozenset({0})  # margin 3 beats margin 1

    def test_capped_additive(self):
        v = CappedAdditiveValuation(np.array([5.0, 4.0, 3.0]), cap=2)
        assert v.value(frozenset({0, 1, 2})) == 9.0
        bundle, util = v.demand(np.zeros(3))
        assert bundle == frozenset({0, 1}) and util == 9.0

    def test_budgeted_value(self):
        v = BudgetedAdditiveValuation(np.array([5.0, 5.0]), budget=7.0)
        assert v.value(frozenset({0, 1})) == 7.0
        assert v.value(frozenset({0})) == 5.0

    def test_budgeted_demand_exact_small_k(self):
        v = BudgetedAdditiveValuation(np.array([5.0, 5.0, 2.0]), budget=7.0)
        assert verify_demand_oracle(v, trials=40, price_scale=6.0, seed=4)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdditiveValuation(np.array([-1.0]))
        with pytest.raises(ValueError):
            CappedAdditiveValuation(np.array([1.0]), cap=0)
        with pytest.raises(ValueError):
            BudgetedAdditiveValuation(np.array([1.0]), budget=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_per_channel_rejected(self, bad):
        values = np.array([1.0, bad])
        for make in (
            AdditiveValuation,
            UnitDemandValuation,
            lambda v: CappedAdditiveValuation(v, cap=1),
            lambda v: BudgetedAdditiveValuation(v, budget=2.0),
        ):
            with pytest.raises(ValueError):
                make(values)

    def test_max_values(self):
        assert AdditiveValuation(np.array([1.0, 2.0])).max_value() == 3.0
        assert UnitDemandValuation(np.array([1.0, 2.0])).max_value() == 2.0
        assert CappedAdditiveValuation(np.array([1.0, 2.0, 3.0]), 2).max_value() == 5.0
        assert BudgetedAdditiveValuation(np.array([4.0, 4.0]), 5.0).max_value() == 5.0


class TestGenerators:
    @pytest.mark.parametrize(
        "factory",
        [
            random_xor_valuations,
            random_additive_valuations,
            random_unit_demand_valuations,
            random_capped_additive_valuations,
            random_budgeted_valuations,
            random_single_minded_valuations,
            random_mixed_valuations,
        ],
    )
    def test_oracles_exact(self, factory):
        for v in factory(4, 4, seed=5):
            assert verify_demand_oracle(v, trials=25, price_scale=40.0, seed=6)

    def test_reproducible(self):
        a = random_xor_valuations(3, 4, seed=7)
        b = random_xor_valuations(3, 4, seed=7)
        for va, vb in zip(a, b):
            assert va.bids == vb.bids

    def test_all_or_nothing(self):
        vals = all_or_nothing_valuations(4, 3, value=2.0)
        full = frozenset(range(3))
        for v in vals:
            assert v.value(full) == 2.0
            assert v.value(frozenset({0})) == 0.0

    def test_brute_force_demand_reference(self):
        v = XORValuation(3, {frozenset({0, 1}): 5.0})
        bundle, util = brute_force_demand(v, np.array([1.0, 1.0, 9.0]))
        assert bundle == frozenset({0, 1}) and util == 3.0


class TestSupportItems:
    """support_items() must equal [(T, value(T)) for T in support()]."""

    @pytest.mark.parametrize(
        "factory",
        [
            random_xor_valuations,
            random_single_minded_valuations,
            random_mixed_valuations,
        ],
    )
    def test_matches_value_queries(self, factory):
        for v in factory(5, 4, seed=31):
            items = v.support_items()
            supp = v.support()
            if supp is None:
                assert items is None
                continue
            assert [bundle for bundle, _ in items] == supp
            for bundle, value in items:
                assert value == v.value(bundle)

    def test_xor_free_disposal_closure(self):
        # a sub-bid worth more than the bid on the superset itself
        v = XORValuation(3, {frozenset({0}): 9.0, frozenset({0, 1}): 4.0})
        assert dict(v.support_items())[frozenset({0, 1})] == 9.0

    def test_oracle_only_returns_none(self):
        class OracleOnly(Valuation):
            def value(self, bundle):
                return float(len(bundle))

        assert OracleOnly(3).support_items() is None
