"""Structured valuations with polynomial exact demand oracles.

These model the paper's motivating bidders: devices with channel
aggregation (additive up to a capacity), single-channel radios
(unit-demand), and budget caps.  All demand oracles are exact.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.valuations.base import EMPTY_BUNDLE, Valuation

__all__ = [
    "AdditiveValuation",
    "UnitDemandValuation",
    "CappedAdditiveValuation",
    "BudgetedAdditiveValuation",
]


def _per_channel_values(per_channel: np.ndarray) -> np.ndarray:
    v = np.asarray(per_channel, dtype=float)
    if v.ndim != 1 or not np.isfinite(v).all() or (v < 0).any():
        raise ValueError("per-channel values must be a finite non-negative vector")
    return v


class AdditiveValuation(Valuation):
    """``value(T) = Σ_{j∈T} v_j``; demand takes every channel worth its price."""

    def __init__(self, per_channel: np.ndarray) -> None:
        v = _per_channel_values(per_channel)
        super().__init__(v.shape[0])
        self.per_channel = v

    def value(self, bundle: frozenset[int]) -> float:
        self._check_bundle(bundle)
        return float(sum(self.per_channel[j] for j in bundle))

    def demand(self, prices: np.ndarray) -> tuple[frozenset[int], float]:
        p = self._check_prices(prices)
        gains = self.per_channel - p
        take = np.flatnonzero(gains > 1e-12)
        return frozenset(int(j) for j in take), float(gains[take].sum())

    def max_value(self) -> float:
        return float(self.per_channel.sum())


class UnitDemandValuation(Valuation):
    """``value(T) = max_{j∈T} v_j``; demand is the best single channel."""

    def __init__(self, per_channel: np.ndarray) -> None:
        v = _per_channel_values(per_channel)
        super().__init__(v.shape[0])
        self.per_channel = v

    def value(self, bundle: frozenset[int]) -> float:
        self._check_bundle(bundle)
        return float(max((self.per_channel[j] for j in bundle), default=0.0))

    def demand(self, prices: np.ndarray) -> tuple[frozenset[int], float]:
        p = self._check_prices(prices)
        gains = self.per_channel - p
        j = int(np.argmax(gains))
        if gains[j] > 1e-12:
            return frozenset([j]), float(gains[j])
        return EMPTY_BUNDLE, 0.0

    def max_value(self) -> float:
        return float(self.per_channel.max(initial=0.0))


class CappedAdditiveValuation(Valuation):
    """Additive value of the best ``cap`` channels in the bundle.

    Models radios that can aggregate at most ``cap`` channels.  Demand picks
    the top-``cap`` channels by positive margin (exact: the objective is
    separable once the cap binds on sorted margins).
    """

    def __init__(self, per_channel: np.ndarray, cap: int) -> None:
        v = _per_channel_values(per_channel)
        if cap < 1:
            raise ValueError("cap must be at least 1")
        super().__init__(v.shape[0])
        self.per_channel = v
        self.cap = min(cap, self.k)

    def value(self, bundle: frozenset[int]) -> float:
        self._check_bundle(bundle)
        vals = sorted((self.per_channel[j] for j in bundle), reverse=True)
        return float(sum(vals[: self.cap]))

    def demand(self, prices: np.ndarray) -> tuple[frozenset[int], float]:
        p = self._check_prices(prices)
        gains = self.per_channel - p
        order = np.argsort(-gains, kind="stable")[: self.cap]
        take = [int(j) for j in order if gains[j] > 1e-12]
        return frozenset(take), float(sum(gains[j] for j in take))

    def max_value(self) -> float:
        top = np.sort(self.per_channel)[::-1][: self.cap]
        return float(top.sum())


class BudgetedAdditiveValuation(Valuation):
    """``value(T) = min(budget, Σ_{j∈T} v_j)``.

    The exact demand oracle enumerates which channel (if any) straddles the
    budget: for each candidate "last" channel the rest is a greedy fill,
    which is exponential in the worst case; here we use exact brute force
    over subsets for k ≤ ``brute_force_limit`` and otherwise a provably
    safe two-regime search (all-under-budget greedy vs. cheapest bundle
    reaching the budget by greedy value/price ratio — exact when values are
    integers from our generators, the paper's ``b: V × 2^[k] → N``).
    """

    def __init__(self, per_channel: np.ndarray, budget: float, brute_force_limit: int = 16) -> None:
        v = _per_channel_values(per_channel)
        if budget <= 0:
            raise ValueError("budget must be positive")
        super().__init__(v.shape[0])
        self.per_channel = v
        self.budget = float(budget)
        self.brute_force_limit = brute_force_limit

    def value(self, bundle: frozenset[int]) -> float:
        self._check_bundle(bundle)
        return float(min(self.budget, sum(self.per_channel[j] for j in bundle)))

    def demand(self, prices: np.ndarray) -> tuple[frozenset[int], float]:
        p = self._check_prices(prices)
        if self.k <= self.brute_force_limit:
            best, best_util = EMPTY_BUNDLE, 0.0
            channels = list(range(self.k))
            for size in range(self.k + 1):
                for combo in combinations(channels, size):
                    fs = frozenset(combo)
                    util = self.value(fs) - sum(p[j] for j in fs)
                    if util > best_util + 1e-12:
                        best, best_util = fs, util
            return best, float(best_util)
        # Large k: under-budget regime is plain additive; over-budget regime
        # wants the cheapest subset whose value reaches the budget.
        gains = self.per_channel - p
        under = np.flatnonzero(gains > 1e-12)
        best = frozenset(int(j) for j in under)
        best_util = float(gains[under].sum())
        if self.per_channel[under].sum() > self.budget:
            # Greedy by value-per-price fill to reach the budget cheaply.
            order = sorted(
                range(self.k),
                key=lambda j: (p[j] / max(self.per_channel[j], 1e-12)),
            )
            total_v, total_p, chosen = 0.0, 0.0, []
            for j in order:
                if self.per_channel[j] <= 0:
                    continue
                chosen.append(j)
                total_v += self.per_channel[j]
                total_p += p[j]
                if total_v >= self.budget:
                    break
            util = min(self.budget, total_v) - total_p
            if util > best_util + 1e-12:
                best, best_util = frozenset(chosen), float(util)
        return best, best_util

    def max_value(self) -> float:
        return float(min(self.budget, self.per_channel.sum()))
