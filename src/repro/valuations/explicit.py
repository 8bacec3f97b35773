"""Explicitly tabulated valuations (finite bid lists).

Two semantics:

* :class:`ExplicitValuation` — the paper's raw ``b_{v,T}`` table: value is
  defined bundle-by-bundle with no relation between bundles (non-monotone
  allowed, matching the paper's "no restrictions, not even monotonicity").
* :class:`XORValuation` — free-disposal XOR bids: the value of ``T`` is the
  best bid contained in ``T``.

Both have exact linear-time demand oracles (scan the bid list), and both
expose their bid list via :meth:`support` so the LP can enumerate columns.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from repro.valuations.base import EMPTY_BUNDLE, Valuation

__all__ = ["ExplicitValuation", "XORValuation", "SingleMindedValuation"]


def _column_arrays(items: list[tuple[frozenset[int], float]]):
    """Pre-flattened LP-column arrays over positive-value support items
    (the :meth:`Valuation.support_column_arrays` contract)."""
    entries = [(b, v) for b, v in items if b and v > 0]
    bundles = [b for b, _ in entries]
    values = np.array([v for _, v in entries], dtype=float)
    sizes = np.fromiter((len(b) for b in bundles), dtype=np.intp, count=len(bundles))
    channels = np.fromiter(
        (j for b in bundles for j in b), dtype=np.intp, count=int(sizes.sum())
    )
    return bundles, values, sizes, channels


def _normalize_bids(bids: Mapping[frozenset[int], float], k: int) -> dict[frozenset[int], float]:
    out: dict[frozenset[int], float] = {}
    for bundle, value in bids.items():
        fs = frozenset(bundle)
        if any(not 0 <= j < k for j in fs):
            raise ValueError(f"bundle {sorted(fs)} out of range for k={k}")
        if not 0 <= value < math.inf:  # also rejects NaN
            raise ValueError("bid values must be finite and non-negative")
        if not fs:
            if value != 0:
                raise ValueError("the empty bundle must have value 0")
            continue
        out[fs] = float(value)
    return out


class ExplicitValuation(Valuation):
    """``b_{v,T}`` given by a finite table; unlisted bundles are worth 0."""

    def __init__(self, k: int, bids: Mapping[frozenset[int], float]) -> None:
        super().__init__(k)
        self.bids = _normalize_bids(bids, k)
        self._column_arrays = _column_arrays(list(self.bids.items()))

    def support_column_arrays(self):
        return self._column_arrays

    def value(self, bundle: frozenset[int]) -> float:
        self._check_bundle(bundle)
        return self.bids.get(frozenset(bundle), 0.0)

    def demand(self, prices: np.ndarray) -> tuple[frozenset[int], float]:
        p = self._check_prices(prices)
        best, best_util = EMPTY_BUNDLE, 0.0
        for bundle, value in self.bids.items():
            util = value - sum(p[j] for j in bundle)
            if util > best_util + 1e-12:
                best, best_util = bundle, util
        return best, float(best_util)

    def support(self) -> list[frozenset[int]]:
        return list(self.bids)

    def support_items(self) -> list[tuple[frozenset[int], float]]:
        return list(self.bids.items())

    def max_value(self) -> float:
        return max(self.bids.values(), default=0.0)


class XORValuation(Valuation):
    """Free-disposal XOR bids: ``value(T) = max{b(S) : S ⊆ T, S a bid}``."""

    def __init__(self, k: int, bids: Mapping[frozenset[int], float]) -> None:
        super().__init__(k)
        self.bids = _normalize_bids(bids, k)
        # the free-disposal closure is computed eagerly: column enumeration
        # sits on the engine's cold solve path, valuation construction does
        # not (fleets are generated before solving starts)
        masks = [sum(1 << j for j in bundle) for bundle in self.bids]
        values = list(self.bids.values())
        self._support_items: list[tuple[frozenset[int], float]] = [
            (
                bundle,
                max(
                    (
                        value
                        for other, value in zip(masks, values)
                        if other & mask == other
                    ),
                    default=0.0,
                ),
            )
            for bundle, mask in zip(self.bids, masks)
        ]
        self._column_arrays = _column_arrays(self._support_items)

    def support_column_arrays(self):
        return self._column_arrays

    def value(self, bundle: frozenset[int]) -> float:
        self._check_bundle(bundle)
        fs = frozenset(bundle)
        return max((b for s, b in self.bids.items() if s <= fs), default=0.0)

    def demand(self, prices: np.ndarray) -> tuple[frozenset[int], float]:
        # With non-negative prices it is never useful to take channels
        # beyond the winning bid, so scanning bids is exact.  Negative
        # prices can arise transiently inside column generation; there the
        # bundle is padded with every negatively-priced channel.
        p = self._check_prices(prices)
        free = frozenset(int(j) for j in np.flatnonzero(p < 0))
        pad_gain = float(-p[list(free)].sum()) if free else 0.0
        best, best_util = (free, pad_gain) if pad_gain > 0 else (EMPTY_BUNDLE, 0.0)
        for bundle, value in self.bids.items():
            take = bundle | free
            util = value - sum(p[j] for j in take)  # value(take) ≥ value
            if util > best_util + 1e-12:
                best, best_util = take, util
        return best, float(best_util)

    def support(self) -> list[frozenset[int]]:
        return list(self.bids)

    def support_items(self) -> list[tuple[frozenset[int], float]]:
        # value(T) for a bid T is the best bid *contained in* T, which may
        # exceed the bid on T itself (free-disposal closure, precomputed in
        # __init__)
        return self._support_items

    def max_value(self) -> float:
        return max(self.bids.values(), default=0.0)


class SingleMindedValuation(XORValuation):
    """A bidder wanting exactly one bundle (free disposal above it)."""

    def __init__(self, k: int, bundle: frozenset[int], value: float) -> None:
        if not bundle:
            raise ValueError("a single-minded bidder must want a non-empty bundle")
        super().__init__(k, {frozenset(bundle): float(value)})
        self.bundle = frozenset(bundle)
        self.bid_value = float(value)
