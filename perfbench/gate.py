"""The correctness gate: independent checks of what the program served.

Each check returns a list of violation messages (empty = pass); the
:class:`Gate` collects them and decides the run's ``correct`` flag and
exit status.  Feasibility is re-derived from the scene's conflict graph
(CSR adjacency), never taken from ``response.feasible``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

LP_REL_TOL = 1e-9
MASS_TOL = 1e-9
VALUE_REL_TOL = 1e-9


class Gate:
    def __init__(self) -> None:
        self.violations: list[str] = []
        self.checked = 0

    def add(self, messages: Iterable[str]) -> None:
        self.checked += 1
        self.violations.extend(messages)

    @property
    def ok(self) -> bool:
        return not self.violations


def independence_violations(
    indptr: np.ndarray,
    indices: np.ndarray,
    k: int,
    allocation: Mapping[int, Iterable[int]],
    tag: str = "",
) -> list[str]:
    """Is every channel's holder set independent in the conflict graph?

    ``indptr``/``indices`` are the CSR arrays of the symmetric adjacency.
    Also rejects channels outside ``range(k)`` and vertices outside the
    graph.
    """
    n = len(indptr) - 1
    out: list[str] = []
    holders: dict[int, list[int]] = {}
    for v, bundle in allocation.items():
        if not 0 <= int(v) < n:
            out.append(f"{tag}vertex {v} outside the scene (n={n})")
            continue
        for j in bundle:
            if not 0 <= int(j) < k:
                out.append(f"{tag}vertex {v} holds channel {j} outside range(k={k})")
            else:
                holders.setdefault(int(j), []).append(int(v))
    for j, vertices in sorted(holders.items()):
        mask = np.zeros(n, dtype=bool)
        mask[vertices] = True
        for v in vertices:
            nbrs = indices[indptr[v] : indptr[v + 1]]
            clash = nbrs[mask[nbrs]]
            if clash.size:
                out.append(
                    f"{tag}channel {j}: vertices {v} and {int(clash[0])} conflict"
                )
                break
    return out


def welfare_of(valuations: Sequence[Any], allocation: Mapping[int, frozenset[int]]) -> float:
    return float(sum(valuations[v].value(frozenset(b)) for v, b in allocation.items()))


def allocate_violations(
    indptr: np.ndarray,
    indices: np.ndarray,
    k: int,
    valuations: Sequence[Any],
    response: Any,
    tag: str = "",
) -> list[str]:
    """An allocate response: independent on every channel, welfare as
    reported (recomputed from the request's own valuations), and not
    above the LP bound it reports."""
    out = independence_violations(indptr, indices, k, response.allocation, tag)
    welfare = welfare_of(valuations, response.allocation)
    if abs(welfare - response.welfare) > VALUE_REL_TOL * max(1.0, abs(welfare)):
        out.append(f"{tag}reported welfare {response.welfare} != recomputed {welfare}")
    if welfare > response.lp_value * (1 + VALUE_REL_TOL) + VALUE_REL_TOL:
        out.append(f"{tag}welfare {welfare} exceeds LP value {response.lp_value}")
    return out


def lp_match_violations(live: float, replay: float, tag: str = "") -> list[str]:
    if abs(live - replay) > LP_REL_TOL * max(1.0, abs(replay)):
        return [f"{tag}live lp_value {live!r} != replayed {replay!r}"]
    return []


def pair_mass_error(decomposition: Any) -> float:
    """Largest |achieved pair mass − target| over the support pairs."""
    mass = decomposition.pair_mass()
    return max(
        (abs(mass[key] - target) for key, target in decomposition.target.items()),
        default=0.0,
    )


def expected_values(decomposition: Any, valuations: Sequence[Any], n: int) -> np.ndarray:
    """Each bidder's expected value under the published distribution."""
    out = np.zeros(n)
    for (v, bundle), mass in decomposition.target.items():
        out[v] += valuations[v].value(bundle) * mass
    return out


def truthful_violations(
    indptr: np.ndarray,
    indices: np.ndarray,
    k: int,
    valuations: Sequence[Any],
    outcome: Any,
    tag: str = "",
) -> list[str]:
    """A truthful outcome: exact decomposition, individually rational
    payments, and a sampled allocation independent on every channel."""
    out = independence_violations(indptr, indices, k, outcome.sampled_allocation, tag)
    err = pair_mass_error(outcome.decomposition)
    if err > MASS_TOL:
        out.append(f"{tag}decomposition pair-mass error {err:.3e} > {MASS_TOL}")
    values = expected_values(outcome.decomposition, valuations, len(indptr) - 1)
    over = np.flatnonzero(outcome.payments > values + VALUE_REL_TOL * np.maximum(1.0, values))
    if over.size:
        v = int(over[0])
        out.append(
            f"{tag}bidder {v} pays {outcome.payments[v]!r} > expected value {values[v]!r}"
        )
    return out


def accounting_violations(sent: int, completed: int, failed: int) -> list[str]:
    """Every request sent resolved, as a success or a counted failure."""
    if completed + failed != sent:
        return [f"sent {sent} requests but {completed} completed and {failed} failed"]
    return []
