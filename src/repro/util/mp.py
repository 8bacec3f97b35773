"""Multiprocessing start-method policy for the process fan-out.

One place in the system spawns worker processes — the service's
:class:`~repro.service.pool.ProcessShardPool` — and it needs an answer
to "how should a worker be started?":

* ``fork`` is the cheapest (workers inherit the parent's imports and any
  already-registered scenes for free) but is unsafe once the parent has
  threads — and the pool lives in code that runs threads (the service's
  dispatcher, pytest, user frontends).  Python 3.12 deprecates
  it in exactly that situation.
* ``spawn`` is always safe but pays a full interpreter start plus the
  numpy/scipy/HiGHS import cascade (~1s) *per worker*.
* ``forkserver`` is the middle path: one clean server process is started
  before worker one, imports are paid once in the server, and each worker
  is a cheap fork of that thread-free server.

``default_start_method`` therefore prefers ``forkserver`` where the
platform offers it (Linux, macOS) and falls back to ``spawn``;
:class:`~repro.service.service.AuctionService` exposes a
``mp_start_method`` knob that forwards here, so ``"fork"`` can still be
chosen explicitly by a single-threaded driver that wants the
inherited-snapshot speedup.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.context
import threading
from typing import Callable

__all__ = [
    "default_start_method",
    "mp_context",
    "register_fork_reset",
    "registered_fork_resets",
    "run_fork_resets",
]


def default_start_method() -> str:
    """The preferred start method on this platform (never ``fork``)."""
    if "forkserver" in mp.get_all_start_methods():
        return "forkserver"
    return "spawn"


def mp_context(method: str | None = "auto") -> multiprocessing.context.BaseContext:
    """A :mod:`multiprocessing` context for ``method``.

    ``"auto"`` (or ``None``) resolves through :func:`default_start_method`;
    anything else is passed to :func:`multiprocessing.get_context` verbatim,
    so an unsupported method raises ``ValueError`` here rather than at the
    first spawn.
    """
    if method in (None, "auto"):
        method = default_start_method()
    return mp.get_context(method)


# ----------------------------------------------------------------------
# fork-reset registry
# ----------------------------------------------------------------------
# Modules that keep native handles in a ``threading.local`` (the
# persistent HiGHS backend: loaded model, warm-start key) register a
# reset hook here.  Worker processes call :func:`run_fork_resets` on
# entry, *requiring* the hooks they depend on — so "worker forgot to drop
# inherited solver state" (the PR 6 bug class) fails loudly at spawn time
# instead of warm-starting against another process's model.
_RESET_REGISTRY_LOCK = threading.Lock()
_fork_resets: dict[str, Callable[[], None]] = {}  # repro: allow[module-state] -- all access below holds _RESET_REGISTRY_LOCK


def register_fork_reset(name: str, reset: Callable[[], None]) -> None:
    """Register (or replace) the fork-reset hook for ``name``.

    ``name`` is the owning module's dotted path by convention; re-registering
    is idempotent-by-name so module reloads do not accumulate hooks.
    """
    with _RESET_REGISTRY_LOCK:
        _fork_resets[name] = reset


def registered_fork_resets() -> tuple[str, ...]:
    """Names with a registered hook, sorted for stable reporting."""
    with _RESET_REGISTRY_LOCK:
        return tuple(sorted(_fork_resets))


def run_fork_resets(require: tuple[str, ...] = ()) -> tuple[str, ...]:
    """Run every registered hook; returns the names run (sorted).

    ``require`` asserts that specific hooks exist before anything runs —
    a worker that depends on ``repro.engine.highs`` being reset passes it
    here and gets a loud ``RuntimeError`` if the registration went
    missing, rather than a silent stale-handle solve.
    """
    with _RESET_REGISTRY_LOCK:
        hooks = sorted(_fork_resets.items())
    missing = [name for name in require if name not in dict(hooks)]
    if missing:
        raise RuntimeError(
            "required fork-reset hook(s) not registered: "
            + ", ".join(sorted(missing))
            + " — import the owning module before spawning workers"
        )
    for _, reset in hooks:
        reset()
    return tuple(name for name, _ in hooks)
