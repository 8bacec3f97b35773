"""Fork-reset registry contract (repro.util.mp) and the invariants it
protects: the HiGHS backend registers its reset hook at import, workers
can require it at spawn, and scene fingerprinting never mutates the
shared structure it hashes."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.util.mp import (
    register_fork_reset,
    registered_fork_resets,
    run_fork_resets,
)


def _pop_hooks(*names: str) -> None:
    # the registry has no public unregister (production hooks live for
    # the process); tests clean up their uniquely-named entries directly
    from repro.util import mp

    with mp._RESET_REGISTRY_LOCK:
        for name in names:
            mp._fork_resets.pop(name, None)


def test_register_and_run_round_trip():
    calls: list[str] = []
    try:
        register_fork_reset("test.hook.a", lambda: calls.append("a"))
        register_fork_reset("test.hook.b", lambda: calls.append("b"))
        assert "test.hook.a" in registered_fork_resets()
        ran = run_fork_resets()
        assert ("test.hook.a", "test.hook.b") == tuple(
            n for n in ran if n.startswith("test.hook.")
        )
        assert calls == sorted(calls)  # hooks run in sorted-name order
        assert "a" in calls and "b" in calls
    finally:
        _pop_hooks("test.hook.a", "test.hook.b")


def test_reregistering_same_name_replaces_not_accumulates():
    first: list[int] = []
    second: list[int] = []
    try:
        register_fork_reset("test.hook.idem", lambda: first.append(1))
        register_fork_reset("test.hook.idem", lambda: second.append(1))
        assert registered_fork_resets().count("test.hook.idem") == 1
        run_fork_resets()
        # idempotent-by-name: a module reload replaces its hook rather
        # than running two copies
        assert first == [] and second == [1]
    finally:
        _pop_hooks("test.hook.idem")


def test_require_missing_hook_raises():
    with pytest.raises(RuntimeError, match="test.hook.definitely-absent"):
        run_fork_resets(require=("test.hook.definitely-absent",))


def test_highs_backend_registers_its_hook_on_import():
    import repro.engine.highs  # noqa: F401  (import side effect under test)

    assert "repro.engine.highs" in registered_fork_resets()
    # the hook the pool worker requires at spawn actually runs
    assert "repro.engine.highs" in run_fork_resets(require=("repro.engine.highs",))


def test_highs_reset_clears_thread_state():
    from repro.engine import highs

    # simulate fork-inherited state: a stale instance map and a loaded
    # warm-start record pointing at a parent-lifetime model
    highs._local.instances = {"simplex": object()}
    highs._local.loaded = ("stale-key", None, None)
    run_fork_resets(require=("repro.engine.highs",))
    assert not hasattr(highs._local, "instances")
    assert not hasattr(highs._local, "loaded")


def _unsorted_structure() -> SimpleNamespace:
    # CSR with deliberately unsorted column indices within row 0
    indptr = np.array([0, 2, 2, 2])
    indices = np.array([2, 1])
    data = np.array([1.0, 1.0])
    csr = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
    assert not csr.has_sorted_indices
    return SimpleNamespace(
        n=3,
        rho=1.0,
        ordering=SimpleNamespace(perm=np.array([0, 1, 2])),
        graph=SimpleNamespace(csr=csr),
    )


def test_scene_fingerprint_does_not_mutate_shared_structure():
    from repro.service.scenes import scene_fingerprint

    structure = _unsorted_structure()
    before = structure.graph.csr.indices.copy()
    fp = scene_fingerprint(structure)
    assert isinstance(fp, str) and len(fp) == 16
    # hashing must not sort the shared matrix in place: a concurrent
    # solver thread may be reading it (this is the bug reprolint's
    # kernel-mutation rule exists to catch)
    assert not structure.graph.csr.has_sorted_indices
    np.testing.assert_array_equal(structure.graph.csr.indices, before)
    # and the fingerprint is canonical: the sorted twin hashes the same
    sorted_structure = _unsorted_structure()
    sorted_structure.graph.csr.sort_indices()
    assert scene_fingerprint(sorted_structure) == fp


def test_vcg_reset_drops_inherited_probe_threads():
    from repro.mechanism import vcg

    inherited = vcg._PROBE_THREADS
    executor = inherited.executor(1)  # as if the parent had fanned probes out
    try:
        ran = run_fork_resets(require=("repro.mechanism.vcg",))
        assert "repro.mechanism.vcg" in ran
        assert vcg._PROBE_THREADS is not inherited
        assert vcg._PROBE_THREADS._executor is None
    finally:
        executor.shutdown()
