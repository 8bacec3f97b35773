"""Multi-process shard pool: worker processes that outlive the GIL ceiling.

The thread-shard executor of :class:`~repro.service.AuctionService` tops
out near 1x on distinct-heavy traffic: every shard shares one GIL, and a
distinct request's cost is almost entirely Python + NumPy solve work that
never releases it for long.  :class:`ProcessShardPool` replaces the shard
threads with a pool of **long-lived worker processes**, each owning the
full per-shard solver state:

* its own persistent HiGHS backend (per-process ``threading.local``, warm
  bases included),
* its own LRU caches of compiled structures / compiled auctions /
  prepared mechanism outcomes,
* its own worker-side :class:`~repro.service.AuctionService` running the
  *identical* synchronous ``solve_batch`` code path the in-process
  executors use — which is what makes pool results bit-identical to the
  serial path for seeded requests (pinned by the placement-invariance
  tests).

Design points, mirroring the request-stream framing of the paper's
secondary-spectrum setting (scenes are stable, valuations churn):

**Pickle-once scene shipping.**  Workers are spawned with a snapshot of
the registry, and any scene registered later crosses the pipe at most
once per worker — the parent tracks a per-worker ``shipped`` set and
sends ``("scene", id, structure)`` only on first use.  Requests
themselves carry only valuations + a seed.

**Affinity routing with spill.**  A scene's *home* worker is
``hash(scene_id) % workers``, so repeat traffic keeps hitting the worker
whose caches and warm LP bases already hold that scene.  When the home
worker is busier than the least-loaded one, the batch spills to the
least-loaded worker instead (deterministic scan from the home index):
distinct-heavy traffic on one hot scene — the workload this pool exists
for — then spreads across all workers instead of serializing behind the
scene's home shard.  Spilling never changes results, only which process
computes them.

**Crash recovery.**  Each worker conversation is strictly
send-batch/receive-results, so a dead worker surfaces as ``EOFError`` on
the pipe.  The owning parent thread respawns the worker (fresh
generation, fresh registry snapshot) and retries the in-flight batch up
to ``max_retries`` times before failing its futures with
:class:`WorkerCrashError`; later batches queued behind it are unaffected.
Respawns back off exponentially (``respawn_backoff`` doubling per
consecutive crash, capped at ``backoff_cap``), and a slot that crashes
more than ``respawn_limit`` times in a row trips a per-worker **circuit
breaker**: the slot is abandoned, routing and queued jobs move to the
remaining workers, and after ``breaker_cooldown`` seconds a single
half-open probe incarnation may close the breaker again.  Fault
injection at the worker sites (crash, slow batch, spawn failure) is
driven by the parent service's :class:`~repro.service.faults.FaultPlan`,
shipped in ``worker_config``.

**Stray-process guard.**  Workers are daemonic *and* every started pool
registers its ``close`` with :mod:`atexit`, so examples and tests that
forget to close a service still terminate their workers at interpreter
exit.  ``close`` drains queued jobs, asks each worker to exit, and
escalates to ``terminate``/``kill`` on a bounded timeout.

IPC accounting (bytes each way, serialization seconds, scenes shipped,
restarts, retries) is exposed through :meth:`ProcessShardPool.stats` and
lands in the service's metrics snapshot under ``"pool"``.
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.util.mp import mp_context

if TYPE_CHECKING:
    from repro.core.result import SolverResult
    from repro.service.scenes import AnyStructure, SceneRegistry
    from repro.service.service import AuctionRequest, AuctionService

__all__ = ["ProcessShardPool", "WorkerCrashError"]


class WorkerCrashError(RuntimeError):
    """A worker process died while (or before) computing a batch."""


# ----------------------------------------------------------------------
# worker process side
# ----------------------------------------------------------------------
def _pool_worker_main(  # pragma: no cover - runs in worker processes
    conn: Any,
    scenes: dict[str, AnyStructure],
    config: dict[str, Any],
    generation: int,
    num_workers: int,
) -> None:
    """Entry point of one worker process.

    ``scenes`` is the registry snapshot taken at spawn; ``config`` holds
    the cache/rounding configuration of the parent service so the worker's
    private :class:`AuctionService` solves exactly as the in-process path
    would — including an armed copy of the parent's
    :class:`~repro.service.faults.FaultPlan`, whose worker sites
    (``"pool.worker.spawn"``, ``"pool.worker.batch"``) this loop
    evaluates itself.  ``generation`` counts respawns of this worker slot
    — generation-scoped crash faults compare against it so a plan can
    crash incarnation 0 and let incarnation 1 serve the retry.
    ``num_workers`` is the pool's size: the worker's VCG probes fan out
    over its share of the host's cores.
    """
    import repro.engine.highs  # noqa: F401 - registers its fork-reset hook
    import repro.mechanism.vcg as vcg  # registers its fork-reset hook
    from repro.service.service import AuctionService
    from repro.util.mp import run_fork_resets

    # under a fork-based start method the child inherits the forking
    # thread's persistent native-handle state (HiGHS loaded model,
    # warm-start key); warm-starting against a model loaded in another
    # process's life would be wrong, so every registered thread-local is
    # reset before the first solve — and the HiGHS hook is *required*:
    # a missing registration fails here, at spawn, not as a wrong solve;
    # so is the VCG one: a forked executor has no threads behind it
    run_fork_resets(require=("repro.engine.highs", "repro.mechanism.vcg"))
    vcg._share_cores(num_workers)
    plan = config.get("fault_plan")
    if plan is not None and plan.fires("pool.worker.spawn", generation=generation):
        os._exit(4)  # injected spawn failure: die before serving anything
    service = AuctionService(
        executor="serial",
        coalesce_window=0.0,
        adaptive_coalescing=False,
        **config,
    )
    for structure in scenes.values():
        service.registry.register(structure)
    try:
        while True:
            message = pickle.loads(conn.recv_bytes())
            kind = message[0]
            if kind == "close":
                conn.send_bytes(pickle.dumps(("closed",)))
                return
            if kind == "scene":
                # content-hash ids are stable across pickling, so the
                # worker-side id equals the parent's (asserted cheaply)
                scene_id = service.registry.register(message[2])
                if scene_id != message[1]:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"scene {message[1]} re-hashed to {scene_id} in worker"
                    )
                continue
            _, job_id, requests = message
            slow = 0.0
            if plan is not None:
                key = requests[0].seed if requests else None
                for spec in plan.actions(
                    "pool.worker.batch", generation=generation, key=key
                ):
                    if spec.kind == "crash":
                        os._exit(3)  # actions() has already drawn every spec
                    slow += spec.delay
            if slow > 0:  # slow-worker brownout: the parent just sees latency
                time.sleep(slow)
            try:
                results = service.solve_batch(requests)
                reply = ("done", job_id, results, _worker_stats(service, generation))
            except BaseException as exc:  # noqa: BLE001  # repro: allow[silent-except] -- shipped to the parent as an error reply
                reply = ("error", job_id, f"{type(exc).__name__}: {exc}")
            conn.send_bytes(pickle.dumps(reply))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):  # repro: allow[silent-except] -- parent went away; nothing left to tell
        pass


def _worker_stats(
    service: AuctionService, generation: int
) -> dict[str, Any]:  # pragma: no cover - worker side
    """The per-worker accounting piggybacked on every ``done`` reply."""
    return {
        "pid": os.getpid(),
        "generation": generation,
        "requests": service.metrics.counts()["completed"],
        "caches": service.cache_stats(),
    }


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
_CLOSE = object()  # sentinel on a worker's job queue


@dataclass
class _Job:
    scene_id: str
    requests: list[AuctionRequest]
    future: Future[list[SolverResult]]
    attempts: int = 0


@dataclass
class _WorkerHandle:
    """Parent-side state of one worker slot (process + its feeder thread).

    ``process``/``conn``/``jobs`` are owned by the slot's feeder thread
    (and ``_spawn_locked``); everything a concurrent ``stats()`` reads is
    guarded by the pool's ``_lock``.
    """

    index: int
    process: Any = None
    conn: Any = None
    generation: int = 0  #: guarded-by: _lock
    shipped: set[str] = field(default_factory=set)  #: guarded-by: _lock
    jobs: queue.SimpleQueue[Any] = field(default_factory=queue.SimpleQueue)
    outstanding: int = 0  #: guarded-by: _lock
    job_counter: int = 0  #: guarded-by: _lock
    # accounting
    jobs_done: int = 0  #: guarded-by: _lock
    scenes_shipped: int = 0  #: guarded-by: _lock
    bytes_sent: int = 0  #: guarded-by: _lock
    bytes_received: int = 0  #: guarded-by: _lock
    ipc_seconds: float = 0.0  #: guarded-by: _lock
    restarts: int = 0  #: guarded-by: _lock
    # circuit breaker: crashes since the last success; when it exceeds the
    # respawn limit the slot trips (process = None, breaker_until set) and
    # jobs route around it until the cooldown elapses (half-open probe)
    consecutive_failures: int = 0  #: guarded-by: _lock
    breaker_until: float | None = None  #: guarded-by: _lock
    breaker_trips: int = 0  #: guarded-by: _lock
    last_stats: dict[str, Any] = field(default_factory=dict)  #: guarded-by: _lock


class ProcessShardPool:
    """A pool of long-lived solver processes with scene affinity.

    ``registry`` is shared with the owning service: scenes are snapshotted
    into workers at spawn and shipped lazily afterwards.  ``worker_config``
    is forwarded to each worker's private ``AuctionService`` (cache sizes,
    rounding attempts, warm-start flag), so the pool solves with
    exactly the configuration of the in-process path.
    """

    def __init__(
        self,
        registry: SceneRegistry,
        num_workers: int,
        *,
        worker_config: dict[str, Any] | None = None,
        start_method: str = "auto",
        max_retries: int = 1,
        spill: bool = True,
        close_timeout: float = 5.0,
        respawn_limit: int = 5,
        respawn_backoff: float = 0.05,
        backoff_cap: float = 2.0,
        breaker_cooldown: float = 30.0,
    ) -> None:
        """``respawn_limit`` bounds *consecutive* crashes of one worker
        slot (the counter resets on any successful batch); beyond it the
        slot's circuit breaker trips: no further respawns, jobs route
        around it, and after ``breaker_cooldown`` seconds one half-open
        probe incarnation is allowed (a single failure re-trips).  Each
        respawn waits ``respawn_backoff * 2**(failures-1)`` seconds,
        capped at ``backoff_cap`` — a worker crashing at spawn burns
        through its budget in bounded time instead of respawn-storming."""
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if respawn_limit < 0:
            raise ValueError("respawn_limit must be non-negative")
        if respawn_backoff < 0 or backoff_cap < 0 or breaker_cooldown < 0:
            raise ValueError("backoff/cooldown settings must be non-negative")
        self.registry = registry
        self.num_workers = num_workers
        self.worker_config = dict(worker_config or {})
        self.max_retries = max_retries
        self.spill = spill
        self.close_timeout = close_timeout
        self.respawn_limit = respawn_limit
        self.respawn_backoff = respawn_backoff
        self.backoff_cap = backoff_cap
        self.breaker_cooldown = breaker_cooldown
        self._ctx = mp_context(start_method)
        self.start_method = self._ctx.get_start_method()
        self._lock = threading.Lock()
        self._workers = [_WorkerHandle(index=i) for i in range(num_workers)]
        self._threads: list[threading.Thread] = []
        self._started = False  #: guarded-by: _lock
        self._closed = False  #: guarded-by: _lock
        self._restarts = 0  #: guarded-by: _lock
        self._retried_batches = 0  #: guarded-by: _lock
        self._failed_batches = 0  #: guarded-by: _lock
        self._rerouted_batches = 0  #: guarded-by: _lock

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ProcessShardPool":
        with self._lock:
            if self._started:
                return self
            self._started = True
            for handle in self._workers:
                self._spawn_locked(handle)
            self._threads = [
                threading.Thread(
                    target=self._serve,
                    args=(handle,),
                    name=f"auction-pool-feeder-{handle.index}",
                    daemon=True,
                )
                for handle in self._workers
            ]
            for thread in self._threads:
                thread.start()
        # stray-process guard: a leaked pool still reaps its workers at exit
        atexit.register(self.close)
        return self

    def _spawn_locked(self, handle: _WorkerHandle) -> None:
        """(Re)start one worker slot; caller holds ``_lock`` or owns the slot."""
        scenes = self.registry.snapshot()
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                child_conn,
                scenes,
                self.worker_config,
                handle.generation,
                self.num_workers,
            ),
            name=f"auction-pool-worker-{handle.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.shipped = set(scenes)  # the spawn snapshot never re-ships

    def close(self) -> None:
        """Drain queued jobs, stop every worker, join the feeder threads.

        Idempotent and registered with :mod:`atexit`.  Jobs already queued
        are completed (the close sentinel sits behind them); submitting
        after close raises.
        """
        with self._lock:
            if self._closed or not self._started:
                self._closed = True
                return
            self._closed = True
        for handle in self._workers:
            handle.jobs.put(_CLOSE)
        for thread in self._threads:
            thread.join()
        atexit.unregister(self.close)

    def __enter__(self) -> "ProcessShardPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission and routing
    # ------------------------------------------------------------------
    def home_of(self, scene_id: str) -> int:
        return int(scene_id, 16) % self.num_workers

    def _breaker_open_locked(self, handle: _WorkerHandle) -> bool:
        """Is this slot's circuit breaker open right now (not routable)?

        A tripped slot holds no process; once its cooldown elapses the
        breaker reads closed again, routing resumes, and the slot's feeder
        revives it as a half-open probe on the next job.
        """
        return (
            handle.process is None
            and handle.breaker_until is not None
            and time.monotonic() < handle.breaker_until
        )

    def _route_locked(self, scene_id: str) -> _WorkerHandle:
        """Home worker unless it is strictly busier than the idlest one or
        its breaker is open (load reads require the caller to hold
        ``_lock``)."""
        home = self.home_of(scene_id)
        open_ = [self._breaker_open_locked(w) for w in self._workers]
        if all(open_):
            # nothing routable: queue on home anyway — its feeder fails
            # the job typed (or revives the slot if the cooldown elapsed)
            return self._workers[home]
        if (not self.spill or self.num_workers == 1) and not open_[home]:
            return self._workers[home]
        loads = [
            float("inf") if open_[i] else w.outstanding
            for i, w in enumerate(self._workers)
        ]
        if loads[home] <= min(loads):
            return self._workers[home]
        # deterministic scan from the home index keeps ties stable
        best = min(
            range(self.num_workers),
            key=lambda i: (loads[(home + i) % self.num_workers], i),
        )
        return self._workers[(home + best) % self.num_workers]

    def submit(
        self, scene_id: str, requests: list[AuctionRequest]
    ) -> Future[list[SolverResult]]:
        """Queue one scene-group batch; resolves to its result list."""
        future: Future[list[SolverResult]] = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("process pool is closed")
            if not self._started:
                raise RuntimeError("process pool is not started")
            handle = self._route_locked(scene_id)
            handle.outstanding += 1
        handle.jobs.put(_Job(scene_id, requests, future))
        return future

    # ------------------------------------------------------------------
    # per-worker feeder thread
    # ------------------------------------------------------------------
    def _serve(self, handle: _WorkerHandle) -> None:
        while True:
            job = handle.jobs.get()
            if job is _CLOSE:
                self._shutdown_worker(handle)
                return
            try:
                self._run_job(handle, job)
            except BaseException as exc:  # noqa: BLE001 - never kill the feeder
                job.future.set_exception(exc)
            finally:
                with self._lock:
                    handle.outstanding -= 1

    def _slot_ready(self, handle: _WorkerHandle) -> bool:
        """True when the slot holds a process to talk to, reviving a
        tripped breaker whose cooldown elapsed (half-open probe).

        The probe incarnation starts with its failure budget spent down to
        the limit, so a single crash re-trips the breaker immediately.
        """
        with self._lock:
            if handle.process is not None:
                return True
            if self._breaker_open_locked(handle):
                return False
            handle.consecutive_failures = self.respawn_limit
            handle.breaker_until = None
            handle.generation += 1
            handle.restarts += 1
            self._restarts += 1
            self._spawn_locked(handle)
            return True

    def _reroute_or_fail(self, handle: _WorkerHandle, job: _Job) -> None:
        """Hand a job on a broken slot to the idlest routable worker, or
        fail it typed when every other slot's breaker is open too."""
        with self._lock:
            candidates = [
                w
                for w in self._workers
                if w is not handle and not self._breaker_open_locked(w)
            ]
            target = (
                min(candidates, key=lambda w: (w.outstanding, w.index))
                if candidates
                else None
            )
            if target is not None:
                target.outstanding += 1
                self._rerouted_batches += 1
            else:
                self._failed_batches += 1
        if target is None:
            job.future.set_exception(
                WorkerCrashError(
                    f"worker {handle.index} circuit breaker open and no "
                    f"routable worker left"
                )
            )
            return
        target.jobs.put(job)

    def _run_job(self, handle: _WorkerHandle, job: _Job) -> None:
        while True:
            if not self._slot_ready(handle):
                self._reroute_or_fail(handle, job)
                return
            try:
                results, stats = self._roundtrip(handle, job)
            except WorkerCrashError as exc:
                respawned = self._respawn(handle)
                if job.attempts < self.max_retries:
                    job.attempts += 1
                    with self._lock:
                        self._retried_batches += 1
                    if respawned:
                        continue  # retry the batch on the fresh worker
                    self._reroute_or_fail(handle, job)
                    return
                with self._lock:
                    self._failed_batches += 1
                job.future.set_exception(exc)
                return
            with self._lock:
                handle.jobs_done += 1
                handle.last_stats = stats
                # any completed batch closes the crash streak
                handle.consecutive_failures = 0
                handle.breaker_until = None
            job.future.set_result(results)
            return

    def _roundtrip(
        self, handle: _WorkerHandle, job: _Job
    ) -> tuple[list[SolverResult], dict[str, Any]]:
        """Ship (scene if new +) batch, block for the reply, account IPC."""
        try:
            with self._lock:
                ship = job.scene_id not in handle.shipped
            if ship:
                self._send(
                    handle,
                    ("scene", job.scene_id, self.registry.get(job.scene_id)),
                )
                with self._lock:
                    handle.shipped.add(job.scene_id)
                    handle.scenes_shipped += 1
            with self._lock:
                handle.job_counter += 1
                sent_job_id = handle.job_counter
            self._send(handle, ("solve", sent_job_id, job.requests))
            payload = handle.conn.recv_bytes()  # blocks while the worker solves
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            with self._lock:
                generation = handle.generation
            raise WorkerCrashError(
                f"worker {handle.index} (pid {getattr(handle.process, 'pid', '?')}, "
                f"generation {generation}) died mid-batch"
            ) from exc
        t0 = time.perf_counter()
        reply = pickle.loads(payload)
        decode_seconds = time.perf_counter() - t0
        with self._lock:
            handle.bytes_received += len(payload)
            handle.ipc_seconds += decode_seconds
        if reply[0] == "error":
            raise RuntimeError(f"worker {handle.index}: {reply[2]}")
        kind, job_id, results, stats = reply
        if job_id != sent_job_id:  # pragma: no cover - protocol bug
            raise RuntimeError(
                f"worker {handle.index} answered job {job_id}, "
                f"expected {sent_job_id}"
            )
        return results, stats

    def _send(self, handle: _WorkerHandle, message: tuple[Any, ...]) -> None:
        t0 = time.perf_counter()
        payload = pickle.dumps(message)
        handle.conn.send_bytes(payload)
        pipe_seconds = time.perf_counter() - t0
        with self._lock:
            handle.bytes_sent += len(payload)
            handle.ipc_seconds += pipe_seconds

    def _respawn(self, handle: _WorkerHandle) -> bool:
        """Replace a dead worker; its pickle-once state starts over.

        Returns ``False`` when the slot's consecutive-crash budget is
        exhausted: the circuit breaker trips instead of respawning, and
        the slot stays empty until its cooldown elapses.  Successful
        respawns back off exponentially (outside the lock — other slots
        keep serving) so a crash-at-spawn worker cannot respawn-storm.
        """
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover  # repro: allow[silent-except] -- pipe already gone; the crash is handled by the caller
            pass
        if handle.process.is_alive():  # crashed pipe, live process: reap it
            handle.process.terminate()
        handle.process.join(self.close_timeout)
        with self._lock:
            handle.consecutive_failures += 1
            failures = handle.consecutive_failures
            if failures > self.respawn_limit:
                handle.breaker_trips += 1
                handle.breaker_until = time.monotonic() + self.breaker_cooldown
                handle.process = None
                handle.conn = None
                return False
        delay = min(self.respawn_backoff * 2 ** (failures - 1), self.backoff_cap)
        if delay > 0:
            time.sleep(delay)
        with self._lock:
            handle.generation += 1
            handle.restarts += 1
            handle.job_counter = 0
            self._restarts += 1
            self._spawn_locked(handle)
        return True

    def _shutdown_worker(self, handle: _WorkerHandle) -> None:
        process, conn = handle.process, handle.conn
        if process is None:  # breaker-tripped slot: nothing to stop
            return
        try:
            self._send(handle, ("close",))
            if conn.poll(self.close_timeout):
                conn.recv_bytes()  # ("closed",) acknowledgement
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError):  # repro: allow[silent-except] -- already dead; joining below is all that is left
            pass
        process.join(self.close_timeout)
        if process.is_alive():  # pragma: no cover - stuck worker escalation
            process.terminate()
            process.join(1.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)
        conn.close()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def alive(self) -> list[bool]:
        return [
            w.process is not None and w.process.is_alive() for w in self._workers
        ]

    def healthy(self) -> bool:
        """Every worker slot holds a live process (no tripped breakers,
        no undetected deaths) — the chaos runner's end-state invariant."""
        return all(self.alive())

    def stats(self) -> dict[str, Any]:
        """Pool-level + per-worker accounting for the metrics snapshot."""
        with self._lock:
            workers = [
                {
                    "index": w.index,
                    "pid": getattr(w.process, "pid", None),
                    "alive": w.process is not None and w.process.is_alive(),
                    "generation": w.generation,
                    "restarts": w.restarts,
                    "consecutive_failures": w.consecutive_failures,
                    "breaker_open": self._breaker_open_locked(w),
                    "breaker_trips": w.breaker_trips,
                    "jobs": w.jobs_done,
                    "outstanding": w.outstanding,
                    "scenes_held": len(w.shipped),
                    "scenes_shipped": w.scenes_shipped,
                    "ipc_bytes_sent": w.bytes_sent,
                    "ipc_bytes_received": w.bytes_received,
                    "ipc_seconds": w.ipc_seconds,
                    "worker_stats": w.last_stats,
                }
                for w in self._workers
            ]
            return {
                "num_workers": self.num_workers,
                "start_method": self.start_method,
                "cores": os.cpu_count(),
                "restarts": self._restarts,
                "retried_batches": self._retried_batches,
                "failed_batches": self._failed_batches,
                "rerouted_batches": self._rerouted_batches,
                "breaker_trips": sum(w["breaker_trips"] for w in workers),
                "healthy": all(w["alive"] for w in workers),
                "ipc_bytes_sent": sum(w["ipc_bytes_sent"] for w in workers),
                "ipc_bytes_received": sum(w["ipc_bytes_received"] for w in workers),
                "ipc_seconds": sum(w["ipc_seconds"] for w in workers),
                "scenes_shipped": sum(w["scenes_shipped"] for w in workers),
                "workers": workers,
            }
