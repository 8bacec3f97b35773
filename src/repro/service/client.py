"""The client for the auction gateway (wire schema over HTTP/1.1).

:class:`GatewayClient` is the asyncio client over one or more gateway
endpoints (a single endpoint is simply a set of one): a keep-alive
connection pool per endpoint, one coroutine per in-flight request,
decoding success payloads to :class:`~repro.service.wire.AuctionResponse`
and error payloads back to the *typed exception* the in-process API
would have raised (:func:`~repro.service.wire.error_from_wire`) — so
``try/except ShedError`` works identically whether the service is local
or across the network.

**Resilience** (DESIGN.md → "Resilient edge"): each request runs *one*
attempt loop.  Attempt ordinals run 1..``max_attempts`` of its
:class:`RetryPolicy` across all endpoints, each stamped
``X-Auction-Attempt`` (so keyed fault draws are per-attempt) and
carrying the request's idempotency key (so a retry replays from the
gateway journal instead of re-solving).  A failover is just the next
attempt going to another endpoint; retries back off with deterministic
seeded jitter; ``hedge=True`` races a second attempt against a primary
slower than the observed p99.  Only transport errors count against an
endpoint's circuit breaker, the last live endpoint is never evicted,
and a single-endpoint client sends no health probes.

:class:`SyncGatewayClient` runs a :class:`GatewayClient` on a daemon
event-loop thread; its ``submit`` mirrors :meth:`AuctionService.submit`
(``submit(request) -> concurrent.futures.Future``), which is what lets
the chaos harness and the open-loop benchmark drive a gateway exactly
like an in-process service.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
from collections import deque
from collections.abc import Coroutine, Sequence
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, TypeVar

import numpy as np

from repro.io import _structure_to_dict
from repro.service.wire import (
    AuctionResponse,
    default_idempotency_key,
    error_from_wire,
    request_to_wire,
)

if TYPE_CHECKING:
    from repro.conflicts.base import AnyStructure
    from repro.service.faults import FaultPlan
    from repro.service.wire import AuctionRequest

__all__ = ["GatewayClient", "RetryPolicy", "SyncGatewayClient"]

_Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]
_T = TypeVar("_T")

# failures of the transport itself, as opposed to typed wire errors:
# always retryable, and the only failures an endpoint's breaker counts.
# (TimeoutError ⊂ OSError, ConnectionError ⊂ OSError,
# IncompleteReadError ⊂ EOFError; asyncio.TimeoutError is TimeoutError
# from 3.11 and listed for 3.10.)
_TRANSPORT_ERRORS = (OSError, EOFError, asyncio.TimeoutError)

_TOKEN_MASK = (1 << 63) - 1

# seconds a background /v1/health probe may take before it counts as a
# failure against its endpoint
_PROBE_TIMEOUT = 1.0


def _jitter_token(key: str) -> int:
    """A stable 63-bit integer from an idempotency key (jitter seed)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _TOKEN_MASK


class _WireError(Exception):
    """Internal carrier pairing a typed wire error with its HTTP status.

    The retry loop decides retryability on the *status* and unwraps
    ``error`` for the caller — the typed exception crosses the retry
    layer unchanged.
    """

    def __init__(self, status: int, error: Exception) -> None:
        super().__init__(f"HTTP {status}: {error}")
        self.status = status
        self.error = error


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries, backs off, and hedges one solve.

    ``max_attempts`` counts the first try (``1`` means no retries — the
    default, so resilience is always opt-in).  Retryable failures are
    transport errors (resets, refused connections, truncated responses,
    an attempt outliving the client's ``request_timeout``) and
    ``retryable_statuses``; 400/404 are the caller's bug and 504 means
    the deadline is spent either way.  Backoff before retry
    *i* is ``min(cap, base · factor^(i-1))`` scaled down by up to
    ``jitter`` (a fraction in [0, 1]) using a draw seeded from the
    request's idempotency key — deterministic per request and per retry,
    so chaos replays are bit-stable while concurrent retries still
    de-synchronize.

    ``hedge=True`` races a second attempt against a first one that has
    outlived the client's observed p99 latency (never sooner than
    ``hedge_min_delay``, and only once ``hedge_after_samples`` solves
    have been observed — before that there is no p99 to speak of).
    """

    max_attempts: int = 1
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    backoff_cap: float = 0.5
    jitter: float = 0.5
    retryable_statuses: frozenset[int] = frozenset({500, 502, 503})
    hedge: bool = False
    hedge_min_delay: float = 0.05
    hedge_after_samples: int = 32

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.hedge_after_samples < 1:
            raise ValueError("hedge_after_samples must be >= 1")
        object.__setattr__(
            self, "retryable_statuses", frozenset(self.retryable_statuses)
        )

    def delay_before(self, retry_index: int, token: int) -> float:
        """Seconds to sleep before retry ``retry_index`` (1-based)."""
        base = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (retry_index - 1),
        )
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        seq = np.random.SeedSequence([token & _TOKEN_MASK, retry_index])
        fraction = float(np.random.default_rng(seq).random())
        return base * (1.0 - self.jitter * fraction)


@dataclass(eq=False)
class _Endpoint:
    """One gateway address: its keep-alive pool and its breaker state."""

    host: str
    port: int
    gate: asyncio.Semaphore
    idle: list[_Connection] = field(default_factory=list)
    live: bool = True
    failures: int = 0
    down_since: float = 0.0
    inflight: int = 0


class GatewayClient:
    """Asyncio client over 1..N gateway endpoints.

    ``endpoints`` (``(host, port)`` pairs) replaces the single address.
    Each endpoint pools up to ``max_connections`` keep-alive connections
    (back-pressure beyond that is a semaphore wait, not a connect storm).
    ``retry`` arms a :class:`RetryPolicy` for ``solve``; ``fault_plan``
    arms the ``client.connect`` fault sites.  ``request_timeout`` bounds
    every exchange, so an endpoint that dies with connections open fails
    an attempt instead of hanging it.  An endpoint is evicted after
    ``failure_threshold`` transport errors in a row and re-probed every
    ``probe_interval`` once ``cooldown`` has passed.  ``stats()`` is a
    flat counter dict; ``endpoints()`` is the per-endpoint state.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_connections: int = 128,
        *,
        endpoints: Sequence[tuple[str, int]] | None = None,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        probe_interval: float = 0.1,
        failure_threshold: int = 3,
        cooldown: float = 0.5,
        request_timeout: float = 60.0,
    ) -> None:
        addresses = [(host, port)] if endpoints is None else list(endpoints)
        if not addresses:
            raise ValueError("GatewayClient needs at least one endpoint")
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.probe_interval = probe_interval
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.request_timeout = request_timeout
        self._endpoints = [
            _Endpoint(h, p, asyncio.Semaphore(max_connections)) for h, p in addresses
        ]
        self._closed = False
        self._probe_task: asyncio.Task[None] | None = None
        self._latency_window: deque[float] = deque(maxlen=512)
        self._stats: dict[str, int] = {
            "attempts": 0,
            "retries": 0,
            "hedges_launched": 0,
            "hedges_won": 0,
            "connect_faults": 0,
            "failovers": 0,
            "evictions": 0,
            "readmissions": 0,
            "probe_failures": 0,
        }

    def stats(self) -> dict[str, int]:
        """Attempt/retry/hedge/fault/failover counters since construction."""
        return dict(self._stats)

    def endpoints(self) -> list[dict[str, Any]]:
        """Per-endpoint breaker state, in construction order."""
        return [
            {
                "endpoint": f"{ep.host}:{ep.port}",
                "live": ep.live,
                "failures": ep.failures,
                "inflight": ep.inflight,
            }
            for ep in self._endpoints
        ]

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    async def _exchange(
        self,
        ep: _Endpoint,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """One HTTP exchange on a pooled connection; returns (status, payload)."""
        if self._closed:
            raise RuntimeError("client is closed")
        payload = b"" if body is None else json.dumps(body).encode()
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        request = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {ep.host}:{ep.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
            "\r\n"
        ).encode("latin-1") + payload
        async with ep.gate:
            reader, writer = await self._checkout(ep)
            try:
                writer.write(request)
                await writer.drain()
                status, response = await self._read_response(reader)
            except BaseException:
                writer.close()  # a half-used connection cannot be pooled
                raise
            self._checkin(ep, (reader, writer))
        return status, response

    async def _checkout(self, ep: _Endpoint) -> _Connection:
        while ep.idle:
            reader, writer = ep.idle.pop()
            if not writer.is_closing():
                return reader, writer
            writer.close()
        return await asyncio.open_connection(ep.host, ep.port)

    def _checkin(self, ep: _Endpoint, conn: _Connection) -> None:
        if self._closed or conn[1].is_closing():
            conn[1].close()
        else:
            ep.idle.append(conn)

    async def _read_response(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, Any]]:
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await reader.readexactly(length) if length else b""
        payload = json.loads(body) if body else {}
        if not isinstance(payload, dict):
            raise ValueError(f"gateway returned a non-object body: {payload!r}")
        return status, payload

    @staticmethod
    def _raise_if_error(payload: dict[str, Any]) -> dict[str, Any]:
        if payload.get("status") == "error":
            raise error_from_wire(payload)
        return payload

    async def _guarded(self, ep: _Endpoint, exchange: Coroutine[Any, Any, _T]) -> _T:
        """Run one exchange on ``ep`` under ``request_timeout``.

        A transport failure counts against ``ep``'s breaker; any HTTP
        answer (typed errors included) resets it.
        """
        ep.inflight += 1
        try:
            result = await asyncio.wait_for(exchange, self.request_timeout)
        except _TRANSPORT_ERRORS:
            self._mark_failure(ep)
            raise
        finally:
            ep.inflight -= 1
        self._mark_healthy(ep)
        return result

    # ------------------------------------------------------------------
    # endpoint health
    # ------------------------------------------------------------------
    def _pick(self, tried: set[_Endpoint]) -> _Endpoint:
        """The least-in-flight live endpoint (first on ties), preferring
        untried ones."""
        live = [ep for ep in self._endpoints if ep.live]
        pool = [ep for ep in live if ep not in tried] or live
        return min(pool, key=lambda ep: ep.inflight)

    def _mark_healthy(self, ep: _Endpoint) -> None:
        if not ep.live:
            ep.live = True
            self._stats["readmissions"] += 1
        ep.failures = 0

    def _mark_failure(self, ep: _Endpoint) -> None:
        ep.failures += 1
        if not ep.live:
            ep.down_since = time.perf_counter()  # failed half-open: re-cool
        elif ep.failures >= self.failure_threshold and any(
            other.live for other in self._endpoints if other is not ep
        ):
            ep.live = False
            ep.down_since = time.perf_counter()
            self._stats["evictions"] += 1

    async def _probe(self, ep: _Endpoint) -> bool:
        try:
            status, _payload = await asyncio.wait_for(
                self._exchange(ep, "GET", "/v1/health"), _PROBE_TIMEOUT
            )
        except _TRANSPORT_ERRORS + (ValueError,):  # repro: allow[silent-except] -- an unreachable endpoint is the probe's finding, counted here
            self._stats["probe_failures"] += 1
            return False
        return status == 200

    def _arm_probes(self) -> None:
        """Start the health-probe loop on first use, and only when there
        is another endpoint to fail over to."""
        if self._probe_task is None and len(self._endpoints) > 1:
            self._probe_task = asyncio.ensure_future(self._probe_loop())

    async def _probe_loop(self) -> None:
        # bounded by _closed (flipped in close()), not an unbounded spin
        while not self._closed:
            await asyncio.sleep(self.probe_interval)
            for ep in self._endpoints:
                if self._closed:
                    return
                if not ep.live and time.perf_counter() - ep.down_since < self.cooldown:
                    continue  # evicted and still cooling: no half-open yet
                if await self._probe(ep):
                    self._mark_healthy(ep)
                else:
                    self._mark_failure(ep)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    async def health(self) -> bool:
        """True when any live endpoint answers ``/v1/health`` with 200."""
        for ep in self._endpoints:
            if ep.live and await self._probe(ep):
                return True
        return False

    async def _call(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """One exchange on the least-loaded live endpoint; typed error on
        an error payload."""
        ep = self._pick(set())
        _status, payload = await self._guarded(ep, self._exchange(ep, method, path, body))
        return self._raise_if_error(payload)

    async def metrics(self) -> dict[str, Any]:
        """One live endpoint's ``/v1/metrics`` snapshot."""
        return await self._call("GET", "/v1/metrics")

    async def register_scene(self, structure: AnyStructure) -> str:
        """Register a conflict structure on every endpoint (each gateway
        may back its own service); returns its fingerprint scene id,
        which is content-derived and therefore identical everywhere."""
        self._arm_probes()
        body = {"structure": _structure_to_dict(structure)}
        scene_id: str | None = None
        failure: BaseException | None = None
        for ep in self._endpoints:
            try:
                _status, payload = await self._guarded(
                    ep, self._exchange(ep, "POST", "/v1/scenes", body)
                )
            except _TRANSPORT_ERRORS as exc:  # repro: allow[silent-except] -- endpoint down: its breaker counted it, the rest still register
                failure = exc
                continue
            scene_id = str(self._raise_if_error(payload)["scene_id"])
        if scene_id is None:
            assert failure is not None
            raise failure
        return scene_id

    async def solve(self, request: AuctionRequest) -> AuctionResponse:
        """Solve one request under the retry policy; typed error on failure.

        One attempt budget covers every endpoint: attempt *i* goes to
        :meth:`_pick`'s endpoint, and a failover is the next attempt
        landing somewhere else.  Every attempt resends the same
        idempotency key (derived from the request when the envelope
        carries none), so a retry after a lost response replays from the
        gateway journal instead of re-solving.  A ``request.deadline``
        travels as the ``X-Auction-Deadline`` header and is enforced
        server-side by the service's EWMA triage.
        """
        self._arm_probes()
        policy = self.retry
        key = request.idempotency_key or default_idempotency_key(request)
        token = _jitter_token(key)
        tried: set[_Endpoint] = set()
        previous: _Endpoint | None = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self._stats["retries"] += 1
                await asyncio.sleep(policy.delay_before(attempt - 1, token))
            ep = self._pick(tried)
            if previous is not None and ep is not previous:
                self._stats["failovers"] += 1
            tried.add(ep)
            previous = ep
            delay = self._hedge_delay()
            try:
                if delay is None:
                    return await self._solve_attempt(request, key, attempt, ep)
                return await self._hedged(request, key, attempt, ep, tried, delay)
            except _WireError as exc:
                if (
                    attempt >= policy.max_attempts
                    or exc.status not in policy.retryable_statuses
                ):
                    raise exc.error from None
            except _TRANSPORT_ERRORS:
                if attempt >= policy.max_attempts:
                    raise
        raise RuntimeError("unreachable: retry loop neither returned nor raised")

    def _hedge_delay(self) -> float | None:
        """The p99-based hedge trigger, or ``None`` when not hedging."""
        policy = self.retry
        if not policy.hedge or len(self._latency_window) < policy.hedge_after_samples:
            return None
        ordered = sorted(self._latency_window)
        p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        return max(policy.hedge_min_delay, p99)

    async def _hedged(
        self,
        request: AuctionRequest,
        key: str,
        attempt: int,
        ep: _Endpoint,
        tried: set[_Endpoint],
        delay: float,
    ) -> AuctionResponse:
        """Race a second attempt against a primary slower than ``delay``.

        The hedge goes to :meth:`_pick`'s endpoint (another one when
        there is one) and its attempt ordinal is offset by
        ``max_attempts`` so its fault draws and backoff jitter never
        collide with a plain retry's.  Same idempotency key on both: the
        gateway coalesces them onto one solve.
        """
        primary = asyncio.ensure_future(self._solve_attempt(request, key, attempt, ep))
        try:
            return await asyncio.wait_for(asyncio.shield(primary), delay)
        except TimeoutError:  # repro: allow[silent-except] -- not a failure: the primary is slow, launch the hedge
            pass
        self._stats["hedges_launched"] += 1
        hedge = asyncio.ensure_future(
            self._solve_attempt(
                request, key, self.retry.max_attempts + attempt, self._pick(tried)
            )
        )
        pending: set[asyncio.Task[AuctionResponse]] = {primary, hedge}
        failure: BaseException | None = None
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.exception() is None:
                        if task is hedge:
                            self._stats["hedges_won"] += 1
                        return task.result()
                    failure = task.exception()
            assert failure is not None
            raise failure
        finally:
            for task in (primary, hedge):
                if not task.done():
                    task.cancel()
            losers, _ = await asyncio.wait({primary, hedge})
            for task in losers:
                if not task.cancelled():
                    task.exception()  # observed: a loser must not warn at GC

    async def _solve_attempt(
        self, request: AuctionRequest, key: str, attempt: int, ep: _Endpoint
    ) -> AuctionResponse:
        """One wire exchange on ``ep``, stamped with its attempt ordinal."""
        self._stats["attempts"] += 1
        headers = {"X-Auction-Attempt": str(attempt)}
        if request.deadline is not None:
            headers["X-Auction-Deadline"] = repr(request.deadline)
        wire = request_to_wire(request)
        wire["idempotency_key"] = key

        async def exchange() -> tuple[int, dict[str, Any]]:
            await self._inject_connect_faults(request, attempt)
            started = time.perf_counter()
            answer = await self._exchange(ep, "POST", "/v1/solve", wire, headers)
            self._latency_window.append(time.perf_counter() - started)
            return answer

        status, payload = await self._guarded(ep, exchange())
        if payload.get("status") == "error":
            raise _WireError(status, error_from_wire(payload))
        return AuctionResponse.from_wire(payload)

    async def _inject_connect_faults(
        self, request: AuctionRequest, attempt: int
    ) -> None:
        """Evaluate ``client.connect`` fault sites for this attempt."""
        plan = self.fault_plan
        if plan is None:
            return
        fault_key = (int(request.seed or 0), attempt)
        for spec in plan.actions("client.connect", key=fault_key):
            self._stats["connect_faults"] += 1
            if spec.kind == "latency":
                await asyncio.sleep(spec.delay)
            else:  # "reset"
                raise ConnectionResetError(
                    f"injected client.connect reset (attempt {attempt})"
                )

    async def solve_batch(
        self, requests: list[AuctionRequest]
    ) -> list[AuctionResponse | Exception]:
        """Solve a batch in one exchange on one live endpoint; per-item
        failures come back as the typed exception *instances* in request
        order (mirroring how the in-process API fails futures
        individually)."""
        payload = await self._call(
            "POST", "/v1/solve-batch", {"requests": [request_to_wire(r) for r in requests]}
        )
        return [
            error_from_wire(item)
            if item.get("status") == "error"
            else AuctionResponse.from_wire(item)
            for item in payload["responses"]
        ]

    async def close(self) -> None:
        self._closed = True
        task, self._probe_task = self._probe_task, None
        if task is not None:
            task.cancel()
            await asyncio.wait({task})
            if not task.cancelled():
                task.result()  # a probe loop that died early surfaces here
        for ep in self._endpoints:
            while ep.idle:
                _reader, writer = ep.idle.pop()
                writer.close()

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


class SyncGatewayClient:
    """Synchronous facade: a :class:`GatewayClient` on a daemon loop thread.

    Takes exactly :class:`GatewayClient`'s arguments.  ``submit(request)``
    returns a :class:`concurrent.futures.Future` resolving to an
    :class:`~repro.service.wire.AuctionResponse` or failing with the
    typed error — the same contract as :meth:`AuctionService.submit`, so
    open-loop drivers and the chaos harness can target a gateway without
    changing shape.  (One difference is inherent to the network
    boundary: admission-control sheds arrive asynchronously as a failed
    future, not as a synchronous ``ShedError`` from ``submit``.)  Every
    blocking call is bounded by the client's own timeouts.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._client = GatewayClient(*args, **kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="gateway-client-loop", daemon=True
        )
        self._thread.start()

    def _run(self, coro: Coroutine[Any, Any, _T]) -> Future[_T]:
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def submit(self, request: AuctionRequest) -> Future[AuctionResponse]:
        """Start one solve; returns a future (typed error on failure)."""
        return self._run(self._client.solve(request))

    def solve(self, request: AuctionRequest) -> AuctionResponse:
        return self.submit(request).result()

    def solve_batch(
        self, requests: list[AuctionRequest]
    ) -> list[AuctionResponse | Exception]:
        return self._run(self._client.solve_batch(requests)).result()

    def register_scene(self, structure: AnyStructure) -> str:
        return self._run(self._client.register_scene(structure)).result()

    def metrics(self) -> dict[str, Any]:
        return self._run(self._client.metrics()).result()

    def health(self) -> bool:
        return self._run(self._client.health()).result()

    def stats(self) -> dict[str, int]:
        """The client's flat counters (loop-thread safe)."""
        return self._client.stats()

    def endpoints(self) -> list[dict[str, Any]]:
        """Per-endpoint breaker state (loop-thread safe)."""
        return self._client.endpoints()

    def close(self) -> None:
        loop, thread = self._loop, self._thread
        if not loop.is_closed():
            self._run(self._client.close()).result()
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=30)
            loop.close()

    def __enter__(self) -> "SyncGatewayClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
