"""Asyncio HTTP/1.1 gateway: the network-facing edge of the auction service.

:class:`AuctionGateway` serves the versioned wire schema
(:mod:`repro.service.wire`) over plain HTTP/1.1 on the stdlib event loop
— no web framework, no extra dependency — in front of a backing
:class:`~repro.service.AuctionService`.  The event loop only parses,
routes, and encodes; every solve is bridged onto the service's own
dispatcher/shard machinery by wrapping the ``submit`` future with
:func:`asyncio.wrap_future`, so thousands of concurrent connections cost
one coroutine each while the thread or process executor does the actual
work.

Endpoints (all request/response bodies are JSON; see DESIGN.md → "The
serving edge" for the full table):

========  ====================  =============================================
method    path                  semantics
========  ====================  =============================================
POST      ``/v1/scenes``        register a conflict structure (io-layer
                                schema); returns its content-hash
                                ``scene_id`` — the fingerprint clients
                                re-solve by, so shard affinity survives the
                                network boundary
POST      ``/v1/solve``         one wire request → one wire response
POST      ``/v1/solve-batch``   ``{"requests": [...]}`` → per-item success
                                *or* error envelopes, submitted concurrently
                                so the service can coalesce them
GET       ``/v1/metrics``       the service metrics snapshot plus gateway
                                HTTP counters
GET       ``/v1/health``        200 while the service can serve, 503 after
                                close or an all-breakers-open pool
========  ====================  =============================================

Failure semantics are the wire schema's: every typed service failure
maps to a distinct HTTP status with a machine-readable ``error_code``
(shed → 503, deadline-exceeded → 504, worker-crash → 502, injected
fault → 500, malformed request → 400, unknown scene → 404, oversized
body → 413, oversized header section → 431), and the asyncio client
(:mod:`repro.service.client`) reconstructs the exact exception type —
the PR 8 fault-tolerance contract crosses the wire unchanged.
Deadlines propagate from the ``X-Auction-Deadline`` header (seconds of
budget; overrides the body's ``deadline`` field) into the request the
service triages with its EWMA solve-time estimate.

**Idempotent replay.**  Every solve is journaled in a bounded LRU
(:class:`_ResultJournal`) under the request's idempotency key
(:func:`~repro.service.wire.default_idempotency_key` when the envelope
carries none).  A retried request — the client resending after a lost
response, identified by the ``X-Auction-Attempt`` header it stamps —
hits the journal and receives the original response payload
byte-identically, without a second solve; concurrent duplicates (a
hedged request racing its primary) coalesce onto the in-flight solve.
Errors are never journaled: a retry of a failed request genuinely
re-attempts it.  The ``duplicate_solves`` counter pins the contract —
it only moves when a key solves twice (possible only after journal
eviction), and the chaos runner's ``no_duplicate_solves`` invariant
asserts it stays zero.

**Network fault sites.**  When the backing service carries a
:class:`~repro.service.faults.FaultPlan`, the gateway evaluates
``gateway.accept`` (refuse the request: close with no response) before
admission and ``gateway.response`` (drop: close before any byte;
truncate: cut mid-body) after the solve was journaled — so the retry
that follows is served from the journal.  Draws are keyed
``(request seed, attempt)``: deterministic per attempt, fresh across
attempts.

:class:`GatewayServer` runs the event loop on a background thread for
synchronous callers (benchmarks, tests, the chaos harness's gateway
transport); async applications embed :class:`AuctionGateway` directly.
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from repro.io import _structure_from_dict
from repro.service.errors import ShedError
from repro.service.wire import (
    SCHEMA_VERSION,
    default_idempotency_key,
    error_to_wire,
    http_status_for,
    request_from_wire,
)

if TYPE_CHECKING:
    from repro.service.faults import FaultPlan
    from repro.service.service import AuctionService
    from repro.service.wire import AuctionRequest

__all__ = ["AuctionGateway", "GatewayServer"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 256 * 1024 * 1024

# the peer vanishing mid-exchange is a per-connection event, not a
# service failure: the connection handler just ends
_PEER_GONE = (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError)

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    """A request-shaped failure with a wire error code attached."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code

    def to_wire(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "error",
            "error_code": self.code,
            "message": str(self),
        }


class _ConnectionDrop(Exception):
    """Control flow for injected network faults: abandon the connection.

    Raised out of the solve path when a ``gateway.accept`` or
    ``gateway.response`` fault fires; ``_handle_connection`` translates
    it into the wire-level symptom (no response, or ``payload``
    serialized and cut mid-body for ``kind="truncate"``) and closes the
    socket.  Never escapes the gateway.
    """

    def __init__(
        self, kind: str, payload: dict[str, Any] | None = None
    ) -> None:
        super().__init__(f"injected gateway {kind}")
        self.kind = kind
        self.payload = payload


class _ResultJournal:
    """Bounded LRU of completed solve payloads, keyed by idempotency key.

    Lives on the gateway's event loop — single-threaded by construction,
    so plain dicts need no lock.  Three structures:

    * ``_done`` — key → wire payload of a completed solve, LRU-evicted at
      ``capacity`` (each entry is one JSON-native response dict; sizing
      is therefore ``capacity × typical response size``);
    * ``_inflight`` — key → future of a solve currently running, so a
      concurrent duplicate (hedge, aggressive retry) *coalesces* instead
      of double-submitting; the future resolves to an ``("ok", payload)``
      / ``("error", exc)`` outcome tuple so an unobserved error never
      trips asyncio's exception-never-retrieved warning;
    * ``_seen`` — every key ever completed, for the ``duplicate_solves``
      accounting: a completed solve whose key was seen before means the
      journal failed to deduplicate (only possible after eviction).
      One 32-char string per unique request; the payload memory the
      journal holds is bounded by ``capacity``.

    ``capacity=0`` disables journaling (every lookup misses) — the
    configuration knob for measuring what the journal buys.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._done: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._inflight: dict[str, asyncio.Future[tuple[str, Any]]] = {}
        self._seen: set[str] = set()
        self.stats: dict[str, int] = {
            "journal_hits": 0,
            "journal_coalesced": 0,
            "journal_misses": 0,
            "journal_evictions": 0,
            "duplicate_solves": 0,
        }

    def lookup(self, key: str) -> dict[str, Any] | None:
        """The journaled payload for ``key``, refreshed in the LRU."""
        payload = self._done.get(key)
        if payload is not None:
            self._done.move_to_end(key)
            self.stats["journal_hits"] += 1
            return payload
        return None

    def inflight(self, key: str) -> asyncio.Future[tuple[str, Any]] | None:
        return self._inflight.get(key)

    def begin(self, key: str) -> asyncio.Future[tuple[str, Any]]:
        """Claim ``key``: this caller owns the solve, others coalesce."""
        self.stats["journal_misses"] += 1
        if key in self._seen:
            self.stats["duplicate_solves"] += 1
        future: asyncio.Future[tuple[str, Any]] = (
            asyncio.get_running_loop().create_future()
        )
        if self.capacity > 0:
            self._inflight[key] = future
        return future

    def complete(
        self, key: str, future: asyncio.Future[tuple[str, Any]], payload: dict[str, Any]
    ) -> None:
        self._inflight.pop(key, None)
        self._seen.add(key)
        if self.capacity > 0:
            self._done[key] = payload
            self._done.move_to_end(key)
            while len(self._done) > self.capacity:
                self._done.popitem(last=False)
                self.stats["journal_evictions"] += 1
        if not future.done():
            future.set_result(("ok", payload))

    def fail(
        self, key: str, future: asyncio.Future[tuple[str, Any]], exc: BaseException
    ) -> None:
        """Release ``key`` without journaling: retries re-attempt errors."""
        self._inflight.pop(key, None)
        if not future.done():
            future.set_result(("error", exc))


class AuctionGateway:
    """HTTP/1.1 front-end over one :class:`AuctionService` (asyncio).

    ``journal_capacity`` bounds the idempotency journal (0 disables it);
    ``max_header_bytes``/``max_body_bytes`` are the request size caps,
    rejected with typed 431/413 wire errors rather than a bare close.
    """

    def __init__(
        self,
        service: AuctionService,
        *,
        journal_capacity: int = 1024,
        max_header_bytes: int = _MAX_HEADER_BYTES,
        max_body_bytes: int = _MAX_BODY_BYTES,
    ) -> None:
        self.service = service
        self.max_header_bytes = int(max_header_bytes)
        self.max_body_bytes = int(max_body_bytes)
        self._journal = _ResultJournal(journal_capacity)
        # mutated only on the event loop (one thread), read via /v1/metrics
        # on the same loop — no lock needed by construction
        self._counters: dict[str, int] = {
            "connections": 0,
            "requests": 0,
            "responses_ok": 0,
            "responses_error": 0,
            "refused_connections": 0,
            "dropped_responses": 0,
        }
        self._open_writers: set[asyncio.StreamWriter] = set()

    @property
    def _fault_plan(self) -> FaultPlan | None:
        plan: FaultPlan | None = getattr(self.service, "fault_plan", None)
        return plan

    # ------------------------------------------------------------------
    # server lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.Server:
        """Bind and start serving; ``port=0`` picks an ephemeral port."""
        # the stream limit must exceed the header cap, or readuntil would
        # overrun before the cap's typed 431 gets a chance to fire
        return await asyncio.start_server(
            self._handle_connection, host, port, limit=self.max_header_bytes + 64 * 1024
        )

    def counters(self) -> dict[str, int]:
        """Gateway HTTP + journal accounting (copied; loop-thread safe)."""
        merged = dict(self._counters)
        merged.update(self._journal.stats)
        return merged

    def abort_connections(self) -> None:
        """Slam every open connection (simulated process death).

        Must run on the gateway's event loop.  Unlike a graceful drain,
        clients see their in-flight exchanges die with a reset/EOF — the
        failure a multi-endpoint
        :class:`~repro.service.client.GatewayClient` fails over on.
        """
        for writer in list(self._open_writers):
            writer.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._counters["connections"] += 1
        self._open_writers.add(writer)
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _HttpError as exc:  # repro: allow[silent-except] -- answered as a typed wire error, then closed
                    # oversized/malformed framing: answer typed, then close
                    # (unread body bytes may follow, so keep-alive is off)
                    self._counters["requests"] += 1
                    self._counters["responses_error"] += 1
                    await self._write_response(
                        writer, http_status_for(exc.code), exc.to_wire(), False
                    )
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                self._counters["requests"] += 1
                keep_alive = headers.get("connection", "keep-alive") != "close"
                try:
                    status, payload = await self._dispatch(
                        method, path, headers, body
                    )
                except _ConnectionDrop as drop:  # repro: allow[silent-except] -- injected fault: counted in _abandon, socket closed
                    await self._abandon(writer, drop)
                    break
                if status == 200:
                    self._counters["responses_ok"] += 1
                else:
                    self._counters["responses_error"] += 1
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except _PEER_GONE:  # repro: allow[silent-except] -- peer hung up mid-request; per-connection, nothing to fail
            pass
        finally:
            self._open_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # repro: allow[silent-except] -- close raced the peer's reset
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between requests: keep-alive ended
            raise
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(
                "header-too-large",
                f"header section exceeds {self.max_header_bytes} bytes",
            ) from exc
        if len(head) > self.max_header_bytes:
            raise _HttpError(
                "header-too-large",
                f"header section of {len(head)} bytes exceeds "
                f"{self.max_header_bytes}",
            )
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _version = lines[0].split(" ", 2)
        except ValueError as exc:
            raise _HttpError("bad-request", f"malformed request line {lines[0]!r}") from exc
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > self.max_body_bytes:
            raise _HttpError(
                "payload-too-large",
                f"body of {length} bytes exceeds {self.max_body_bytes}",
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        keep_alive: bool,
    ) -> None:
        if writer.is_closing():
            # aborted mid-solve (abort_connections): surface as the
            # peer-gone path, never a write on a dead transport
            raise ConnectionResetError("connection aborted")
        body = json.dumps(payload).encode()
        reason = _STATUS_REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _abandon(self, writer: asyncio.StreamWriter, drop: _ConnectionDrop) -> None:
        """Realize an injected network fault on the wire.

        ``refuse``/``drop`` close without a byte; ``truncate`` writes a
        head promising the full body and half the body, then closes —
        the client's ``readexactly`` fails mid-response.  Either way the
        solve (if any) is already journaled, so the retry is a hit.
        """
        counter = (
            "refused_connections" if drop.kind == "refuse" else "dropped_responses"
        )
        self._counters[counter] += 1
        if drop.kind == "truncate" and drop.payload is not None:
            body = json.dumps(drop.payload).encode()
            head = (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: keep-alive\r\n"
                "\r\n"
            )
            writer.write(head.encode("latin-1") + body[: max(1, len(body) // 2)])
            try:
                await writer.drain()
            except _PEER_GONE:  # repro: allow[silent-except] -- the drop raced the peer's own close
                pass

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, Any]]:
        """Route one request; never raises — failures become error envelopes."""
        try:
            if path == "/v1/health" and method == "GET":
                return self._health()
            if path == "/v1/metrics" and method == "GET":
                return 200, self._metrics()
            if path == "/v1/scenes" and method == "POST":
                return self._register_scene(self._json_body(body))
            if path == "/v1/solve" and method == "POST":
                request = self._decode_request(self._json_body(body), headers)
                return await self._solve_one(request, self._attempt_from(headers))
            if path == "/v1/solve-batch" and method == "POST":
                return await self._solve_batch(self._json_body(body), headers)
            if path.startswith("/v1/"):
                raise _HttpError("not-found", f"no such endpoint {path!r}")
            raise _HttpError("not-found", f"unknown path {path!r} (try /v1/...)")
        except _ConnectionDrop:
            raise  # injected network fault; the connection handler realizes it
        except _HttpError as exc:  # repro: allow[silent-except] -- returned to the client as its error envelope
            return http_status_for(exc.code), exc.to_wire()
        except asyncio.CancelledError:
            raise  # server shutdown; not an error envelope
        except BaseException as exc:  # noqa: BLE001  # repro: allow[silent-except] -- encoded into a typed wire error for the client
            wire = error_to_wire(exc)
            return http_status_for(str(wire["error_code"])), wire

    def _json_body(self, body: bytes) -> dict[str, Any]:
        try:
            data = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _HttpError("bad-request", f"body is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise _HttpError("bad-request", "body must be a JSON object")
        return data

    def _health(self) -> tuple[int, dict[str, Any]]:
        healthy = self.service.healthy()
        payload = {
            "schema_version": SCHEMA_VERSION,
            "status": "ok" if healthy else "error",
            "healthy": healthy,
        }
        if not healthy:
            payload["error_code"] = "service-fault"
            payload["message"] = "service is closed or has no routable workers"
        return (200 if healthy else 503), payload

    def _metrics(self) -> dict[str, Any]:
        snapshot = self.service.metrics_snapshot()
        snapshot["schema_version"] = SCHEMA_VERSION
        snapshot["gateway"] = self.counters()
        return snapshot

    def _register_scene(self, data: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        structure_data = data.get("structure", data)
        if not isinstance(structure_data, dict) or "type" not in structure_data:
            raise _HttpError(
                "bad-request", "expected an io-layer structure object"
            )
        try:
            structure = _structure_from_dict(structure_data)
        except (KeyError, ValueError, TypeError) as exc:
            raise _HttpError("bad-request", f"malformed structure: {exc}") from exc
        scene_id = self.service.register_scene(structure)
        return 200, {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "scene_id": scene_id,
            "n": structure.n,
        }

    def _decode_request(
        self, data: dict[str, Any], headers: dict[str, str]
    ) -> AuctionRequest:
        try:
            request = request_from_wire(data)
        except (KeyError, ValueError, TypeError) as exc:
            raise _HttpError("bad-request", f"malformed request: {exc}") from exc
        if request.mode != "allocate":
            raise _HttpError(
                "bad-request",
                f"mode {request.mode!r} is not servable over the wire "
                "(schema_version 1 serializes allocate results only)",
            )
        deadline_header = headers.get("x-auction-deadline")
        if deadline_header is not None:
            try:
                request.deadline = float(deadline_header)
            except ValueError as exc:
                raise _HttpError(
                    "bad-request",
                    f"X-Auction-Deadline {deadline_header!r} is not a number",
                ) from exc
        if request.deadline is not None and request.deadline <= 0:
            raise _HttpError(
                "bad-request", f"deadline must be positive, got {request.deadline}"
            )
        return request

    def _attempt_from(self, headers: dict[str, str]) -> int:
        """The client's attempt ordinal (1-based; 1 when absent).

        Stamped by the retrying client as ``X-Auction-Attempt`` so the
        keyed network-fault draws are per-attempt — a fault that fired
        on attempt 1 draws fresh on attempt 2.
        """
        raw = headers.get("x-auction-attempt")
        if raw is None:
            return 1
        try:
            attempt = int(raw)
        except ValueError as exc:
            raise _HttpError(
                "bad-request", f"X-Auction-Attempt {raw!r} is not an integer"
            ) from exc
        if attempt < 1:
            raise _HttpError(
                "bad-request", f"X-Auction-Attempt must be >= 1, got {attempt}"
            )
        return attempt

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    async def _solve_one(
        self, request: AuctionRequest, attempt: int = 1
    ) -> tuple[int, dict[str, Any]]:
        """Serve one request: journal lookup, coalesce, or submit + await.

        Order matters for the resilience contract: the ``gateway.accept``
        fault fires *before* admission (a refused request was never
        accepted), the journal is consulted before the service sees the
        request (a retry must not re-solve), and the
        ``gateway.response`` fault fires *after* the payload is
        journaled (the retry that follows is a hit).
        """
        plan = self._fault_plan
        fault_key = (int(request.seed or 0), attempt)
        if plan is not None and plan.fires("gateway.accept", key=fault_key):
            raise _ConnectionDrop("refuse")
        key = request.idempotency_key or default_idempotency_key(request)
        payload = self._journal.lookup(key)
        if payload is None:
            waiter = self._journal.inflight(key)
            if waiter is not None:
                # coalesce onto the running solve; shield so this
                # connection dying cannot cancel the owner's future
                self._journal.stats["journal_coalesced"] += 1
                outcome, value = await asyncio.shield(waiter)
                if outcome == "error":
                    raise value
                payload = value
            else:
                payload = await self._solve_fresh(request, key)
        if plan is not None:
            spec = plan.fires("gateway.response", key=fault_key)
            if spec is not None:
                raise _ConnectionDrop(
                    spec.kind, payload if spec.kind == "truncate" else None
                )
        return 200, payload

    async def _solve_fresh(
        self, request: AuctionRequest, key: str
    ) -> dict[str, Any]:
        """Own the solve for ``key``: submit, await, journal the payload."""
        claim = self._journal.begin(key)
        try:
            try:
                future = self.service.submit(request)
            except KeyError as exc:
                raise _HttpError(
                    "unknown-scene",
                    f"scene {request.scene_id!r} is not registered; "
                    "POST it to /v1/scenes first",
                ) from exc
            except (ValueError, RuntimeError) as exc:
                # invalid mode/deadline, or submit-after-close — nothing accepted
                if isinstance(exc, ShedError):
                    raise  # typed shed keeps its 503, it is not a bad request
                raise _HttpError("bad-request", str(exc)) from exc
            result = await asyncio.wrap_future(future)
            payload: dict[str, Any] = result.to_wire()
        except BaseException as exc:  # noqa: BLE001
            # errors are released, never journaled: coalesced waiters see
            # the same failure, and a later retry genuinely re-attempts
            self._journal.fail(key, claim, exc)
            raise
        self._journal.complete(key, claim, payload)
        return payload

    async def _solve_batch(
        self, data: dict[str, Any], headers: dict[str, str]
    ) -> tuple[int, dict[str, Any]]:
        """Submit a batch concurrently; one envelope per item, in order.

        Items are submitted back to back *before* any is awaited, so the
        service's coalescing window sees them as one arrival wave — the
        wire-level equivalent of :meth:`AuctionService.solve_batch` —
        and per-item failures stay per-item (HTTP 200 with mixed
        envelopes), matching how the in-process API fails futures
        individually.
        """
        items = data.get("requests")
        if not isinstance(items, list):
            raise _HttpError("bad-request", 'expected {"requests": [...]}')
        requests = [self._decode_request(item, headers) for item in items]
        attempt = self._attempt_from(headers)

        async def run(request: AuctionRequest) -> dict[str, Any]:
            try:
                _status, payload = await self._solve_one(request, attempt)
            except _ConnectionDrop:
                raise  # injected network fault abandons the whole connection
            except _HttpError as exc:  # repro: allow[silent-except] -- per-item error envelope in the batch response
                return exc.to_wire()
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # noqa: BLE001  # repro: allow[silent-except] -- per-item typed wire error in the batch response
                return error_to_wire(exc)
            return payload

        responses = await asyncio.gather(*(run(request) for request in requests))
        return 200, {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "responses": list(responses),
        }


class GatewayServer:
    """Synchronous wrapper: the gateway's event loop on a daemon thread.

    ``with GatewayServer(service) as server:`` binds an ephemeral
    localhost port (``server.port``), serves until ``close()``, and never
    outlives the interpreter (daemon thread).  The backing service is
    *not* closed by this wrapper — the caller owns its lifecycle, so one
    service can be driven through the gateway and in-process at once
    (which is exactly how the replay-parity benchmark works).
    """

    def __init__(
        self,
        service: AuctionService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        journal_capacity: int = 1024,
        max_header_bytes: int = _MAX_HEADER_BYTES,
        max_body_bytes: int = _MAX_BODY_BYTES,
    ) -> None:
        self.gateway = AuctionGateway(
            service,
            journal_capacity=journal_capacity,
            max_header_bytes=max_header_bytes,
            max_body_bytes=max_body_bytes,
        )
        self.host = host
        self._requested_port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.Server | None = None
        self.port: int = 0

    def start(self) -> "GatewayServer":
        """Start the loop thread and bind the listening socket."""
        if self._thread is not None:
            return self
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="gateway-loop", daemon=True
        )
        self._thread.start()
        started = asyncio.run_coroutine_threadsafe(
            self.gateway.start(self.host, self._requested_port), self._loop
        )
        self._server = started.result(timeout=30)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def kill(self) -> None:
        """Simulate this replica's process dying mid-trace.

        ``close()`` is a graceful drain: the listener stops but live
        keep-alive connections finish their exchanges.  ``kill()`` also
        slams every open connection, so clients see resets/EOF on their
        in-flight requests — the signal that drives
        :class:`~repro.service.client.GatewayClient` endpoint eviction.
        """
        loop, server = self._loop, self._server
        if loop is not None and server is not None:

            def slam() -> None:
                server.close()
                self.gateway.abort_connections()

            loop.call_soon_threadsafe(slam)
        self.close()

    def close(self) -> None:
        """Stop accepting, close the listener, and join the loop thread."""
        loop, server, thread = self._loop, self._server, self._thread
        if loop is None or thread is None:
            return
        if server is not None:

            async def shutdown() -> None:
                server.close()
                await server.wait_closed()

            asyncio.run_coroutine_threadsafe(shutdown(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()
        self._loop = self._thread = self._server = None

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
