"""Set-up and the untraced live drivers.

``set_up`` builds one serving stack — scenes, registration, service (and
for HTTP its process pool, gateway and client) — and sends the warm-up
requests.  ``open_loop`` sends fixed-rate phases on schedule whatever the
latency; ``closed_loop`` is one caller that sends its next request when
the previous one returns.  Neither records spans.
"""

from __future__ import annotations

import concurrent.futures
import json
import pathlib
import resource
import subprocess
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.experiments.workloads import metro_disk_scene
from repro.service import AuctionRequest, AuctionService, SyncGatewayClient
from workloads import CLOSED_CAP, HTTP_CONNECTIONS, Phase, Plan

HERE = pathlib.Path(__file__).resolve().parent

WAIT_S = 120.0  # how long a request may stay unresolved before it counts as lost
LEAD_S = 0.05  # schedule offset so the first request of a phase is not already late


@dataclass
class Sent:
    """One request as the driver saw it (perf_counter stamps)."""

    phase: str
    request: AuctionRequest
    due: float
    sent: float
    done: float | None = None
    result: Any = None
    error: BaseException | None = None

    def stamp(self, _future: concurrent.futures.Future) -> None:
        self.done = time.perf_counter()


class ServerProcess:
    """``server.py`` in a child process, driven one JSON line at a time."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=HERE.parent,
        )

    def call(self, op: str, **kwargs: Any) -> dict[str, Any]:
        self.proc.stdin.write(json.dumps({"op": op, **kwargs}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited ({self.proc.poll()}) during {op!r}")
        return json.loads(line)

    def close(self) -> None:
        """End its input (it tears down what is open) and wait for it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Stack:
    """One serving stack; :meth:`close` releases every part that exists."""

    service: AuctionService | None = None
    server: ServerProcess | None = None
    client: SyncGatewayClient | None = None

    def submit(self, request: AuctionRequest) -> concurrent.futures.Future:
        front = self.client if self.client is not None else self.service
        return front.submit(request)

    def counters(self) -> dict[str, Any]:
        if self.client is None:
            return {"service": self.service.metrics_snapshot(), "rss_mb": peak_rss_mb()}
        return {**self.server.call("counters"), "client": self.client.stats()}

    def reset_metrics(self) -> None:
        if self.client is None:
            self.service.metrics.reset()
        else:
            self.server.call("reset")

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
            self.server.call("teardown")
        if self.service is not None:
            self.service.close()
            self.service = None


def set_up(
    plan: Plan, times: defaultdict[str, list[float]], server: ServerProcess | None
) -> tuple[Stack, float]:
    """Build, register, start and warm one stack; returns it and the seconds taken.

    For HTTP the serving side is set up inside ``server`` (a process
    started once per run) and the client here.  Per-scene build and
    registration times are appended to ``times``.
    """
    start = time.perf_counter()
    stack = Stack()
    try:
        if plan.http:
            stack.server = server
            reply = server.call(
                "setup", n=plan.n, scene_seeds=plan.scene_seeds, shards=plan.shards
            )
            times["scenes.build"].extend(reply["build"])
            times["scenes.register"].extend(reply["register"])
            stack.client = SyncGatewayClient(
                port=reply["port"], max_connections=HTTP_CONNECTIONS
            )
        else:
            scenes = []
            for scene_seed in plan.scene_seeds:
                t0 = time.perf_counter()
                scenes.append(metro_disk_scene(plan.n, seed=scene_seed))
                times["scenes.build"].append(time.perf_counter() - t0)
            stack.service = AuctionService(executor=plan.executor, num_shards=plan.shards)
            for scene in scenes:
                t0 = time.perf_counter()
                stack.service.registry.register(scene)
                times["scenes.register"].append(time.perf_counter() - t0)
        # sent together, so a second pool worker takes one if the first is busy
        for future in [stack.submit(request) for request in plan.warmups]:
            future.result(timeout=WAIT_S)
    except BaseException:
        stack.close()
        raise
    return stack, time.perf_counter() - start


def _settle(batch: list[tuple[Sent, concurrent.futures.Future]]) -> None:
    """Wait for every future; record results and typed failures.  A request
    still unresolved after ``WAIT_S`` is lost: neither, so the accounting
    check fails."""
    concurrent.futures.wait([f for _, f in batch], timeout=WAIT_S)
    for record, future in batch:
        if not future.done():
            record.done = None
        elif future.exception() is not None:
            record.error, record.done = future.exception(), None
        else:
            record.result = future.result()


def open_loop(stack: Stack, phases: list[Phase]) -> list[Sent]:
    """Send each phase on its schedule; drain it before the next starts."""
    records: list[Sent] = []
    for phase in phases:
        start = time.perf_counter() + LEAD_S
        batch = []
        for offset, request in zip(phase.due, phase.requests):
            due = start + offset
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            record = Sent(phase.name, request, due, time.perf_counter())
            future = stack.submit(request)
            future.add_done_callback(record.stamp)
            batch.append((record, future))
        _settle(batch)
        records.extend(record for record, _ in batch)
    return records


def closed_loop(
    stack: Stack, request_at: Callable[[int], AuctionRequest], seconds: float
) -> list[Sent]:
    """One caller until ``seconds`` of request time have been measured.

    Generating the next request happens between requests and is not
    counted: a request is due when it has been generated.
    """
    records: list[Sent] = []
    busy = 0.0
    for index in range(CLOSED_CAP):
        if busy >= seconds:
            break
        request = request_at(index)
        due = time.perf_counter()
        record = Sent("closed", request, due, time.perf_counter())
        future = stack.submit(request)
        future.add_done_callback(record.stamp)
        _settle([(record, future)])
        records.append(record)
        busy += (record.done if record.done is not None else time.perf_counter()) - due
    return records


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
