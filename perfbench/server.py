"""The serving side of ``http_n300``, in a process of its own.

The benchmark process generates the traffic and drives it through
``SyncGatewayClient``; this process hosts ``GatewayServer`` over an
``AuctionService(executor="process")`` and its pool, as a deployment
would, so the client's event loop and the load generator do not compete
with the gateway for one interpreter lock.  It is controlled by one JSON
command per line on stdin and answers one JSON line on stdout:

* ``{"op": "setup", "n", "scene_seeds", "shards"}`` — build and register
  the scenes, start the service and gateway; answers the port, scene ids
  and per-scene build/register seconds;
* ``{"op": "reset"}`` — clear the service's latency metrics;
* ``{"op": "counters"}`` — ``metrics_snapshot()``, ``gateway.counters()``
  and this process's peak RSS;
* ``{"op": "teardown"}`` — close the gateway, then the service and pool.

End of input closes whatever is open.  Import-safe: pool workers started
by forkserver or spawn re-import this module.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys
import time
from typing import Any

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.workloads import metro_disk_scene  # noqa: E402
from repro.service import AuctionService, GatewayServer  # noqa: E402


OPS = ("setup", "reset", "counters", "teardown")


class Server:
    def __init__(self) -> None:
        self.service: AuctionService | None = None
        self.gateway: GatewayServer | None = None

    def setup(self, n: int, scene_seeds: list[int], shards: int) -> dict[str, Any]:
        build, register = [], []
        scenes = []
        for seed in scene_seeds:
            t0 = time.perf_counter()
            scenes.append(metro_disk_scene(n, seed=seed))
            build.append(time.perf_counter() - t0)
        self.service = AuctionService(executor="process", num_shards=shards)
        ids = []
        for scene in scenes:
            t0 = time.perf_counter()
            ids.append(self.service.registry.register(scene))
            register.append(time.perf_counter() - t0)
        self.gateway = GatewayServer(self.service).start()
        return {"port": self.gateway.port, "scene_ids": ids, "build": build,
                "register": register}

    def reset(self) -> dict[str, Any]:
        self.service.metrics.reset()
        return {}

    def counters(self) -> dict[str, Any]:
        return {
            "service": self.service.metrics_snapshot(),
            "gateway": self.gateway.gateway.counters(),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def teardown(self) -> dict[str, Any]:
        if self.gateway is not None:
            self.gateway.close()
            self.gateway = None
        if self.service is not None:
            self.service.close()
            self.service = None
        return {}


def main() -> int:
    server = Server()
    try:
        for line in sys.stdin:
            command = json.loads(line)
            op = command.pop("op")
            if op not in OPS:
                raise ValueError(f"unknown command {op!r}")
            reply = getattr(server, op)(**command)
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        server.teardown()
        # the pool's forkserver and multiprocessing's resource tracker would
        # otherwise outlive this process by a moment; stopping (and reaping)
        # them here lets the parent's wait cover them
        from multiprocessing import forkserver, resource_tracker

        for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
            stop = getattr(helper, "_stop", None)
            if stop is not None:
                stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
