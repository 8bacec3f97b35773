"""The three workloads: fixed shapes and rates, requests generated from a seed.

Everything a workload sends is derived from ``--seed`` here, by this one
process, before any service exists; the program under test only ever
receives the generated :class:`~repro.service.AuctionRequest`\\ s.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.workloads import metro_disk_scene
from repro.service import AuctionRequest, SceneRegistry, poisson_trace
from repro.valuations.explicit import XORValuation
from repro.valuations.generators import random_xor_valuations

# http_n300: open loop over HTTP into a two-worker process pool
HTTP_N, HTTP_K, HTTP_BIDS = 300, 6, 4
HTTP_SCENE_SEEDS = [301, 302]  # the scenes are fixed; --seed draws the traffic
HTTP_PROFILES = 8  # reusable profiles per scene
HTTP_REPEAT = 0.5  # share of requests that reuse a profile
HTTP_CONNECTIONS = 2
HTTP_SHARDS = 2
LIGHT_RATE = 4.0  # req/s
LOADED_RATE = 6.0  # req/s: the two connections are ~50% busy, so a queue forms
LIGHT_SHARE = 0.3  # of --seconds: 30 light and 105 loaded requests at 25 s
HTTP_LIMIT_S = 0.3  # the loaded phase's latency limit (slo_share)

# epochs_n2000: one caller re-auctions one scene with re-priced bids
EPOCH_N, EPOCH_K, EPOCH_BIDS = 2000, 6, 4
EPOCH_SCENE_SEED = 2001  # scene and bundle set are fixed; --seed draws the prices
EPOCH_SCALE = (0.9, 1.1)
EPOCH_LIMIT_S = 4.0

# truthful_n1000: one caller, every profile distinct
TRUTHFUL_N, TRUTHFUL_K, TRUTHFUL_BIDS = 1000, 4, 2
TRUTHFUL_SCENE_SEED = 1001
TRUTHFUL_LIMIT_S = 12.0

# closed loops stop early if they exhaust this many generated requests
CLOSED_CAP = 400


@dataclass
class Phase:
    """One fixed-rate open-loop phase: requests and their due offsets (s)."""

    name: str
    due: list[float]
    requests: list[AuctionRequest]


@dataclass
class Plan:
    """A workload generated from one seed."""

    name: str
    executor: str
    shards: int
    n: int
    k: int
    scene_seeds: list[int]
    limit_s: float
    warmups: list[AuctionRequest]
    scenes: dict[str, object]  # scene id -> structure, for checking and replay
    http: bool = False
    phases: list[Phase] = field(default_factory=list)  # open loop
    request_at: Callable[[int], AuctionRequest] | None = None  # closed loop


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def _scenes(scene_seeds: list[int], n: int) -> tuple[SceneRegistry, list[str]]:
    registry = SceneRegistry()
    ids = [registry.register(metro_disk_scene(n, seed=s)) for s in scene_seeds]
    return registry, ids


def http_n300(seed: int, seconds: float) -> Plan:
    rng = _rng(seed, 1)
    registry, ids = _scenes(HTTP_SCENE_SEEDS, HTTP_N)
    n_light = max(1, round(LIGHT_RATE * LIGHT_SHARE * seconds))
    n_loaded = max(1, round(LOADED_RATE * (1 - LIGHT_SHARE) * seconds))
    # one unit-rate Poisson trace shares its profile pools across both
    # phases; each phase rescales its inter-arrival gaps to its own rate,
    # conditioned on its count: the n arrivals of a Poisson process given
    # that exactly n fall in [0, n/rate), so every phase lasts as long
    trace = poisson_trace(
        registry,
        ids,
        k=HTTP_K,
        rate=1.0,
        num_requests=n_light + n_loaded,
        seed=rng,
        repeat_fraction=HTTP_REPEAT,
        unique_profiles=HTTP_PROFILES,
        bids_per_bidder=HTTP_BIDS,
    )
    gaps = np.diff([0.0] + [item.arrival for item in trace])
    requests = [item.request for item in trace]

    def schedule(phase_gaps: np.ndarray, rate: float) -> list[float]:
        arrivals = np.cumsum(phase_gaps)
        span = arrivals[-1] + rng.exponential()  # the gap after the last arrival
        return [float(t) for t in arrivals / span * phase_gaps.size / rate]

    phases = [
        Phase("light", schedule(gaps[:n_light], LIGHT_RATE), requests[:n_light]),
        Phase("loaded", schedule(gaps[n_light:], LOADED_RATE), requests[n_light:]),
    ]
    warmups = [
        AuctionRequest(
            scene_id=sid,
            k=HTTP_K,
            valuations=random_xor_valuations(HTTP_N, HTTP_K, HTTP_BIDS, seed=rng),
            seed=int(rng.integers(2**31)),
        )
        for sid in ids
    ]
    return Plan(
        name="http_n300",
        executor="process",
        shards=HTTP_SHARDS,
        n=HTTP_N,
        k=HTTP_K,
        scene_seeds=HTTP_SCENE_SEEDS,
        limit_s=HTTP_LIMIT_S,
        warmups=warmups,
        scenes=registry.snapshot(),
        http=True,
        phases=phases,
    )


def epochs_n2000(seed: int, seconds: float) -> Plan:
    registry, (scene_id,) = _scenes([EPOCH_SCENE_SEED], EPOCH_N)
    # one fixed set of bundles per bidder; every epoch re-prices each bid
    base = random_xor_valuations(
        EPOCH_N, EPOCH_K, EPOCH_BIDS, seed=_rng(EPOCH_SCENE_SEED, 2)
    )
    bundles = [list(v.bids) for v in base]
    values = [np.array(list(v.bids.values())) for v in base]

    def epoch(index: int) -> AuctionRequest:
        erng = _rng(seed, 2, index + 1)
        valuations = [
            XORValuation(EPOCH_K, dict(zip(b, vals * erng.uniform(*EPOCH_SCALE, vals.size))))
            for b, vals in zip(bundles, values)
        ]
        return AuctionRequest(
            scene_id=scene_id, k=EPOCH_K, valuations=valuations,
            seed=int(erng.integers(2**31)),
        )

    return Plan(
        name="epochs_n2000",
        executor="serial",
        shards=1,
        n=EPOCH_N,
        k=EPOCH_K,
        scene_seeds=[EPOCH_SCENE_SEED],
        limit_s=EPOCH_LIMIT_S,
        warmups=[epoch(-1)],
        scenes=registry.snapshot(),
        request_at=epoch,
    )


def truthful_n1000(seed: int, seconds: float) -> Plan:
    registry, (scene_id,) = _scenes([TRUTHFUL_SCENE_SEED], TRUTHFUL_N)

    def request(index: int, mode: str = "truthful") -> AuctionRequest:
        rrng = _rng(seed, 3, index + 1)
        return AuctionRequest(
            scene_id=scene_id,
            k=TRUTHFUL_K,
            valuations=random_xor_valuations(
                TRUTHFUL_N, TRUTHFUL_K, TRUTHFUL_BIDS, seed=rrng
            ),
            seed=int(rrng.integers(2**31)),
            mode=mode,
        )

    return Plan(
        name="truthful_n1000",
        executor="serial",
        shards=1,
        n=TRUTHFUL_N,
        k=TRUTHFUL_K,
        scene_seeds=[TRUTHFUL_SCENE_SEED],
        limit_s=TRUTHFUL_LIMIT_S,
        # an allocate request compiles the scene and starts the LP backend,
        # which is all a truthful request leaves behind; a truthful warm-up
        # would cost ~5 s in each of the three set-ups
        warmups=[request(-1, mode="allocate")],
        scenes=registry.snapshot(),
        request_at=request,
    )


WORKLOADS: dict[str, Callable[[int, float], Plan]] = {
    "http_n300": http_n300,
    "epochs_n2000": epochs_n2000,
    "truthful_n1000": truthful_n1000,
}
