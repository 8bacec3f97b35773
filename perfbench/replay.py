"""The traced replay: the live run's requests, serially, through public calls.

Each request is one ``request`` root span whose children are timed calls
into the layers: ``wire.*`` (:mod:`repro.service.wire` plus ``json``),
``compiled.*`` (:class:`~repro.engine.CompiledAuction`), ``highs.solve``
(``.solve_lp()`` after assembly), ``rounding.round_validate``
(``.solve(seed=...)`` with the LP cached) and ``mechanism.*`` (the Section 5
pipeline as :meth:`TruthfulMechanism.prepare` runs it).  Repeated profiles
reuse their compiled auction, as the service's problem cache does, so a
replayed request does the work the live one did.

The HTTP replay puts the wire inside the request (the live request crossed
it); in-process workloads never cross a wire, so their ``wire.*`` spans are
separate roots outside the end-to-end time.
"""

from __future__ import annotations

import json
import time
from typing import Any

import numpy as np

from repro.core.auction import AuctionProblem
from repro.core.solver import SpectrumAuctionSolver
from repro.engine import CompiledAuction, compile_structure, warm_start_stats
from repro.mechanism.lavi_swamy import decompose_lp_solution, default_alpha
from repro.mechanism.vcg import vcg_payments
from repro.service import AuctionRequest, AuctionResponse, request_from_wire, request_to_wire
from repro.util.lru import LRUCache
from repro.util.rng import ensure_rng
from spans import Recorder


class Replay:
    """Replays requests on precompiled scene structures.

    ``primary`` calls feed the counters (LP shapes, backend solves,
    feasibility, mechanism sizes); the untraced twin used to measure
    tracing overhead passes ``primary=False`` and leaves them alone.
    """

    def __init__(
        self, scenes: dict[str, Any], recorder: Recorder, http: bool, pricing: str
    ) -> None:
        self.http = http
        self.pricing = pricing
        self.scenes = scenes
        self.structures = {}
        for scene_id, scene in scenes.items():
            with recorder.span("compiled.structure"):
                self.structures[scene_id] = compile_structure(scene, cache=LRUCache(1))
        self.cache: dict[tuple, CompiledAuction] = {}
        self.counts: dict[str, list[float]] = {}
        self.backend_solves = 0
        self.warm_solves = 0

    def _count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    @staticmethod
    def _key(request: AuctionRequest) -> tuple | None:
        if request.profile_key is None:
            return None
        return (request.scene_id, request.k, request.profile_key)

    def cached(self, request: AuctionRequest) -> bool:
        key = self._key(request)
        return key is not None and key in self.cache

    def run(
        self, rid: int, request: AuctionRequest, rec: Recorder, hit: bool, primary: bool
    ) -> tuple[float, float]:
        """Replay one request; returns its LP value and end-to-end seconds.

        ``hit`` says whether the compiled auction is taken from the
        replay's cache, decided by the caller before either twin runs so
        both do the same work.
        """
        before = warm_start_stats()
        start = time.perf_counter()
        with rec.span("request", rid):
            if self.http:
                request = self._wire_in(rid, request, rec, primary)
            if request.mode == "truthful":
                lp_value, result = self._truthful(rid, request, rec, primary), None
            else:
                lp_value, result = self._allocate(rid, request, rec, hit, primary)
            if self.http:
                self._wire_out(rid, request, result, rec)
        seconds = time.perf_counter() - start
        if primary:
            if not self.http:  # off the live path: measured outside end-to-end time
                self._wire_in(rid, request, rec, primary)
                if result is not None:
                    self._wire_out(rid, request, result, rec)
            after = warm_start_stats()
            self.backend_solves += (after["warm"] + after["cold"]) - (
                before["warm"] + before["cold"]
            )
            self.warm_solves += after["warm"] - before["warm"]
        return lp_value, seconds

    @staticmethod
    def _wire_out(rid: int, request: AuctionRequest, result: Any, rec: Recorder) -> None:
        with rec.span("wire.response_encode", rid):
            AuctionResponse.from_result(
                result, scene_id=request.scene_id, seed=request.seed
            ).to_json()

    def _wire_in(
        self, rid: int, request: AuctionRequest, rec: Recorder, primary: bool
    ) -> AuctionRequest:
        with rec.span("wire.request_encode", rid):
            body = json.dumps(request_to_wire(request))
        with rec.span("wire.request_decode", rid):
            decoded = request_from_wire(json.loads(body))
        if primary:
            self._count("wire.request_kb", len(body.encode()) / 1024.0)
        return decoded

    def _allocate(
        self, rid: int, request: AuctionRequest, rec: Recorder, hit: bool, primary: bool
    ) -> tuple[float, Any]:
        key = self._key(request)
        compiled = self.cache[key] if hit else None
        if compiled is None:
            structure = self.scenes[request.scene_id]
            with rec.span("compiled.columns", rid):
                compiled = CompiledAuction(
                    AuctionProblem(structure, request.k, list(request.valuations)),
                    structure=self.structures[request.scene_id],
                )
                compiled.cols
            with rec.span("compiled.assemble", rid):
                a, _, _ = compiled.matrices_csc()
            with rec.span("highs.solve", rid):
                compiled.solve_lp()
            if primary:
                self._count("compiled.lp_rows", a.shape[0])
                self._count("compiled.lp_cols", a.shape[1])
                self._count("compiled.lp_nnz", a.nnz)
                if key is not None:
                    self.cache[key] = compiled
        with rec.span("rounding.round_validate", rid):
            result = compiled.solve(seed=request.seed)
        if primary:
            self._count("rounding.feasible", float(result.feasible))
        return result.lp_value, result

    def _truthful(
        self, rid: int, request: AuctionRequest, rec: Recorder, primary: bool
    ) -> float:
        structure = self.scenes[request.scene_id]
        compiled_structure = self.structures[request.scene_id]
        problem = AuctionProblem(structure, request.k, list(request.valuations))
        with rec.span("compiled.columns", rid):
            compiled = CompiledAuction(problem, structure=compiled_structure)
            compiled.cols
        with rec.span("compiled.assemble", rid):
            a, _, _ = compiled.matrices_csc()
        with rec.span("mechanism.lp", rid):
            solution = SpectrumAuctionSolver(problem, compiled=compiled).solve_lp("auto")
        alpha = default_alpha(problem)
        with rec.span("mechanism.decompose", rid):
            decomposition = decompose_lp_solution(
                problem,
                solution,
                alpha=alpha,
                seed=ensure_rng(0),
                pricing=self.pricing,
                compiled_structure=compiled_structure,
            )
        with rec.span("mechanism.vcg", rid):
            vcg_payments(problem, solution, alpha, compiled_structure=compiled_structure)
        with rec.span("mechanism.sample", rid):
            decomposition.sample(ensure_rng(request.seed))
        if primary:
            self._count("compiled.lp_rows", a.shape[0])
            self._count("compiled.lp_cols", a.shape[1])
            self._count("compiled.lp_nnz", a.nnz)
            self._count("mechanism.decompose_iterations", decomposition.iterations)
            self._count("mechanism.pool_size", len(decomposition.allocations))
            self._count("mechanism.vcg_solves", _vcg_solves(solution, problem.n))
        return solution.value


def _vcg_solves(solution: Any, n: int) -> int:
    """LP solves :func:`vcg_payments` makes on its own HiGHS instance: one
    base solve plus one probe per bidder its dual screen does not skip."""
    contributions = np.zeros(n)
    for column, x in solution.support():
        contributions[column.vertex] += column.value * x
    probes = np.flatnonzero(
        (contributions > 0) & (contributions - np.asarray(solution.z) > 1e-9)
    )
    return 1 + probes.size if probes.size else 0


def lp_value(scene: Any, request: AuctionRequest) -> float:
    """The request's LP (1)/(4) optimum, solved cold and untraced."""
    problem = AuctionProblem(scene, request.k, list(request.valuations))
    return CompiledAuction(problem).solve_lp().value
