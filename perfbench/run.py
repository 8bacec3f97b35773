"""The repository's benchmark: three workloads, end to end and layer by layer.

Run from the repository root (no install step; ``src`` is put on the path):

    python3 perfbench/run.py --workload http_n300 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the workload untraced and prints every end-to-end
metric; ``--trace 1`` runs it again untraced for the live counters, then
replays the same requests serially through the layers' public calls with
spans recorded, and prints every per-layer metric.  Either way the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the exit status is
non-zero when the correctness gate fails.  ``--workload all`` runs every
workload, each in a fresh process.

The module is import-safe: pool workers started by forkserver or spawn
re-import it, so everything that runs lives under the ``__main__`` check.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from gate import (  # noqa: E402
    Gate,
    accounting_violations,
    allocate_violations,
    independence_violations,
    lp_match_violations,
    truthful_violations,
)
from live import ServerProcess, Sent, closed_loop, open_loop, set_up  # noqa: E402
from replay import Replay, lp_value  # noqa: E402
from spans import Recorder, coverage, durations_by_name  # noqa: E402
from stats import due_latencies, median, percentile, share_within, tail_level  # noqa: E402
from workloads import WORKLOADS, Plan  # noqa: E402

SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups
# requests whose LP an untraced run re-solves to check lp_value (a traced
# run checks every request against its replay)
LP_CHECKS = {"http_n300": 8, "epochs_n2000": 2, "truthful_n1000": 4}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "slo_share": "share",
    "auctions_per_s": "1/s",
    "welfare_lp_ratio": "ratio",
}

PER_LAYER = {
    "scenes.build_ms": "ms",
    "scenes.register_ms": "ms",
    "compiled.structure_ms": "ms",
    "wire.request_encode_ms": "ms",
    "wire.request_decode_ms": "ms",
    "wire.response_encode_ms": "ms",
    "wire.request_kb": "KB",
    "gateway.overhead_ms": "ms",
    "client.attempts_per_request": "count",
    "gateway.error_responses": "count",
    "service.latency_p50_ms": "ms",
    "service.mean_batch_size": "count",
    "service.problem_cache_hit_rate": "share",
    "service.structure_cache_hit_rate": "share",
    "service.lp_solves_per_request": "count",
    "service.queue_overhead_ms": "ms",
    "pool.ipc_ms_per_job": "ms",
    "pool.ipc_kb_per_job": "KB",
    "pool.job_imbalance": "ratio",
    "pool.restarts": "count",
    "compiled.columns_ms": "ms",
    "compiled.assemble_ms": "ms",
    "compiled.lp_rows": "count",
    "compiled.lp_cols": "count",
    "compiled.lp_nnz": "count",
    "highs.solve_ms": "ms",
    "highs.solves_per_request": "count",
    "highs.warm_share": "share",
    "rounding.round_validate_ms": "ms",
    "rounding.feasible_share": "share",
    "mechanism.lp_ms": "ms",
    "mechanism.decompose_ms": "ms",
    "mechanism.decompose_iterations": "count",
    "mechanism.pool_size": "count",
    "mechanism.vcg_ms": "ms",
    "mechanism.sample_ms": "ms",
    "mechanism.lp_solves_per_request": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.coverage": "share",
    "trace.overhead_share": "share",
}


def host_fingerprint() -> dict[str, Any]:
    try:
        from scipy.optimize._highspy import _core as highs_core

        highs = ".".join(
            str(getattr(highs_core, f"HIGHS_VERSION_{part}", "?"))
            for part in ("MAJOR", "MINOR", "PATCH")
        )
    except ImportError:
        highs = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
    }


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
def check_outputs(
    plan: Plan, scenes: dict[str, Any], records: list[Sent], gate: Gate
) -> list[bool]:
    """Gate every served output; returns per-output channel independence."""
    independent = []
    for i, record in enumerate(records):
        if record.result is None:
            continue
        csr = scenes[record.request.scene_id].graph.csr
        tag = f"request {i}: "
        valuations = record.request.valuations
        if record.request.mode == "truthful":
            gate.add(truthful_violations(
                csr.indptr, csr.indices, plan.k, valuations, record.result, tag))
            allocation = record.result.sampled_allocation
        else:
            gate.add(allocate_violations(
                csr.indptr, csr.indices, plan.k, valuations, record.result, tag))
            allocation = record.result.allocation
        independent.append(
            not independence_violations(csr.indptr, csr.indices, plan.k, allocation)
        )
    completed = sum(r.result is not None for r in records)
    failed = sum(r.error is not None for r in records)
    gate.add(accounting_violations(len(records), completed, failed))
    return independent


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def welfare_lp_ratio(records: list[Sent]) -> float:
    """Σ welfare / Σ LP value.  For truthful outcomes the welfare is the
    expected value the decomposition actually delivers (achieved pair
    mass × bid value), which is LP/α exactly when it is correct."""
    welfare = lp = 0.0
    for record in records:
        result = record.result
        if result is None:
            continue
        lp += result.lp_value
        if record.request.mode == "truthful":
            valuations = record.request.valuations
            welfare += sum(
                valuations[v].value(bundle) * mass
                for (v, bundle), mass in result.decomposition.pair_mass().items()
            )
        else:
            welfare += result.welfare
    return welfare / lp


def end_to_end(
    plan: Plan, records: list[Sent], setups: list[float], rss: float
) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics plus human-readable detail lines."""
    lines = []
    completed = [r for r in records if r.result is not None]
    if plan.phases:
        by_phase = {
            p.name: [r for r in records if r.phase == p.name] for p in plan.phases
        }
        lat = {
            name: due_latencies([r.due for r in rs], [r.done for r in rs])
            for name, rs in by_phase.items()
        }
        # the median over both phases; the limit applies to the loaded phase
        everyone, limited = lat["light"] + lat["loaded"], lat["loaded"]
        measured = sum(
            max(r.done for r in rs if r.done is not None) - min(r.due for r in rs)
            for rs in by_phase.values()
        )
        for name, xs in lat.items():
            q = tail_level(len(xs))
            lines.append(
                f"{name}: {len(xs)} requests, p50 {1e3 * median(xs):.1f} ms, "
                f"p{q:g} {1e3 * percentile(xs, q):.1f} ms, "
                f"within {1e3 * plan.limit_s:g} ms {share_within(xs, plan.limit_s):.3f}"
            )
    else:
        everyone = limited = due_latencies([r.due for r in records], [r.done for r in records])
        measured = sum(r.done - r.due for r in completed)
        lines.append("request latencies (ms): " + " ".join(f"{1e3 * x:.0f}" for x in everyone))
    lag = [r.sent - r.due for r in records]
    lines.append(f"generator lag p50 {1e3 * median(lag):.2f} ms, max {1e3 * max(lag):.1f} ms")
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "latency_p50_ms": 1e3 * median(everyone),
        "slo_share": share_within(limited, plan.limit_s),
        "auctions_per_s": len(completed) / measured,
        "welfare_lp_ratio": welfare_lp_ratio(records),
    }
    return metrics, lines


# ----------------------------------------------------------------------
# per-layer metrics (traced run)
# ----------------------------------------------------------------------
def _service_totals(counters: dict[str, Any]) -> dict[str, float]:
    """Cache, LP-solve and pool counters, summed over wherever the work ran
    (the parent service, or every pool worker for the process executor)."""
    snap = counters["service"]
    pool = snap.get("pool")
    if pool is None:
        caches = [snap["caches"]]
    else:
        caches = [w["worker_stats"]["caches"] for w in pool["workers"] if w["worker_stats"]]
    out: dict[str, float] = defaultdict(float)
    for cache in caches:
        for name in ("problems", "mechanisms", "structures"):
            out[f"{name}.hits"] += cache[name]["hits"]
            out[f"{name}.misses"] += cache[name]["misses"]
        out["lp_solves"] += cache["lp_warm_solves"]["warm"] + cache["lp_warm_solves"]["cold"]
    if pool is not None:
        out["ipc_seconds"] = pool["ipc_seconds"]
        out["ipc_bytes"] = pool["ipc_bytes_sent"] + pool["ipc_bytes_received"]
        out["restarts"] = pool["restarts"]
        for w in pool["workers"]:
            out[f"jobs.{w['index']}"] = w["jobs"]
    return out


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(
    plan: Plan,
    records: list[Sent],
    before: dict[str, Any],
    after: dict[str, Any],
    times: dict[str, list[float]],
    replay: Replay,
    rec: Recorder,
    twins: list[tuple[float, float]],
    independent: list[bool],
) -> dict[str, float]:
    completed = [r for r in records if r.result is not None]
    d = durations_by_name(rec.spans)

    def ms(name: str) -> float:
        return 1e3 * median(d[name]) if name in d else 0.0

    def count(name: str) -> float:
        return float(median(replay.counts[name])) if name in replay.counts else 0.0

    t0, t1 = _service_totals(before), _service_totals(after)
    delta = {key: t1[key] - t0.get(key, 0.0) for key in t1}
    snap = after["service"]
    service_p50 = 1e3 * snap["latency_seconds"]["p50"] if snap["latency_seconds"] else 0.0
    # replayed engine time per request: the request span minus its wire spans
    engine: dict[int, float] = {}
    for i, span in enumerate(rec.spans):
        if span.name == "request":
            engine[i] = span.duration
    for span in rec.spans:
        if span.parent in engine and span.name.startswith("wire."):
            engine[span.parent] -= span.duration
    replayed = len(engine)
    jobs = [delta[key] for key in delta if key.startswith("jobs.")]
    total_jobs = sum(jobs)
    if plan.http:
        client = {k: after["client"][k] - before["client"][k] for k in after["client"]}
        errors = after["gateway"]["responses_error"] - before["gateway"]["responses_error"]
        attempts = client["attempts"] / len(records)
    else:
        errors, attempts = 0, 1.0
    mechanism = plan.name.startswith("truthful")
    vcg = replay.counts.get("mechanism.vcg_solves", [])
    traced, untraced = sum(t for t, _ in twins), sum(u for _, u in twins)
    metrics = {
        "scenes.build_ms": 1e3 * median(times["scenes.build"]),
        "scenes.register_ms": 1e3 * median(times["scenes.register"]),
        "compiled.structure_ms": ms("compiled.structure"),
        "wire.request_encode_ms": ms("wire.request_encode"),
        "wire.request_decode_ms": ms("wire.request_decode"),
        "wire.response_encode_ms": ms("wire.response_encode"),
        "wire.request_kb": count("wire.request_kb"),
        "gateway.overhead_ms": 1e3 * median([r.done - r.sent for r in completed]) - service_p50,
        "client.attempts_per_request": attempts,
        "gateway.error_responses": errors,
        "service.latency_p50_ms": service_p50,
        "service.mean_batch_size": snap["mean_batch_size"] or 0.0,
        "service.problem_cache_hit_rate": _rate(
            delta["problems.hits"] + delta["mechanisms.hits"],
            delta["problems.misses"] + delta["mechanisms.misses"],
        ),
        "service.structure_cache_hit_rate": _rate(
            delta["structures.hits"], delta["structures.misses"]
        ),
        "service.lp_solves_per_request": delta["lp_solves"] / len(completed),
        "service.queue_overhead_ms": service_p50 - 1e3 * median(list(engine.values())),
        "pool.ipc_ms_per_job": 1e3 * delta["ipc_seconds"] / total_jobs if total_jobs else 0.0,
        "pool.ipc_kb_per_job": delta["ipc_bytes"] / 1024 / total_jobs if total_jobs else 0.0,
        "pool.job_imbalance": max(jobs) / (total_jobs / len(jobs)) if total_jobs else 1.0,
        "pool.restarts": delta.get("restarts", 0.0),
        "compiled.columns_ms": ms("compiled.columns"),
        "compiled.assemble_ms": ms("compiled.assemble"),
        "compiled.lp_rows": count("compiled.lp_rows"),
        "compiled.lp_cols": count("compiled.lp_cols"),
        "compiled.lp_nnz": count("compiled.lp_nnz"),
        "highs.solve_ms": ms("highs.solve"),
        "highs.solves_per_request": replay.backend_solves / replayed,
        "highs.warm_share": (
            replay.warm_solves / replay.backend_solves if replay.backend_solves else 0.0
        ),
        "rounding.round_validate_ms": ms("rounding.round_validate"),
        "rounding.feasible_share": (
            float(np.mean(replay.counts["rounding.feasible"]))
            if "rounding.feasible" in replay.counts
            else float(np.mean(independent))
        ),
        "mechanism.lp_ms": ms("mechanism.lp"),
        "mechanism.decompose_ms": ms("mechanism.decompose"),
        "mechanism.decompose_iterations": count("mechanism.decompose_iterations"),
        "mechanism.pool_size": count("mechanism.pool_size"),
        "mechanism.vcg_ms": ms("mechanism.vcg"),
        "mechanism.sample_ms": ms("mechanism.sample"),
        "mechanism.lp_solves_per_request": (
            replay.backend_solves / replayed + float(np.mean(vcg)) if mechanism else 0.0
        ),
        "loadgen.lag_p99_ms": 1e3 * percentile([r.sent - r.due for r in records], 99.0),
        "trace.coverage": coverage(rec.spans),
        "trace.overhead_share": traced / untraced - 1.0,
    }
    return metrics


def traced_replay(
    plan: Plan, scenes: dict[str, Any], records: list[Sent], gate: Gate, pricing: str
) -> tuple[Replay, Recorder, list[tuple[float, float]]]:
    """Replay every completed request traced, checking its live lp_value;
    every other request is also replayed untraced (order alternating) for
    the tracing overhead."""
    rec = Recorder()
    off = Recorder(enabled=False)
    replay = Replay(scenes, rec, plan.http, pricing)
    twins = []
    for rid, record in enumerate(r for r in records if r.result is not None):
        hit = replay.cached(record.request)
        if rid % 2:
            order = (True, False) if (rid // 2) % 2 else (False, True)
            timed = {}
            for traced in order:
                timed[traced] = replay.run(
                    rid, record.request, rec if traced else off, hit, primary=traced
                )
            (value, t_on), (_, t_off) = timed[True], timed[False]
            twins.append((t_on, t_off))
        else:
            value, _ = replay.run(rid, record.request, rec, hit, primary=True)
        gate.add(lp_match_violations(record.result.lp_value, value, f"request {rid}: "))
    return replay, rec, twins


# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    plan = WORKLOADS[name](seed, seconds)
    # the generated requests are the harness's data, not the program's:
    # keep the collector from rescanning them during the measurement
    gc.collect()
    gc.freeze()
    times: dict[str, list[float]] = defaultdict(list)
    setups: list[float] = []
    server = ServerProcess() if plan.http else None
    stack = None
    try:
        for _ in range(SETUP_REPEATS):
            if stack is not None:
                stack.close()
            stack, took = set_up(plan, times, server)
            setups.append(took)
        before = stack.counters()
        stack.reset_metrics()
        if plan.phases:
            records = open_loop(stack, plan.phases)
        else:
            records = closed_loop(stack, plan.request_at, seconds)
        after = stack.counters()
        pricing = stack.service.mechanism_pricing if stack.service else None
    finally:
        if stack is not None:
            stack.close()
        if server is not None:
            server.close()
    scenes = plan.scenes

    gate = Gate()
    independent = check_outputs(plan, scenes, records, gate)
    completed = [r for r in records if r.result is not None]
    if trace:
        replay, rec, twins = traced_replay(plan, scenes, records, gate, pricing)
        rec.write(HERE / "results" / f"spans-{name}-seed{seed}.json")
        metrics = per_layer(
            plan, records, before, after, times, replay, rec, twins, independent
        )
        units = PER_LAYER
        lines = [f"replayed {len(completed)} requests, {len(rec.spans)} spans"]
    else:
        rng = np.random.default_rng([seed, 99])
        picks = rng.choice(len(completed), size=min(LP_CHECKS[name], len(completed)),
                           replace=False)
        for i in sorted(picks):
            record = completed[i]
            gate.add(lp_match_violations(
                record.result.lp_value,
                lp_value(scenes[record.request.scene_id], record.request),
                f"request {i}: ",
            ))
        metrics, lines = end_to_end(plan, records, setups, after["rss_mb"])
        units = END_TO_END
    failed = len(records) - len(completed)
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("host " + json.dumps(host_fingerprint()))
    print(f"setups (s): {', '.join(f'{s:.3f}' for s in setups)}")
    for line in lines:
        print(line)
    print(f"gate: {gate.checked} checks, {len(gate.violations)} violations")
    for violation in gate.violations[:20]:
        print(f"  VIOLATION {violation}")
    finite = all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": gate.ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            key: {"value": float(metrics[key]) if math.isfinite(metrics[key]) else None,
                  "unit": unit}
            for key, unit in units.items()
        },
    }
    return result, gate.ok and finite


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; prints each one's result line."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines))
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    started = time.perf_counter()
    result, ok = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"run took {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
