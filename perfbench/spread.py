"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload http_n300 --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (sequentially, each in a fresh process) and
prints, per end-to-end metric, the median and the quartile spread
(Q3 − Q1) / median next to the metric's bound from ``BENCHMARK.json``.
The spread should stay below a third of the bound; ``setup_s`` is exempt
from the spread rule (only its median is compared between runs).  The
per-run results are appended to ``perfbench/results/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

from stats import median, quartile_spread

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    log = HERE / "results" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds)
        with log.open("a") as out:
            out.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    status = 0
    for metric in spec["end_to_end"]:
        xs = values[metric["name"]]
        spread = quartile_spread(xs) if len(xs) >= 2 else float("nan")
        bound = metric["bound"]
        exempt = metric["name"] == "setup_s"
        verdict = "exempt" if exempt else ("ok" if spread < bound / 3 else
                                           "WIDE" if spread < bound else "OVER")
        if verdict == "OVER":
            status = 1
        print(f"{metric['name']:20s} median {median(xs):12.6g} {metric['unit']:6s} "
              f"spread {spread:7.4f}  bound {bound:.3f}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
