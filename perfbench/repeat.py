#!/usr/bin/env python3
"""Run the benchmark several times per workload, one seed per run, and
summarize each end-to-end metric by its median and quartile spread.

    python3 perfbench/repeat.py --runs 10 [--workloads error-sweep,code-search]
                                [--seed-base 1] [--record LABEL]

The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles of statistics.quantiles(values, n=4); a spread above a third of
the metric's bound in BENCHMARK.json is flagged.  With --record, one
traced run per workload is added and the summary is appended to
perfbench/trajectory.json under LABEL.  Runs are sequential and each is
waited for.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRAJECTORY = BENCH_DIR / "trajectory.json"


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}\n{proc.stdout[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--record", metavar="LABEL", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(args.seed_base, args.seed_base + args.runs))
    entry = {
        "label": args.record,
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    flagged = 0
    for name in names:
        per_metric: dict[str, list[float]] = {}
        walls = []
        for seed in seeds:
            t0 = time.perf_counter()
            result, details = run_once(spec, name, seed, 0)
            walls.append(time.perf_counter() - t0)
            entry.setdefault("commit", details["provenance"]["commit"])
            entry.setdefault("source_sha256", details["provenance"]["source_sha256"])
            entry.setdefault("nproc", details["provenance"]["nproc"])
            for metric, m in result["metrics"].items():
                per_metric.setdefault(metric, []).append(m["value"])
        e2e = {}
        for metric, values in per_metric.items():
            s = summarize(values)
            bound = bounds[metric]["bound"]
            flag = metric != "setup_s" and s["spread"] > bound / 3
            flagged += flag
            e2e[metric] = {"unit": bounds[metric]["unit"], **s}
            print(
                f"{name:15s} {metric:16s} median {s['median']:14.6g}  spread {s['spread']:.4f}"
                f"  bound {bound:.2f}{'  WIDE' if flag else ''}  "
                + " ".join(f"{v / s['median']:.3f}" for v in values),
                flush=True,
            )
        print(f"{name:15s} run wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s", flush=True)
        entry["workloads"][name] = {"e2e": e2e}
        if args.record:
            result, _ = run_once(spec, name, seeds[0], 1)
            entry["workloads"][name]["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
    if args.record:
        trajectory = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else []
        trajectory.append(entry)
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
