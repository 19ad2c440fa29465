"""Run every workload over several seeds and record a BENCH_*.json point.

From the repository root:

    python3 perfbench/record.py --out perfbench/BENCH_<name>.json

Every workload of BENCHMARK.json runs once per seed 1-10 at its
``run_seconds``, each run a separate ``perfbench/run.py`` process. Runs go
seed by seed, cycling through the workloads, so that slow drift of the
machine reaches every workload alike. Per workload and end-to-end metric the file holds the
median, the quartiles (``statistics.quantiles(values, n=4)``), the run
count, and the spread (q3 - q1) / median next to the metric's bound. One
extra ``--trace 1`` run per workload adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["shape"] = next((ln.split(": ", 1)[1] for ln in lines
                            if ln.startswith("workload ")), "")
    return result


def host_info() -> dict:
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
    except OSError:
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
            info[key.strip()] = value.strip()
    try:
        info["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        info["git_sha"] = "unknown"
    return info


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": spread, "bound": bound, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="write the summary JSON here")
    args = p.parse_args(argv)

    seconds = spec["run_seconds"]
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = list(whys)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list] = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            result = run_once(name, seed, seconds, 0)
            runs[name].append(result)
            print(f"{name} seed {seed}: {result['wall_s']:.1f} s wall, "
                  f"correct={result['correct']} failed={result['failed']}", flush=True)

    summary = {"host": host_info(), "run_seconds": seconds, "seeds": list(SEEDS),
               "workloads": {}}
    worst = 0.0
    for name in names:
        results = runs[name]
        metrics = {}
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in results], bound)
            s["unit"] = results[0]["metrics"][metric]["unit"]
            metrics[metric] = s
            flag = "" if s["spread"] < bound / 3 else ("  >bound/3" if s["spread"] <= bound
                                                       else "  >BOUND")
            if metric != "setup_s":
                worst = max(worst, s["spread"] / bound)
            print(f"{name:<9} {metric:<20} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}")
        entry = {
            "why": whys[name],
            "shape": results[0]["shape"],
            "working_set_bytes": int(re.search(r"working set (\d+) B",
                                               results[0]["shape"]).group(1)),
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "wall_s": [round(r["wall_s"], 2) for r in results],
            "end_to_end": metrics,
        }
        traced = run_once(name, SEEDS[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_wall_s"] = round(traced["wall_s"], 2)
        summary["workloads"][name] = entry
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
