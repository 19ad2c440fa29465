"""Run one tractodist benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload paper200 --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: the workload is set up once
(``setup_s``), then timed passes run back to back until ``--seconds`` have
elapsed, and at least one full cycle of the workload's inputs. Outputs are
checked after the timed region. With ``--trace 1`` the setup and one more
cycle run with spans on; the per-layer metrics come from them and the
spans are written as JSON lines under ``.perfbench_work/traces/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Lines before it give each end-to-end metric's median, quartiles and sample
count, and the workload's shape.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_library() -> None:
    """Import tractodist from this checkout's src/, and from nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import tractodist

    if not Path(tractodist.__file__).resolve().is_relative_to(src):
        raise ImportError(f"tractodist imported from {tractodist.__file__}, not {src}")


def spread(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run(args, spec: dict, workdir: Path) -> int:
    import numpy as np

    import workloads as wl
    from spans import Tracer

    workload = wl.WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer(args.workload, enabled=bool(args.trace))
    off = Tracer(args.workload, enabled=False)

    setup_record = wl.PassRecord()
    gc.collect()
    t0 = time.perf_counter()
    with tracer.span("setup"):
        state = workload.setup(tracer, setup_record)
    setup_s = time.perf_counter() - t0

    # A run measures at least one full cycle of the workload's inputs and
    # at least --seconds. Only the latest pass of each cycle position keeps
    # its outputs for the checks; the outputs a pass replaces are freed
    # before it starts, so peak_rss_mb does not grow with the pass count.
    cycle = workload.CYCLE
    passes: list = []
    checked: dict = {}
    failed = 0
    start = time.perf_counter()
    while len(passes) < cycle or time.perf_counter() - start < args.seconds:
        record = wl.PassRecord(key=len(passes) % cycle)
        if record.key in checked:
            checked[record.key].outputs = []
        gc.collect()
        t0 = time.perf_counter()
        try:
            workload.run_pass(state, off, record)
        except Exception:
            traceback.print_exc()
            failed += 1
            break
        record.run_s = time.perf_counter() - t0
        checked[record.key] = record
        passes.append(record)
    if len(passes) < cycle:
        return 1
    # The process's peak so far: the setup and the timed passes, before the
    # checks and the traced cycle allocate anything of their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced: list = []
    if args.trace:
        for key in range(cycle):
            record = wl.PassRecord(key=key)
            checked[key].outputs = []
            gc.collect()
            with tracer.span("pass") as span:
                workload.run_pass(state, tracer, record)
            record.run_s = span["end"] - span["start"]
            checked[key] = record
            traced.append(record)

    checked_records = [checked[key] for key in range(cycle)]
    check = wl.CheckResult()
    workload.check(state, checked_records, check)
    wl.check_outputs(checked_records, np.random.default_rng([args.seed, 0xC4EC]),
                     bool(args.trace), check)
    for record in passes + traced:
        check.expect(record.picks == passes[record.key].picks,
                     f"pass picks differ from the first pass on cycle position {record.key}")
    for message in check.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = sum(len(p.job_ms) for p in passes + traced) + check.attempted + failed
    failed += check.failed
    cells = [cell for record in checked_records for cell in record.cells]

    job_ms = [ms for p in passes for ms in p.job_ms]
    samples = {
        "setup_s": [setup_s],
        "run_s": [p.run_s for p in passes],
        "prepare_s": [p.prepare_s for p in passes],
        "queries_per_s": [qps for p in passes for qps in p.job_qps],
        "segment_job_ms_p50": job_ms,
    }
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    values["dsc_mean"] = statistics.fmean(cells)
    values["dsc_min"] = min(cells)
    values["peak_rss_mb"] = peak_rss_mb

    print(f"workload {args.workload} seed {args.seed}: {workload.describe(state)}")
    for name, xs in samples.items():
        q1, med, q3 = spread(xs)
        print(f"  {name:<20} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(xs)}")
    print("  passes run_s " + " ".join(f"{p.run_s:.3f}" for p in passes))
    print(f"  dsc_mean {values['dsc_mean']:.6f}  dsc_min {values['dsc_min']:.6f}"
          f"  over {len(cells)} cells;  peak_rss_mb {values['peak_rss_mb']:.1f}")
    print(f"  fail_ratio {failed}/{attempted}")

    if args.trace:
        values = layer_metrics(tracer, [setup_record, *traced], check,
                               cycle * values["run_s"])
        trace_dir = ROOT / ".perfbench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path)
        print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]

    names = {m["name"] for m in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise KeyError(f"measured metrics missing from BENCHMARK.json: {unknown}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(tracer, records, check, untraced_cycle_s: float) -> dict:
    """Per-layer self time, op counts and search stats of the traced run.

    records are the traced setup and the traced passes (one cycle). Layers
    a workload never calls are absent here and reported as 0.
    """
    values = {f"{name}.s": secs for name, secs in tracer.layer_self_seconds().items()}
    for record in records:
        for name, v in record.counts.items():
            if name.endswith(".depth"):
                values[name] = max(values.get(name, 0), v)
            else:
                values[name] = values.get(name, 0) + v
    for kind, visited in check.visited.items():
        mean = statistics.fmean(visited)
        values[f"ann.visited_per_query.{kind}"] = mean
        values[f"ann.visited_fraction.{kind}"] = mean / check.nodes[kind]
    traced_s = sum(record.run_s for record in records[1:])
    values["trace.run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_cycle_s
    values["trace.uncovered_s"] = tracer.uncovered_seconds()
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    # Single-threaded numerics, set before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        load_library()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot load the benchmark or the library: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
