"""Compare the end-to-end medians of two BENCH_*.json points.

From the repository root:

    python3 perfbench/compare.py perfbench/BENCH_seed.json perfbench/BENCH_<name>.json

For every workload and end-to-end metric the two files share, it prints
both medians, the change |median_new / median_old - 1| and the metric's
bound from BENCHMARK.json. A metric that got worse by more than its bound
is marked WORSE, and the exit code is then 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(a).read_text())["workloads"] for a in argv)
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    worse = 0
    for workload in (w for w in old if w in new):
        for name, m in spec.items():
            a = old[workload]["end_to_end"].get(name)
            b = new[workload]["end_to_end"].get(name)
            if a is None or b is None:
                continue
            ratio = b["median"] / a["median"]
            got_worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            flag = "  WORSE" if got_worse > m["bound"] else ""
            worse += bool(flag)
            print(f"{workload:<9} {name:<20} {a['median']:<12.6g} -> {b['median']:<12.6g} "
                  f"change {abs(ratio - 1):.4f} (bound {m['bound']}){flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
