#!/usr/bin/env python3
"""Determinism self-check of the gvc benchmark.

    python3 bench/determinism.py [--seed 7] [--workload static ...]

Runs each workload twice untraced and twice traced, each time in a fresh
process with the same seed, and requires every count (any metric that is not
a time or a rate) to repeat exactly; traced runs also repeat their attempted
and failed op counts.  It also requires each run to print exactly the metric
names BENCHMARK.json declares.  Exits 1 and lists every mismatch otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import is_count
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload, seed, trace, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in declared["end_to_end"]},
             1: {m["name"] for m in declared["per_layer"]}}

    problems = []
    for workload in args.workload or sorted(WORKLOADS):
        for trace in (0, 1):
            a, b = (run(workload, args.seed, trace, args.seconds) for _ in range(2))
            tag = f"{workload} --trace {trace}"
            for r in (a, b):
                if set(r["metrics"]) != names[trace]:
                    problems.append(f"{tag}: metric names differ from BENCHMARK.json: "
                                    f"{sorted(set(r['metrics']) ^ names[trace])}")
            keys = [k for k, m in a["metrics"].items() if is_count(k, m["unit"])]
            for k in keys:
                va, vb = a["metrics"][k]["value"], b["metrics"].get(k, {}).get("value")
                if va != vb:
                    problems.append(f"{tag}: {k} = {va} then {vb}")
            if trace:
                for k in ("attempted", "failed"):
                    if a[k] != b[k]:
                        problems.append(f"{tag}: {k} = {a[k]} then {b[k]}")
            print(f"{tag}: compared {len(keys)} counts; failed ops {a['failed']} and {b['failed']} "
                  f"of {a['attempted']} and {b['attempted']}", flush=True)
    for p in problems:
        print("MISMATCH", p)
    print("determinism:", "ok" if not problems else f"{len(problems)} mismatch(es)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
