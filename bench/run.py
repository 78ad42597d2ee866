#!/usr/bin/env python3
"""gvc benchmark: run one workload with a seed and print its metrics.

    python3 bench/run.py --workload static --seed 1 --seconds 36 --trace 0

Workloads: static, run, corpus, and prover, which BENCHMARK.json leaves
out (see bench/NOTES.md).  With
--trace 0 the last stdout line is a JSON object with the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced run over a fixed
number of passes.  The gvc sources are imported from src/ next to this
directory; the benchmark exits with status 2 when they are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import speed
import stats
import tracing
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
STARTED = perf_counter()

# in later rounds an op is timed up to MAX_REPEATS times in a row, while
# that takes under REPEAT_S by its first time
REPEAT_S = 0.002
MAX_REPEATS = 8

GVC_MODULES = ("lang", "lexer", "parser", "printer", "frontend", "linear",
               "verifier", "weaver", "vm", "oracle", "erosion", "cli")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "residual_checks": "count",
    "decided_share": "ratio",
}


def load_gvc():
    """Import gvc afresh (dropping any earlier import) and return its
    modules by short name."""
    for name in [n for n in sys.modules if n == "gvc" or n.startswith("gvc.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"gvc.{m}") for m in GVC_MODULES})


def set_up(cls, seed, tracer=None):
    """Import, the workload's own set-up and its inputs, traced when a tracer
    is given; returns the workload."""
    wl = cls()
    gvc = load_gvc()
    if tracer:
        tracer.install(gvc)
        tracer.active = True
    wl.setup(gvc, seed)
    wl.ops = [wl.inputs(k) for k in range(wl.passes)]
    if tracer:
        tracer.active = False
    return wl


def timed_set_up(clock, cls, seed, tracer=None):
    """set_up, timed on `clock`; returns (workload, sample index)."""
    i, wl, err = clock.time(set_up, cls, seed, tracer)
    if err:
        raise err
    return wl, i


def set_up_aside(clock, cls, seed):
    """Time one more set-up, then give back the gvc modules the measured
    workload runs on: gvc imports some names at call time, from whatever
    sys.modules holds."""
    current = {n: m for n, m in sys.modules.items() if n == "gvc" or n.startswith("gvc.")}
    i = timed_set_up(clock, cls, seed)[1]
    sys.modules.update(current)
    return i


def _timed(clock, wl, item, tracer):
    if tracer:
        tracer.active = True
    i, out, err = clock.time(wl.op, item)
    if tracer:
        tracer.active = False
    return i, out, err


def _quiet_gc():
    """Collect, then move every surviving object out of the collector's
    reach, so that a round's collections scan only what the round allocates
    and start from the same state in every round."""
    gc.collect()
    gc.freeze()


def measure(wl, clock, seconds=0, rounds=None, tracer=None, between=None):
    """Closed loop over the fixed set of ops built at set-up.  Round one
    runs every op once, timed, and checks its output.  Later rounds rerun
    the same ops from the same starting state, short ops of a stateless
    workload several times in a row (or exactly `rounds` rounds), calling
    `between` after every round; no round starts that would end, judged by
    the last one, more than `seconds` after the process started, and at
    least `min_rounds` run.  Each op's time is the median over the later
    rounds of its time scaled to the reference speed (speed.Clock).  Outputs
    are checked outside the timed calls."""
    passes = wl.ops
    start = wl.mark()
    times = []
    attempted = checked = 0
    why = Counter()
    _quiet_gc()
    t_round = perf_counter()
    for k, items in enumerate(passes):
        recs = []
        for item in items:
            i, out, err = _timed(clock, wl, item, tracer)
            times.append([i])
            recs.append((item, out, err, None if err else wl.observe(item, out)))
        reasons = wl.check(k, recs)
        attempted += len(recs)
        checked += len(reasons)
        why.update(r for r in reasons if r)
        if k == 0:
            # counts, and memory, after a fixed amount of work
            counts = wl.counts(recs)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # short ops of a stateless workload are timed several times in a row
    repeats = [max(1, min(MAX_REPEATS, int(REPEAT_S / clock.samples[t[0]]))) if wl.repeatable
               else 1 for t in times]
    n_rounds = 1
    while True:
        round_s = perf_counter() - t_round
        if between:
            between(round_s)
        now = perf_counter()
        t_round = now
        if rounds is not None:
            if n_rounds >= rounds:
                break
        elif n_rounds >= wl.min_rounds and now - STARTED + round_s > seconds:
            break
        wl.rewind(start)
        _quiet_gc()
        j = 0
        for items in passes:
            for item in items:
                for _ in range(repeats[j]):
                    i, _, err = _timed(clock, wl, item, tracer)
                    times[j].append(i)
                    if err:  # outputs of later rounds are not checked, but must exist
                        why[f"op raised {type(err).__name__} in a later round"] += 1
                j += 1
        n_rounds += 1
    # round one, cold (the process still grows into its memory), only counts
    # when it is the only round
    return SimpleNamespace(samples=[statistics.median(clock.scaled(i) for i in t[1:] or t)
                                    for t in times],
                           attempted=attempted, failed=sum(why.values()), why=why,
                           checked=checked, counts=counts, rss_mb=rss_mb, rounds=n_rounds)


def end_to_end(cls, seed, seconds):
    """Set up, measure, and set up again after every round (twice, or once
    for every two seconds the round took), so that set-up is timed across
    the whole run, like the ops."""
    clock = speed.Clock()
    wl, i = timed_set_up(clock, cls, seed)
    setups = [i]
    r = measure(wl, clock, seconds=seconds,
                between=lambda round_s: setups.extend(
                    set_up_aside(clock, cls, seed) for _ in range(max(2, round(round_s / 2)))))
    n = len(r.samples)
    q = stats.tail_q(n)
    values = {
        "setup_s": statistics.median(clock.scaled(i) for i in setups),
        "ops_per_s": n / sum(r.samples),
        "op_ms_p50": stats.percentile(r.samples, 50) * 1e3,
        "op_ms_tail": stats.percentile(r.samples, q) * 1e3,
        "peak_rss_mb": r.rss_mb,
        **r.counts,
    }
    print(f"# {cls.name}: {n} op(s) x {r.rounds} round(s), {len(setups)} set-ups, "
          f"op_ms_tail is p{q:g} of {n} samples")
    print(f"# times are scaled to the reference speed; this run's median speed was "
          f"{clock.speed():.3f} of it ({len(clock.probe_s)} probes)")
    if hasattr(wl, "defects"):
        for line in wl.defects()[1]:
            print(line)
    return r, {k: (values[k], unit) for k, unit in END_TO_END.items()}


def traced(cls, seed):
    """The same fixed passes untraced, then again after a fresh, traced
    set-up with every entry point wrapped; per-layer metrics come from the
    second (its set-up and its ops)."""
    clock = speed.Clock()
    wl = set_up(cls, seed)
    plain = measure(wl, clock, rounds=1)
    tracer = tracing.Tracer()
    wl = set_up(cls, seed, tracer)
    r = measure(wl, clock, rounds=1, tracer=tracer)
    values = tracer.per_layer()
    untraced_rate = len(plain.samples) / sum(plain.samples)
    traced_rate = len(r.samples) / sum(r.samples)
    values["trace.untraced_ops_per_s"] = untraced_rate
    values["trace.ops_per_s"] = traced_rate
    values["trace.overhead_share"] = untraced_rate / traced_rate - 1
    why = plain.why + r.why
    if hasattr(wl, "curve_programs"):
        curve, broken = tracing.cost_curve(wl.gvc, wl.curve_programs(), wl.EROSION_BOUND)
        values.update(curve)
        why.update({"erosion with a static error": broken} if broken else {})
    if hasattr(wl, "defects"):
        found, lines = wl.defects()
        values.update(found)
        for line in lines:
            print(line)
    if values["linear.queries"]:
        print(f"# {cls.name}: linear.query_ms_tail is p{stats.tail_q(values['linear.queries']):g} "
              f"of {values['linear.queries']} queries")
    print(f"# {cls.name}: {len(r.samples)} traced op(s), {len(tracer.spans)} spans, "
          f"overhead {values['trace.overhead_share']:.1%}")
    result = SimpleNamespace(attempted=plain.attempted + r.attempted, why=why,
                             failed=sum(why.values()), checked=plain.checked + r.checked)
    return result, {k: (values[k], unit) for k, unit in tracing.PER_LAYER.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gvc" / "__init__.py").is_file():
        print(f"gvc sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cls = WORKLOADS[args.workload]
    if args.trace:
        r, metrics = traced(cls, args.seed)
    else:
        r, metrics = end_to_end(cls, args.seed, args.seconds)
    for reason, n in sorted(r.why.items()):
        print(f"# failed op x{n}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:>28} {value:16.6g} {unit}")
    print(json.dumps({
        # every output was compared with its reference, and none was wrong
        "correct": r.checked == r.attempted and r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
