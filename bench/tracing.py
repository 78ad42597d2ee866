"""Per-layer tracing for the gvc benchmark.

The tracer wraps gvc's public entry points from outside: each wrapper records
a span (name, start, end, parent) and the counts its arguments or result
carry, and keeps both in memory until the run ends.  A module that imported
an entry point by name holds its own reference, so every gvc module's binding
of the original function is replaced.  Untraced runs install nothing.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from stats import percentile, tail_q

# (module, attribute or Class.method, layer)
ENTRY_POINTS = [
    ("lexer", "lex", "lexer"),
    ("parser", "parse_program", "parser"),
    ("frontend", "infer_types", "frontend"),
    ("frontend", "resolve", "frontend"),
    ("verifier", "verify_program", "verifier"),
    ("linear", "entails_constraints", "linear"),
    ("linear", "check_sat", "linear"),
    ("weaver", "weave", "weaver"),
    ("printer", "pretty_print", "printer"),
    ("vm", "load_program", "vm"),
    ("vm", "Vm.exec_transaction", "vm"),
    ("vm", "Ledger.snapshot", "vm"),
    ("vm", "Ledger.restore", "vm"),
    ("oracle", "Oracle.judge", "oracle"),
    ("oracle", "enumerate_equivalence", "oracle"),
    ("erosion", "erode_program", "erosion"),
    ("erosion", "check_static_monotonic", "erosion"),
    ("erosion", "check_dynamic_monotonic", "erosion"),
    ("cli", "main", "cli"),
]

LAYERS = ("lexer", "parser", "frontend", "verifier", "linear", "weaver",
          "printer", "vm", "oracle", "erosion", "cli")
REVERT_REASONS = ("CheckFailure", "OwnershipFailure", "ArithmeticPanic",
                  "GasExhausted", "PredicateDepthExceeded")
CURVE_DEPTHS = ("d0", "d1", "d2", "d3")

# every metric a traced run prints, with its unit
PER_LAYER = {f"{layer}.busy_ms": "ms" for layer in LAYERS}
PER_LAYER.update({
    "lexer.tokens": "count",
    "printer.bytes": "bytes",
    "verifier.methods": "count",
    "verifier.queries": "count",
    "verifier.residuals": "count",
    "linear.queries": "count",
    "linear.check_sat_calls": "count",
    "linear.query_ms_p50": "ms",
    "linear.query_ms_tail": "ms",
    "linear.query_ms_max": "ms",
    "linear.proved": "count",
    "linear.disproved": "count",
    "linear.unknown": "count",
    "linear.decided_share": "ratio",
    "weaver.woven_checks": "count",
    "weaver.boundary_entries": "count",
    "vm.load_ms": "ms",
    "vm.snapshot_ms": "ms",
    "vm.restore_ms": "ms",
    "vm.txs": "count",
    "vm.committed": "count",
    **{f"vm.reverted.{r}": "count" for r in REVERT_REASONS},
    "vm.exec_gas": "gas",
    "vm.check_gas": "gas",
    "vm.check_gas_share": "ratio",
    "vm.exec_gas_per_s": "gas/s",
    "oracle.judgments": "count",
    "erosion.erosions": "count",
    "erosion.static_ms": "ms",
    "erosion.dynamic_ms": "ms",
    "erosion.grid_points": "count",
    **{f"curve.{m}.{d}": u for m, u in (("variants", "count"), ("residuals", "count"),
                                         ("woven_checks", "count"),
                                         ("check_gas_share", "ratio"))
       for d in CURVE_DEPTHS},
    "defects.stale_verdicts": "count",
    "defects.unloadable_woven": "count",
    "trace.spans": "count",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_share": "ratio",
})

# metrics that must repeat exactly across runs with one seed: counts and the
# ratios of counts (the tracing overhead is a ratio of times)
COUNT_UNITS = {"count", "bytes", "gas", "ratio"}


def is_count(name, unit):
    return unit in COUNT_UNITS and name != "trace.overhead_share"


def _grid_points(program, bound):
    n_globals = sum(len(c.globals) for c in program.contracts)
    return sum((bound + 1) ** (n_globals + len(m.params))
               for c in program.contracts if not c.extern for m in c.methods)


def _count_verify(counts, args, kwargs, report):
    counts["verifier.methods"] += len(report.methods)
    counts["verifier.residuals"] += sum(len(m.residuals) for m in report.methods)
    counts["verifier.queries"] += report.prover.queries


def _count_weave(counts, args, kwargs, ip):
    residuals = list(args[1].all_residuals())
    counts["weaver.woven_checks"] += sum(1 for r in residuals if r.insertion.kind == "before")
    counts["weaver.boundary_entries"] += sum(len(v) for v in ip.boundary.values())


def _count_tx(counts, args, kwargs, out):
    counts["vm.txs"] += 1
    counts["vm.exec_gas"] += out.exec_gas
    counts["vm.check_gas"] += out.check_gas
    counts["vm.committed" if out.committed else f"vm.reverted.{out.reason}"] += 1


def _count_dynamic(counts, args, kwargs, bad):
    counts["erosion.erosions"] += 1
    bound = args[2] if len(args) > 2 else kwargs.get("bound", 3)
    counts["erosion.grid_points"] += _grid_points(args[0], bound)


COUNTERS = {
    "lex": lambda c, a, k, r: c.update({"lexer.tokens": len(r)}),
    "pretty_print": lambda c, a, k, r: c.update({"printer.bytes": len(r)}),
    "verify_program": _count_verify,
    "entails_constraints": lambda c, a, k, r: c.update({f"linear.{r.value}": 1}),
    "weave": _count_weave,
    "Vm.exec_transaction": _count_tx,
    "Oracle.judge": lambda c, a, k, r: c.update({"oracle.judgments": 1}),
    "check_dynamic_monotonic": _count_dynamic,
}


_END = object()


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = []
        self.counts = Counter()
        self.active = False

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), None, self.stack[-1] if self.stack else -1))
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, perf_counter(), parent)

    def wrap(self, name, fn):
        tracer, count = self, COUNTERS.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.active:
                        item = next(it, _END)
                    else:
                        idx = tracer._open(name)
                        try:
                            item = next(it, _END)
                        finally:
                            tracer._close(idx)
                    if item is _END:
                        return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count:
                count(tracer.counts, args, kwargs, result)
            return result
        return wrapper

    def install(self, gvc):
        """Wrap every entry point and rebind each gvc module's name for it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gvc" or n.startswith("gvc.")]
        for mod_name, attr, _ in ENTRY_POINTS:
            owner = getattr(gvc, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(attr, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(attr, original)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is original:
                        setattr(m, k, wrapped)

    def per_layer(self):
        """Self time per layer and the counts, as {metric: value}."""
        layer_of = {attr: layer for _, attr, layer in ENTRY_POINTS}
        durations = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += durations[i]
        busy = defaultdict(float)
        inclusive = defaultdict(float)
        queries = []
        for i, (name, _, _, _) in enumerate(self.spans):
            busy[layer_of[name]] += durations[i] - child[i]
            inclusive[name] += durations[i]
            if name == "entails_constraints":
                queries.append(durations[i])
        names = Counter(name for name, _, _, _ in self.spans)

        out = {k: 0 for k in PER_LAYER}
        out.update({f"{layer}.busy_ms": busy[layer] * 1e3 for layer in LAYERS})
        out.update({k: v for k, v in self.counts.items() if k in out})
        n_q = len(queries)
        out["linear.queries"] = n_q
        out["linear.check_sat_calls"] = names["check_sat"]
        if n_q:
            out["linear.query_ms_p50"] = percentile(queries, 50) * 1e3
            out["linear.query_ms_tail"] = percentile(queries, tail_q(n_q)) * 1e3
            out["linear.query_ms_max"] = max(queries) * 1e3
            out["linear.decided_share"] = (out["linear.proved"] + out["linear.disproved"]) / n_q
        out["vm.load_ms"] = inclusive["load_program"] * 1e3
        out["vm.snapshot_ms"] = inclusive["Ledger.snapshot"] * 1e3
        out["vm.restore_ms"] = inclusive["Ledger.restore"] * 1e3
        gas = out["vm.exec_gas"] + out["vm.check_gas"]
        if gas:
            out["vm.check_gas_share"] = out["vm.check_gas"] / gas
        if inclusive["Vm.exec_transaction"]:
            out["vm.exec_gas_per_s"] = out["vm.exec_gas"] / inclusive["Vm.exec_transaction"]
        out["erosion.static_ms"] = inclusive["check_static_monotonic"] * 1e3
        out["erosion.dynamic_ms"] = inclusive["check_dynamic_monotonic"] * 1e3
        out["trace.spans"] = len(self.spans)
        return out


# ---------------------------------------------------------------------------
# Cost curve: the run-time price of each erosion step


def _atoms(gvc, program):
    lang = gvc.lang

    def body_atoms(body):
        n = 0
        for s in body:
            if isinstance(s, lang.While):
                n += len(s.invariant.atoms) + body_atoms(s.body)
            elif isinstance(s, lang.If):
                n += body_atoms(s.then) + body_atoms(s.orelse)
            elif isinstance(s, lang.AssertStmt):
                n += len(s.formula.atoms)
        return n

    return sum(len(m.spec.requires.atoms) + len(m.spec.ensures.atoms) + body_atoms(m.body)
               for c in program.contracts if not c.extern for m in c.methods)


def cost_curve(gvc, programs, bound):
    """For each corpus program and each of its erosions: residuals, woven
    checks, and exec/check gas of the woven VM over the program's grid
    [0, bound]^n, grouped by the number of atoms the erosion dropped (d3
    holds three or more; d0 holds the programs themselves and erosions that
    only add `?`).  Returns (metrics, failures)."""
    acc = {d: Counter() for d in CURVE_DEPTHS}
    failures = 0
    for program, adversaries in programs:
        full = _atoms(gvc, program)
        variants = [(0, program)] + [(full - _atoms(gvc, e.program), e.program)
                                     for e in gvc.erosion.erode_program(program)]
        gslots = [(c.name, g) for c in program.contracts for g in c.globals]
        for dropped, variant in variants:
            report = gvc.verifier.verify_program(variant)
            if report.has_static_error:  # the static gradual guarantee broke
                failures += 1
                continue
            ip = gvc.weaver.weave(variant, report)
            image = gvc.vm.load_program(ip, adversaries)
            a = acc[CURVE_DEPTHS[min(dropped, 3)]]
            a["variants"] += 1
            residuals = list(report.all_residuals())
            a["residuals"] += len(residuals)
            a["woven_checks"] += sum(1 for r in residuals if r.insertion.kind == "before")
            for c in variant.contracts:
                if c.extern:
                    continue
                for m in c.methods:
                    for point in itertools.product(range(bound + 1),
                                                   repeat=len(gslots) + len(m.params)):
                        init = {}
                        for (cn, g), v in zip(gslots, point):
                            init.setdefault(cn, {})[g] = v
                        tx = gvc.vm.Transaction(c.name, m.name, tuple(point[len(gslots):]))
                        vm = gvc.vm.Vm(image, gvc.vm.Ledger(image.program, init))
                        out = vm.exec_transaction(tx)
                        a["exec_gas"] += out.exec_gas
                        a["check_gas"] += out.check_gas
    metrics = {}
    for d, a in acc.items():
        n = a["variants"]
        metrics[f"curve.variants.{d}"] = n
        metrics[f"curve.residuals.{d}"] = a["residuals"] / n if n else 0
        metrics[f"curve.woven_checks.{d}"] = a["woven_checks"] / n if n else 0
        gas = a["exec_gas"] + a["check_gas"]
        metrics[f"curve.check_gas_share.{d}"] = a["check_gas"] / gas if gas else 0
    return metrics, failures
