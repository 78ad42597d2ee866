#!/usr/bin/env python3
"""Differential test of the front end, the verifier and the VM between two
source trees.

Runs `gvc.frontend.load_source` from two `src` directories on the same
inputs and reports every input on which they differ: a different error
(type or message) or a different program (node types, fields and source
locations) or boundary map (the `#! exit` rows of a woven text), and, for
an input both load, a different `verify_program` report JSON or woven
text, and for an input both verify, a different VM outcome
(`Outcome.as_dict()`, revert reason and detail, and the ledger after the
transaction, so a broken rollback or a wrong committed write shows) or
oracle judgment (`Oracle.judge`: verdict, site kind and line, payload and
final storage) on a case of its bound-2 `transaction_grid`, each case run
on the woven program under a gas limit of GAS_LIMIT and judged on the
source program within ORACLE_STEPS statements.  The inputs are every `.gcl` file under
`corpus/` and `tests/fixtures/`, the woven text of each one that verifies
(so `#! check` and `#! exit` lines are covered), and seeded mutations of
all of them, plus the n-if programs for n = 1..10.  The mutations rename, drop and
duplicate names, lines and arguments, so that many inputs end in a
resolution, inference or well-formedness error rather than a parse error:
a name edit never replaces or wraps a keyword.

    python3 scripts/frontend_diff.py OLD_SRC NEW_SRC [--mutants 75] [--seed 1]

Each tree runs in its own interpreter.  Prints one line per differing
input: its name, old outcome -> new outcome and, for an input both trees
load, the part that differs first (program, boundary, report, woven, vm or
oracle, or crash when verifying, weaving, running or judging raised in one
tree) with its first differing path, line or grid case; then the source
and both results of the first few, and a tally of the differences by old
outcome -> new outcome (part).  Exits 1 if any input differs.
"""

import argparse
import dataclasses
import json
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# errors that end the front end after parsing succeeded
LATE_ERRORS = ("InferenceError", "ResolutionError", "WellFormednessError")
SHOWN = 5  # differences printed in full
GRID_BOUND = 2
GAS_LIMIT = 10_000  # a mutant's loop may not end
ORACLE_STEPS = 10_000  # statements per judgment: the oracle meters no gas


def canon(x):
    """A JSON-able description of a front-end result that is the same for
    equal programs in either tree.  Trees that annotated resolution in the
    syntax tree (a `Name.scope` field, global writes as `GAssign(slot, ...)`)
    are described as the plain tree they annotate."""
    if type(x).__name__ == "SourceLoc":
        return str(x)
    if dataclasses.is_dataclass(x):
        name = type(x).__name__
        fields = [(f.name, getattr(x, f.name)) for f in dataclasses.fields(x) if f.name != "scope"]
        if name == "GAssign":
            name, fields = "Assign", [("target" if k == "slot" else k, v) for k, v in fields]
        return [name] + [[k, canon(v)] for k, v in fields]
    if isinstance(x, (tuple, list)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return sorted([canon(k), canon(v)] for k, v in x.items())
    return x


def describe(texts):
    """The result on each text: ["error", exception type, message] if
    load_source fails, else ["ok", program, boundary, checked], where
    checked is [report JSON, woven text, VM outcomes, oracle judgments (see
    run_grid)], the last three None if a method has a static error, or
    ["crash", exception type, message] if verifying, weaving, running or
    judging raised."""
    from gvc.frontend import load_source
    from gvc.oracle import Oracle
    from gvc.verifier import verify_program
    from gvc.vm import Ledger, Vm, load_program, merge_adversaries, transaction_grid
    from gvc.weaver import weave

    class OutOfSteps(Exception):
        pass

    class StepOracle(Oracle):
        """The oracle, stopped after ORACLE_STEPS statements."""

        def judge(self, storage, t):
            self.steps = 0
            return super().judge(storage, t)

        def stmt(self, fr, s, nest):
            self.steps += 1
            if self.steps > ORACLE_STEPS:
                raise OutOfSteps
            return super().stmt(fr, s, nest)

    def judgment(oracle, init, t):
        """[verdict, [site kind, site line] or None, payload, final
        storage], or ["out of steps"]."""
        try:
            j = oracle.judge(init, t)
        except OutOfSteps:
            return ["out of steps"]
        site = j.site and [j.site.kind, j.site.line]
        return [j.verdict, site, j.payload, j.storage]

    def run_grid(program, woven):
        """For each case of the bound-2 grid: [method, initial ledger,
        arguments, outcome dict, reason, detail, final ledger] of its run on
        the loaded woven program, and [method, initial ledger, arguments,
        judgment] of the oracle on the source program."""
        image = load_program(woven)
        oracle = StepOracle(*merge_adversaries(program))
        vm_cases, oracle_cases = [], []
        for c, m, init, t in transaction_grid(program, GRID_BOUND):
            ledger = Ledger(image.program, init)
            out = Vm(image, ledger).exec_transaction(t, gas_limit=GAS_LIMIT)
            case = [f"{c.name}.{m.name}", init, list(t.args)]
            vm_cases.append(case + [out.as_dict(), out.reason, out.detail, ledger.as_dict()])
            oracle_cases.append(case + [judgment(oracle, init, t)])
        return vm_cases, oracle_cases

    out = []
    for name, text in texts:
        try:
            program, boundary = load_source(text, name)
        except Exception as e:  # every outcome is data to compare
            out.append(["error", type(e).__name__, str(e)])
            continue
        try:
            report = verify_program(program)
            woven = None if report.has_static_error else weave(program, report)
            cases = run_grid(program, woven) if woven else (None, None)
            checked = [report.to_json(), woven and woven.to_text(), *cases]
        except Exception as e:
            checked = ["crash", type(e).__name__, str(e)]
        out.append(["ok", canon(program), canon(boundary), checked])
    return out


def outcome(d):
    return "ok" if d[0] == "ok" else d[1]


def first_path(a, b, path=""):
    """The path to the first place where two canon() values differ: a
    field name after a node's type name, else a list index."""
    if not (isinstance(a, list) and isinstance(b, list)) or len(a) != len(b):
        return path or "."
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            if i and isinstance(a[0], str) and isinstance(x, list) and len(x) == 2 \
                    and isinstance(x[0], str) and isinstance(y, list) and x[0] == y[0]:
                return first_path(x[1], y[1], f"{path}.{x[0]}")
            return first_path(x, y, f"{path}[{i}]")
    return path or "."


def first_line(a, b):
    """The first line where two texts (either may be None) differ."""
    la, lb = (a or "").splitlines(), (b or "").splitlines()
    for n, (x, y) in enumerate(zip(la, lb), 1):
        if x != y:
            return f"line {n}: {x.strip()!r} -> {y.strip()!r}"
    return f"line {min(len(la), len(lb)) + 1}: {len(la)} -> {len(lb)} line(s)"


def first_difference(a, b):
    """(part, where) for two differing describe() results: for an input both
    trees load, the part that differs first and where in it, else (None,
    the errors)."""
    if a[0] != "ok" or b[0] != "ok":
        return None, " -> ".join(repr(d[2]) if d[0] == "error" else "loads" for d in (a, b))
    for part, x, y in (("program", a[1], b[1]), ("boundary", a[2], b[2])):
        if x != y:
            return part, first_path(x, y)
    if "crash" in (a[3][0], b[3][0]):
        return "crash", " -> ".join(repr(c[1:]) if c[0] == "crash" else "runs" for c in (a[3], b[3]))
    (ra, wa, va, oa), (rb, wb, vb, ob) = a[3], b[3]
    for part, x, y in (("report", ra, rb), ("woven", wa, wb)):
        if x != y:
            return part, first_line(x, y)
    for part, x, y in (("vm", va, vb), ("oracle", oa, ob)):
        if x == y:
            continue
        cases = [i for i, (p, q) in enumerate(zip(x or [], y or [])) if p != q]
        if not cases:
            return part, f"{len(x or [])} -> {len(y or [])} case(s)"
        method, init, args = x[cases[0]][:3]
        return part, f"{len(cases)} case(s), first {method}{tuple(args)} on {json.dumps(init)}"


def run_tree(src, texts):
    """describe(texts) in an interpreter that imports gvc from `src`."""
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(src)],
        input=json.dumps(texts), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def mutate(text, rng):
    """`text` with one or two random edits to its names (identifiers
    outside `gvc.lexer.KEYWORDS`), lines or argument lists."""
    from gvc.lexer import KEYWORDS

    for _ in range(rng.randint(1, 2)):
        lines = text.split("\n")
        idents = [m for m in IDENT.finditer(text) if m.group() not in KEYWORDS]
        names = sorted({m.group() for m in idents})
        op = rng.choice(("rename", "rename", "rename", "drop", "dup", "swap", "arg", "old"))
        if op == "rename" and idents:
            m = rng.choice(idents)
            new = rng.choice(names + ["Zq", "result", "x", "n"])
            text = text[:m.start()] + new + text[m.end():]
        elif op == "drop" and len(lines) > 1:
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif op == "dup" and lines:
            i = rng.randrange(len(lines))
            lines.insert(i, lines[i])
            text = "\n".join(lines)
        elif op == "swap" and len(lines) > 2:
            i = rng.randrange(len(lines) - 1)
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
            text = "\n".join(lines)
        elif op == "arg":
            spots = [m.end() for m in re.finditer(r"\(", text)]
            if spots:
                i = rng.choice(spots)
                if rng.random() < 0.5:
                    text = text[:i] + rng.choice(names + ["1"]) + ", " + text[i:]
                else:
                    j = text.find(",", i)
                    k = text.find(")", i)
                    if 0 <= j < k:
                        text = text[:i] + text[j + 1:].lstrip(" ")
        elif op == "old" and idents:
            m = rng.choice(idents)
            new = f"old({rng.choice(names + ['Zq'])})"
            text = text[:m.start()] + new + text[m.end():]
    return text


def inputs(old_src, mutants, seed):
    files = sorted((ROOT / "corpus").glob("*.gcl")) + sorted((ROOT / "tests" / "fixtures").glob("*.gcl"))
    base = [[p.name, p.read_text(encoding="utf-8")] for p in files]
    base += [[name + ".woven", d[3][1]]
             for (name, _), d in zip(base, run_tree(old_src, base))
             if d[0] == "ok" and d[3][0] != "crash" and d[3][1]]
    rng = random.Random(seed)
    out = list(base)
    for name, text in base:
        out += [[f"{name}#{k}", mutate(text, rng)] for k in range(mutants)]
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import nif_source

    return out + [[f"nif{n}", nif_source(n)] for n in range(1, 11)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--mutants", type=int, default=75, help="mutants per base input")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))  # for the keywords mutate spares
    texts = inputs(args.old_src, args.mutants, args.seed)
    old = run_tree(args.old_src, texts)
    new = run_tree(args.new_src, texts)
    outcomes = Counter(outcome(d) for d in old)
    diffs = [(t, a, b, first_difference(a, b)) for t, a, b in zip(texts, old, new) if a != b]
    keys = [f"{outcome(a)} -> {outcome(b)}" + (f" ({part})" if part else "")
            for _, a, b, (part, _) in diffs]
    for ((name, _), _, _, (_, where)), key in zip(diffs, keys):
        print(f"{name}: {key}" + (f" at {where}" if where else ""))
    for (name, text), a, b, _ in diffs[:SHOWN]:
        print(f"--- {name}\n{text}\nold: {json.dumps(a)[:300]}\nnew: {json.dumps(b)[:300]}")
    late = sum(outcomes[k] for k in LATE_ERRORS)
    both = sum(a[0] == b[0] == "ok" for a, b in zip(old, new))
    ran = [(a, b) for a, b in zip(old, new)
           if a[0] == b[0] == "ok" and "crash" not in (a[3][0], b[3][0]) and a[3][2] and b[3][2]]
    print(f"{len(texts)} input(s): {dict(sorted(outcomes.items()))}; "
          f"{late} end in a resolution, inference or well-formedness error")
    print(f"{both} input(s) load in both trees; their reports and woven texts are compared")
    print(f"{len(ran)} input(s) verify in both trees; their VM outcomes and oracle "
          f"judgments on {sum(len(a[3][2]) for a, _ in ran)} grid case(s) are compared "
          f"(final ledgers included): "
          f"VM outcomes differ on "
          f"{sum(x != y for a, b in ran for x, y in zip(a[3][2], b[3][2]))}, "
          f"oracle judgments on "
          f"{sum(x != y for a, b in ran for x, y in zip(a[3][3], b[3][3]))}")
    tally = Counter(keys)
    print(f"{len(diffs)} difference(s): {dict(sorted(tally.items()))}")
    return 1 if diffs else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.path.insert(0, str(Path(sys.argv[2]).resolve()))
        json.dump(describe(json.load(sys.stdin)), sys.stdout)
    else:
        sys.exit(main())
