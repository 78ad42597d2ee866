#!/usr/bin/env python3
"""Differential test of the front end, the verifier and the VM between two
source trees.

Runs `gvc.frontend.load_source` from two `src` directories on the same
inputs and reports every input on which they differ: a different error
(type or message) or a different program (node types, fields and source
locations) or boundary map (the `#! exit` rows of a woven text, whether a
tree keeps them on their methods or beside the program), and, for
an input both load, a different `verify_program` report JSON or woven
text, and for an input both verify, a different VM outcome
(`Outcome.as_dict()`, revert reason and detail, and the ledger after the
transaction, so a broken rollback or a wrong committed write shows) or
oracle judgment (`Oracle.judge`: verdict, site kind and line, payload and
final storage) on a case of its bound-2 `transaction_grid`, each case run
on the woven program under a gas limit of GAS_LIMIT, and a case that used
g > 0 gas run again under a limit of g - 1, so a GasExhausted that moved
by one statement shows, and judged on the source program within
ORACLE_STEPS statements.  The inputs are every `.gcl` file under
`corpus/` and `tests/fixtures/`, the woven text of each one that verifies
in both trees (so `#! check` and `#! exit` lines are covered), and seeded
mutations of all of them, plus the n-if programs for n = 1..10.  Each tree
weaves the base files itself and runs on its own woven texts and their
mutants, paired with the other's by name, so a change to the woven text
keeps those inputs compared.  The mutations rename, drop and
duplicate names, lines and arguments, so that many inputs end in a
resolution, inference or well-formedness error rather than a parse error:
a name edit never replaces or wraps a keyword.

    python3 scripts/frontend_diff.py OLD_SRC NEW_SRC [--mutants 75] [--seed 1]

Each tree runs in its own interpreter, the two side by side, and their
results are compared as they stream in, input by input and grid case by
grid case, so neither an input's grid (177147 cases for nif10) nor a
tree's results are held whole.  Prints one line per differing input: its
name, old outcome -> new outcome and, for an input both trees load, the
part that differs first (program, boundary, report, woven, vm or oracle, or
crash when verifying, weaving, running or judging raised in one tree) with
its first differing path, line or grid case; then the source and both
results of the first few, and a tally of the differences by old outcome ->
new outcome (part).  A case whose VM records differ in `exec_gas` and
`check_gas` alone is also counted apart, and an input whose every differing
VM record is such a case is tallied under the part "vm gas", not "vm".
Exits 1 if any input differs.
"""

import argparse
import dataclasses
import json
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# errors that end the front end after parsing succeeded
LATE_ERRORS = ("InferenceError", "ResolutionError", "WellFormednessError")
SHOWN = 5  # differences printed in full
SHOWN_CHARS = 300  # of each tree's result JSON, for each of them
GRID_BOUND = 2
GAS_LIMIT = 10_000  # a mutant's loop may not end
ORACLE_STEPS = 10_000  # statements per judgment: the oracle meters no gas
END = ["end"]  # the last line of a result that ran its grid, or had none


def canon(x):
    """A JSON-able description of a front-end result that is the same for
    equal programs in either tree.  Trees that annotated resolution in the
    syntax tree (a `Name.scope` field, global writes as `GAssign(slot, ...)`)
    are described as the plain tree they annotate, an exit row of its own
    type (`ExitRow`, or `BoundaryEntry("exit", ...)` naming its role) as the
    `Check` it is, located at its payload, and a method's `exits` field is
    left out: exit_rows describes the rows as one boundary map in every
    tree."""
    if type(x).__name__ == "SourceLoc":
        return str(x)
    if dataclasses.is_dataclass(x):
        name = type(x).__name__
        fields = [(f.name, getattr(x, f.name)) for f in dataclasses.fields(x)
                  if f.name not in ("scope", "exits")]
        if name == "GAssign":
            name, fields = "Assign", [("target" if k == "slot" else k, v) for k, v in fields]
        elif name in ("ExitRow", "BoundaryEntry"):
            name, fields = "Check", [("check_id", x.check_id), ("payload", x.payload),
                                     ("obligation", x.obligation), ("loc", x.payload.loc)]
        return [name] + [[k, canon(v)] for k, v in fields]
    if isinstance(x, (tuple, list)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return sorted([canon(k), canon(v)] for k, v in x.items())
    return x


def exit_rows(loaded):
    """The boundary map of a load_source result: (contract, method) -> the
    method's `#! exit` rows, read from the methods in a tree whose methods
    carry them, else the map a (program, map) pair holds beside the
    program."""
    program = loaded[0] if isinstance(loaded, tuple) else loaded
    methods = [(c, m) for c in program.contracts for m in c.methods]
    if methods and not hasattr(methods[0][1], "exits"):
        return loaded[1]
    return {(c.name, m.name): list(m.exits) for c, m in methods if m.exits}


def describe(texts):
    """Yields the JSON-able lines of the result on each text.  First a head:
    ["error", exception type, message] if load_source fails, else ["ok",
    program, boundary, checked], where checked is [report JSON, woven text],
    the woven text None if a method has a static error, or ["crash",
    exception type, message] if verifying or weaving raised.  Then, for a
    woven text, one [VM record, oracle record] per grid case (see
    run_grid).  Last END, or ["crash", exception type, message] if running
    or judging raised."""
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
        """Yields, for each case of the bound-2 grid, [VM record, oracle
        record]: [method, initial ledger, arguments, outcome dict, reason,
        detail, final ledger] of its run on the loaded woven program,
        followed, when that run used g > 0 gas, by [outcome dict, detail,
        final ledger] of its run under a gas limit of g - 1; and [method,
        initial ledger, arguments, judgment] of the oracle on the source
        program."""
        image = load_program(woven)
        oracle = StepOracle(*merge_adversaries(program))
        for c, m, init, t in transaction_grid(program, GRID_BOUND):
            ledger = Ledger(image.program, init)
            out = Vm(image, ledger).exec_transaction(t, gas_limit=GAS_LIMIT)
            case = [f"{c.name}.{m.name}", init, list(t.args)]
            record = case + [out.as_dict(), out.reason, out.detail, ledger.as_dict()]
            gas = out.exec_gas + out.check_gas
            if gas > 0:
                ledger = Ledger(image.program, init)
                cut = Vm(image, ledger).exec_transaction(t, gas_limit=gas - 1)
                record += [cut.as_dict(), cut.detail, ledger.as_dict()]
            yield [record, case + [judgment(oracle, init, t)]]

    for name, text in texts:
        try:
            loaded = load_source(text, name)
        except Exception as e:  # every outcome is data to compare
            yield ["error", type(e).__name__, str(e)]
            yield END
            continue
        program = loaded[0] if isinstance(loaded, tuple) else loaded
        try:
            report = verify_program(program)
            woven = None if report.has_static_error else weave(program, report)
            checked = [report.to_json(), woven and woven.to_text()]
        except Exception as e:
            checked, woven = ["crash", type(e).__name__, str(e)], None
        yield ["ok", canon(program), canon(exit_rows(loaded)), checked]
        try:
            if woven:
                yield from run_grid(program, woven)
            yield END
        except Exception as e:
            yield ["crash", type(e).__name__, str(e)]


class Result:
    """One tree's result on one input, read from its child's JSON lines:
    the head, then the grid case lines as cases() yields them, then the
    end.  Only the head, the case count and the first few cases (enough for
    prefix()) are kept."""

    def __init__(self, head, lines):
        self.head, self.lines = head, lines
        self.end, self.count, self.first, self.first_chars = None, 0, [], 0

    def cases(self):
        """The raw JSON line of each grid case not yet read."""
        for line in self.lines:
            if line.startswith('["'):  # END or a crash; a case starts '[['
                self.end = json.loads(line)
                return
            self.count += 1
            if self.first_chars < SHOWN_CHARS:
                self.first.append(json.loads(line))
                self.first_chars += len(json.dumps(self.first[-1][0]))
            yield line

    def finish(self):
        for _ in self.cases() if self.end is None else ():
            pass

    @property
    def checked(self):
        """The checked part of an input that loads: a crash, else [report
        JSON, woven text]."""
        self.finish()
        return self.head[3] if self.end == END else self.end

    def prefix(self):
        """The first SHOWN_CHARS characters of the JSON of the whole result:
        the head with its checked part followed by the VM records and the
        oracle records of every case."""
        if self.head[0] != "ok":
            return json.dumps(self.head)[:SHOWN_CHARS]
        checked, start = self.checked, json.dumps(self.head[:3] + [None])[:-len("null]")]
        if checked[0] == "crash" or checked[1] is None:
            return (start + json.dumps(checked + ([] if checked[0] == "crash" else [None, None]))
                    + "]")[:SHOWN_CHARS]
        close = "]" if len(self.first) == self.count else ""
        records = ["[" + ", ".join(json.dumps(c[i]) for c in self.first) + close for i in (0, 1)]
        return (start + "[" + ", ".join(json.dumps(x) for x in checked) + ", "
                + ", ".join(records) + "]]")[:SHOWN_CHARS]


def results(lines):
    """Yields the Result of each input from a child's JSON lines."""
    lines = iter(lines)
    for head in lines:
        r = Result(json.loads(head), lines)
        yield r
        r.finish()


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


GAS = ("exec_gas", "check_gas")


def gas_only(x, y):
    """Whether two differing VM records of one grid case (see run_grid)
    differ in gas alone: equal once `exec_gas` and `check_gas` leave their
    outcome dicts.  The run under a limit of g - 1 is compared only when
    both used the same gas g; otherwise its limit is itself a gas
    difference."""
    def gas_free(record, cut):
        kept = record[:7] + (record[7:] if cut else [])
        return [{k: v for k, v in f.items() if k not in GAS} if i in (3, 7) else f
                for i, f in enumerate(kept)]

    cut = sum(x[3][k] for k in GAS) == sum(y[3][k] for k in GAS)
    return gas_free(x, cut) == gas_free(y, cut)


def first_difference(a, b, grid):
    """(part, where) for two differing Results: for an input both trees
    load, the part that differs first and where in it, else (None, the
    errors).  `grid` holds, for "vm" and "oracle", the number of grid cases
    whose records differ, the first such case's old record and the number
    that differ in gas alone (see gas_only); "vm gas" is the part when
    every differing VM record differs in gas alone."""
    if a.head[0] != "ok" or b.head[0] != "ok":
        return None, " -> ".join(repr(d[2]) if d[0] == "error" else "loads" for d in (a.head, b.head))
    for part, x, y in (("program", a.head[1], b.head[1]), ("boundary", a.head[2], b.head[2])):
        if x != y:
            return part, first_path(x, y)
    if "crash" in (a.checked[0], b.checked[0]):
        return "crash", " -> ".join(repr(c[1:]) if c[0] == "crash" else "runs"
                                    for c in (a.checked, b.checked))
    for part, x, y in zip(("report", "woven"), a.checked, b.checked):
        if x != y:
            return part, first_line(x, y)
    for part, (n, first, gas) in grid.items():
        if n:
            method, init, args = first[:3]
            return (part + " gas" * (gas == n),
                    f"{n} case(s), first {method}{tuple(args)} on {json.dumps(init)}")
        if a.count != b.count:
            return part, f"{a.count} -> {b.count} case(s)"


def run_tree(src, texts):
    """Yields the JSON line of each result of describe(texts) as an
    interpreter that imports gvc from `src` writes it."""
    proc = subprocess.Popen([sys.executable, __file__, "--child", str(src)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    with proc:
        proc.stdin.write(json.dumps(texts))
        proc.stdin.close()
        yield from proc.stdout
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)


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


def woven(r):
    """The woven text of a Result, or None."""
    return r.checked[1] if r.head[0] == "ok" and r.checked[0] != "crash" else None


def with_mutants(own, mutants, seed):
    """The inputs `own`, each [name, text], then `mutants` mutants of each,
    drawn from a generator seeded with `seed` and the input's name, so an
    input's mutants depend on its own text alone."""
    out = list(own)
    for name, text in own:
        rng = random.Random(f"{seed}:{name}")
        out += [[f"{name}#{k}", mutate(text, rng)] for k in range(mutants)]
    return out


def inputs(old_src, new_src, mutants, seed):
    """The inputs of each tree, [name, text] in the same order and by the
    same names: the base files, the woven text of each base file that
    both trees weave, each tree's own, the mutants of each of those (see
    with_mutants), and the n-if programs.  An input's mutants in one tree
    match those in the other while its texts do."""
    files = sorted((ROOT / "corpus").glob("*.gcl")) + sorted((ROOT / "tests" / "fixtures").glob("*.gcl"))
    base = [[p.name, p.read_text(encoding="utf-8")] for p in files]
    weaves = [(name + ".woven", woven(a), woven(b)) for (name, _), a, b in
              zip(base, results(run_tree(old_src, base)), results(run_tree(new_src, base)))]
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import nif_source

    trees = []
    for i in (0, 1):
        own = base + [[name, texts[i]] for name, *texts in weaves if all(texts)]
        trees.append(with_mutants(own, mutants, seed)
                     + [[f"nif{n}", nif_source(n)] for n in range(1, 11)])
    return trees


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--mutants", type=int, default=75, help="mutants per base input")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))  # for the keywords mutate spares
    old_texts, new_texts = inputs(args.old_src, args.new_src, args.mutants, args.seed)
    # the two trees' results are compared as they arrive, one grid case at
    # a time, and only the tallies and the differences are kept; equal JSON
    # lines are equal cases, never decoded
    outcomes, tally, found, shown = Counter(), Counter(), [], []
    both = ran = cases = vm_diffs = gas_diffs = oracle_diffs = 0
    for (name, text), (_, new_text), a, b in zip(
            old_texts, new_texts, results(run_tree(args.old_src, old_texts)),
            results(run_tree(args.new_src, new_texts)), strict=True):
        grid = {"vm": [0, None, 0], "oracle": [0, None, 0]}
        for line_a, line_b in zip_longest(a.cases(), b.cases()):
            if line_a is None or line_b is None or line_a == line_b:
                continue
            for part, x, y in zip(grid, json.loads(line_a), json.loads(line_b)):
                if x != y:
                    diff = grid[part]
                    diff[0] += 1
                    diff[1] = diff[1] or x
                    diff[2] += part == "vm" and gas_only(x, y)
        outcomes[outcome(a.head)] += 1
        if a.head[0] == b.head[0] == "ok":
            both += 1
            if "crash" not in (a.checked[0], b.checked[0]) and a.count and b.count:
                ran += 1
                cases += a.count
                vm_diffs += grid["vm"][0]
                gas_diffs += grid["vm"][2]
                oracle_diffs += grid["oracle"][0]
        if a.head[0] == b.head[0] == "ok":
            same = a.head[1:3] == b.head[1:3] and a.checked == b.checked and (
                a.checked[0] == "crash"
                or (a.count == b.count and not grid["vm"][0] + grid["oracle"][0]))
        else:
            same = a.head == b.head
        if same:
            continue
        part, where = first_difference(a, b, grid)
        key = f"{outcome(a.head)} -> {outcome(b.head)}" + (f" ({part})" if part else "")
        tally[key] += 1
        found.append(f"{name}: {key}" + (f" at {where}" if where else ""))
        if len(shown) < SHOWN:
            if new_text != text:
                text += f"\n--- {name} in the new tree\n{new_text}"
            shown.append(f"--- {name}\n{text}\nold: {a.prefix()}\nnew: {b.prefix()}")
    for line in found + shown:
        print(line)
    late = sum(outcomes[k] for k in LATE_ERRORS)
    print(f"{len(old_texts)} input(s): {dict(sorted(outcomes.items()))}; "
          f"{late} end in a resolution, inference or well-formedness error")
    print(f"{both} input(s) load in both trees; their reports and woven texts are compared")
    print(f"{ran} input(s) verify in both trees; their VM outcomes and oracle "
          f"judgments on {cases} grid case(s) are compared (final ledgers included): "
          f"VM outcomes differ on {vm_diffs} ({gas_diffs} in gas alone), "
          f"oracle judgments on {oracle_diffs}")
    print(f"{len(found)} difference(s): {dict(sorted(tally.items()))}")
    return 1 if found else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.path.insert(0, str(Path(sys.argv[2]).resolve()))
        for d in describe(json.load(sys.stdin)):
            print(json.dumps(d))
    else:
        sys.exit(main())
