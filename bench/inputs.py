"""Seeded inputs for the gvc benchmark, and the references they are checked
against.  Nothing here imports gvc: sources are text, prover systems are
plain tuples, and the truth table comes from this file's own evaluator."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"
CORPUS_NAMES = sorted(p.name for p in CORPUS.iterdir() if p.is_dir())
CACHE = HERE.parent / ".bench_cache"  # reference tables built once per checkout

UINT_MAX = 2**64 - 1


def rng_for(seed, *parts):
    """An independent stream per (seed, workload, pass); string seeds hash
    the same in every process."""
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def corpus_files(name):
    """(program text, adversary text or None) of a frozen corpus program."""
    d = CORPUS / name
    adv = d / f"{name}.adversary.gcl"
    return ((d / f"{name}.gcl").read_text(encoding="utf-8"),
            adv.read_text(encoding="utf-8") if adv.exists() else None)


def source_shape(text):
    """[(contract, extern, globals, [(method, n_params)])] read from GCL
    text with this file's own line patterns."""
    out = []
    for line in text.splitlines():
        s = line.strip()
        m = re.match(r"(extern\s+)?contract\s+(\w+)\s*:", s)
        if m:
            out.append((m.group(2), bool(m.group(1)), [], []))
            continue
        m = re.match(r"#@\s*global\s+(\w+)\s*;", s)
        if m:
            out[-1][2].append(m.group(1))
            continue
        m = re.match(r"method\s+(\w+)\s*\(([^)]*)\)", s)
        if m:
            params = [p for p in m.group(2).split(",") if p.strip()]
            out[-1][3].append((m.group(1), len(params)))
    return out


def expected_cases(text, bound):
    """Grid size of `gvc corpus` equivalence: every storage slot and argument
    over [0, bound], per verified method."""
    shape = source_shape(text)
    n_globals = sum(len(g) for _, _, g, _ in shape)
    return sum((bound + 1) ** (n_globals + n)
               for _, extern, _, methods in shape if not extern
               for _, n in methods)


# ---------------------------------------------------------------------------
# static: template families a and b, timed; family c, for the defect probe

# GCL keywords plus `acc`; every other identifier is renamed per draw
RESERVED = {
    "contract", "extern", "method", "opaque", "if", "else", "while",
    "return", "call", "and", "or", "not", "uint64", "global", "predicate",
    "requires", "ensures", "invariant", "assert", "check", "entry", "exit",
    "old", "result", "true", "acc",
}

# corpus literals redrawn per draw: every occurrence of the literal in the
# program takes one value from [lo, hi]; the verdict does not depend on it
REDRAW = {
    "assertions": ("2", 1, 4),
    "bounded": ("100", 50, 200),
    "branching": ("10", 5, 20),
    "fee": ("4", 2, 8),
    "pred": ("2", 2, 3),
}

_IDENT = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")


def rename(texts, rng):
    """Rename every identifier consistently across `texts` (a program and its
    adversary, either may be None)."""
    tag = rng.randrange(10**6)
    sub = lambda m: m.group(0) if m.group(0) in RESERVED else f"{m.group(0)}_{tag:06d}"
    return [_IDENT.sub(sub, t) if t else t for t in texts]


def family_a(rng, name):
    text, adv = corpus_files(name)
    if name in REDRAW:
        lit, lo, hi = REDRAW[name]
        text = re.sub(rf"\b{lit}\b", str(rng.randint(lo, hi)), text)
    text, adv = rename([text, adv], rng)
    adversaries = {}
    if adv:
        adversaries = {c: adv for c, extern, _, _ in source_shape(text) if extern}
    return {"family": "a", "name": name, "source": text,
            "adversaries": adversaries, "static_error": False}


def family_b(rng, n):
    """One method, n independent if/else arms each updating a global under an
    imprecise spec: 2^n paths and 2^n - 1 prover queries.  The thresholds and
    updates are fixed by position, so the prover's work depends on n alone
    (drawn thresholds made the time of equal-n programs differ by a fifth);
    the names are drawn."""
    params = ", ".join(f"x{i}: uint64" for i in range(n))
    lines = ["contract Branchy:", "  #@ global G;", f"  method step({params}):",
             "    #@ requires ? and acc(G);", "    #@ ensures ? and acc(G);"]
    for i in range(n):
        lines += [f"    if x{i} <= {i % 6 + 1}:",
                  f"      G := G + {i % 3 + 1};",
                  "    else:",
                  f"      G := G - {(i + 1) % 3 + 1};"]
    (text,) = rename(["\n".join(lines) + "\n"], rng)
    return {"family": "b", "name": f"nif{n}", "source": text,
            "adversaries": {}, "static_error": False}


# Multi-contract programs whose predicates read globals the methods write.
# `stock` verifies (with residuals); `drain` has a precise postcondition the
# write falsifies, so its known answer is a static error.  Both show a known
# defect (see defects.py), so they run in the defect probe, not as timed ops.
FAMILY_C = {
    "stock": ("""\
contract Vault:
  #@ global Stock;
  #@ global Reserve;
  #@ predicate atleast(n) = Stock >= n;
  #@ predicate covered(n) = atleast(n) and Reserve >= n;
  method take(x: uint64):
    #@ requires ? and acc(Stock) and atleast(1);
    #@ ensures ? and acc(Stock) and atleast(1);
    Stock := Stock - x;
  method refill(x: uint64):
    #@ requires ? and acc(Stock) and acc(Reserve) and covered({k});
    #@ ensures ? and acc(Stock) and acc(Reserve) and covered({k});
    Stock := Stock + x;
    Reserve := Reserve + x;

contract Shop:
  #@ global Sold;
  #@ predicate sold_atleast(n) = Sold >= n;
  method buy(x: uint64):
    #@ requires ? and acc(Sold);
    #@ ensures ? and acc(Sold) and sold_atleast(x);
    call Vault.take(x);
    Sold := Sold + x;
""", False),
    "drain": ("""\
contract Tank:
  #@ global Level;
  #@ predicate atleast(n) = Level >= n;
  method drain():
    #@ requires acc(Level) and atleast({k});
    #@ ensures acc(Level) and atleast({k});
    Level := 0;

contract Gauge:
  #@ global Seen;
  #@ predicate seen(n) = Seen >= n;
  method mark(x: uint64):
    #@ requires ? and acc(Seen);
    #@ ensures ? and acc(Seen) and seen(x);
    Seen := Seen + x;
""", True),
    # verifies: like drain's Tank, but its predicate reads the global the
    # method does not write; verified just before a drain program, it can
    # hand its predicate reads to drain's Tank
    "decoy": ("""\
contract Tank:
  #@ global Level;
  #@ global Other;
  #@ predicate atleast(n) = Other >= n;
  method drain():
    #@ requires acc(Level) and acc(Other) and atleast({k});
    #@ ensures acc(Level) and acc(Other) and atleast({k});
    Level := 0;
""", False),
}


def family_c(rng, kind):
    template, static_error = FAMILY_C[kind]
    (text,) = rename([template.replace("{k}", str(rng.randint(1, 5)))], rng)
    return {"family": "c", "name": kind, "source": text,
            "adversaries": {}, "static_error": static_error}


NIF_SIZES = range(1, 9)


def static_pass(seed, k):
    """One pass of the `static` workload: three draws of every corpus program
    (family a) and one n-if program per n in 1..8 (family b), in seeded
    order.  The families and sizes are the same in every pass; names,
    constants and order are drawn."""
    rng = rng_for(seed, "static", k)
    items = [family_a(rng, name) for name in CORPUS_NAMES for _ in range(3)]
    items += [family_b(rng, n) for n in NIF_SIZES]
    rng.shuffle(items)
    return items


def grid_sample(rng, dims, bound, count):
    """`count` points of [0, bound]^dims (all of them when the grid is
    smaller)."""
    if (bound + 1) ** dims <= count:
        return list(itertools.product(range(bound + 1), repeat=dims))
    return [tuple(rng.randint(0, bound) for _ in range(dims)) for _ in range(count)]


# ---------------------------------------------------------------------------
# run: transaction scripts over woven corpus programs

def _amount(rng, hi):
    """At most `hi`, except one draw in ten that exceeds every balance."""
    return rng.randint(10**8, 10**9) if rng.random() < 0.1 else rng.randint(0, hi)


# program -> (initial ledger, transactions per pass, transaction generator)
RUN_PROGRAMS = {
    "sell": ({"Counter": {"Count": 10**7}}, 40,
             lambda r: ("Counter", "sell", (_amount(r, 30),))),
    "sell_precise": ({"Counter": {"Count": 10**7}}, 30,
                     lambda r: ("Counter", "sell", (_amount(r, 30),))),
    "loop": ({"Summer": {"Total": 0}}, 16,
             lambda r: ("Summer", "accumulate", (r.randint(0, 300),))),
    "bank": ({"Bank": {"Balance": 1000}}, 16,
             lambda r: ("Bank", "withdraw", (r.randint(0, 2000),))),
    "pred": ({"Parity": {"Value": 0}}, 16,
             lambda r: ("Parity", "bump", (r.randint(0, 60),))),
    # one deposit in ten overflows Funds
    "calls": ({"Wallet": {"Funds": 0}}, 24,
              lambda r: (("Wallet", "deposit", (UINT_MAX - r.randint(0, 999),))
                         if r.random() < 0.1 else
                         ("Wallet", "deposit", (r.randint(0, 1000),))
                         if r.random() < 0.5 else
                         ("Wallet", "top_up", (r.randint(0, 1000), r.randint(0, 1000))))),
    "transfer": ({"Vault": {"Hot": 10**7, "Cold": 0}}, 20,
                 lambda r: ("Vault", "chill", (_amount(r, 1000),))),
    "ledger_pair": ({"Pair": {"A": 10**7, "B": 0}}, 20,
                    lambda r: ("Pair", "move", (_amount(r, 1000),))),
    "divmod": ({"Divider": {"Pool": 10**6}}, 18,
               lambda r: ("Divider", "split", (r.randint(0, 50),))),
}


def run_pass(seed, k):
    """[(program, contract, method, args)]: a fixed number of transactions per
    program, seeded arguments, seeded order."""
    rng = rng_for(seed, "run", k)
    items = []
    for name, (_, share, gen) in RUN_PROGRAMS.items():
        items += [(name,) + gen(rng) for _ in range(share)]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# prover: the random-system generator of scripts/prover_soundness.py

PROVER_SEED = 20240817
PROVER_SYSTEMS = 1000
MAX_VARS, COEFF, CONST, BOX = 4, 4, 16, 16


def _constraint(rng, names):
    coeffs = {}
    for v in names:
        c = rng.randint(-COEFF, COEFF)
        if c:
            coeffs[v] = c
    rel = rng.choice(["LE", "LE", "EQ", "NE"])
    return (tuple(sorted(coeffs.items())), rng.randint(-CONST, CONST), rel)


def prover_systems():
    """The 1000 systems of acceptance criterion 6, in generation order: each
    is (n_vars, premises, goal) with constraints (terms, const, rel) over
    x0..x{n-1}, meaning sum + const REL 0."""
    rng = random.Random(PROVER_SEED)
    out = []
    for _ in range(PROVER_SYSTEMS):
        n = rng.randint(1, MAX_VARS)
        names = [f"x{j}" for j in range(n)]
        premises = [_constraint(rng, names) for _ in range(rng.randint(1, 4))]
        out.append((n, premises, _constraint(rng, names)))
    return out


def prover_names(seed):
    """Per-seed variable names x0..x3 -> v<d>, drawn so that their sorted
    order is kept (the prover eliminates in name order)."""
    picks = sorted(random.Random(f"{seed}:prover:names").sample(range(1000, 10000), MAX_VARS))
    return {f"x{j}": f"v{p}" for j, p in enumerate(picks)}


def _holds(con, point):
    terms, const, rel = con
    total = const + sum(c * point[v] for v, c in terms)
    return total <= 0 if rel == "LE" else total == 0 if rel == "EQ" else total != 0


def truth_row(system):
    """(joint model exists, counterexample exists) over every point of
    [0, BOX]^n: a Proved verdict is wrong iff a counterexample exists, a
    Disproved verdict iff a joint model does."""
    n, premises, goal = system
    names = [f"x{j}" for j in range(n)]
    last = names[-1]
    joint = cex = False
    for prefix in itertools.product(range(BOX + 1), repeat=n - 1):
        point = dict(zip(names, prefix))
        # each constraint is a*last + b REL 0 once the prefix is fixed
        lo, hi, allowed = 0, BOX, None
        for terms, const, rel in premises:
            a = dict(terms).get(last, 0)
            b = const + sum(c * point[v] for v, c in terms if v != last)
            if rel == "LE":
                if a > 0:
                    hi = min(hi, (-b) // a)
                elif a < 0:
                    lo = max(lo, -((-b) // -a))  # ceil(b / -a)
                elif b > 0:
                    lo, hi = 1, 0
            elif rel == "EQ":
                if a == 0:
                    if b != 0:
                        lo, hi = 1, 0
                elif (-b) % a == 0:
                    x = (-b) // a
                    allowed = {x} if allowed is None else allowed & {x}
                else:
                    lo, hi = 1, 0
        if lo > hi:
            continue
        for x in (range(lo, hi + 1) if allowed is None else sorted(allowed)):
            if not lo <= x <= hi:
                continue
            point[last] = x
            if not all(_holds(p, point) for p in premises):
                continue
            if _holds(goal, point):
                joint = True
            else:
                cex = True
            if joint and cex:
                return joint, cex
    return joint, cex


def prover_truth(cache_dir):
    """Truth rows for prover_systems(), built once and cached on disk."""
    key = hashlib.sha256(json.dumps([PROVER_SEED, PROVER_SYSTEMS, MAX_VARS, COEFF,
                                     CONST, BOX]).encode()).hexdigest()[:16]
    path = Path(cache_dir) / f"prover_truth_{key}.json"
    if path.exists():
        return [tuple(r) for r in json.loads(path.read_text())]
    rows = [truth_row(s) for s in prover_systems()]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")  # concurrent runs each write their own
    tmp.write_text(json.dumps(rows))
    tmp.replace(path)
    return rows
