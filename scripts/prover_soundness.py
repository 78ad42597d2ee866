#!/usr/bin/env python3
"""Random-system soundness experiment for the linear prover.

Generates small linear systems (up to 4 variables, coefficients in [-4, 4]),
asks the prover for an entailment verdict, and cross-checks every Proved and
Disproved answer against exhaustive search over the box [0, 16]^n.  Prints
the verdict distribution, the Proved rate, the prover's total time and its
slowest query; any contradiction is a prover soundness bug.
"""

import argparse
import itertools
import random
import sys
import time
from dataclasses import dataclass
from functools import reduce
from operator import and_
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gvc.linear import (ProofResult, Rel, entails_constraints, make_constraint)


@dataclass
class Config:
    systems: int = 1000
    max_vars: int = 4
    coeff: int = 4
    const: int = 16
    box: int = 16
    seed: int = 20240817


def random_constraint(rng, names, cfg):
    coeffs = {}
    for v in names:
        c = rng.randint(-cfg.coeff, cfg.coeff)
        if c:
            coeffs[v] = c
    rel = rng.choice([Rel.LE, Rel.LE, Rel.EQ, Rel.NE])
    return make_constraint(coeffs, rng.randint(-cfg.const, cfg.const), rel)


def random_systems(cfg):
    """cfg.systems entailment queries drawn from cfg.seed, each a triple
    (variable names, premise constraints, goal constraints)."""
    rng = random.Random(cfg.seed)
    for _ in range(cfg.systems):
        n = rng.randint(1, cfg.max_vars)
        names = [f"x{j}" for j in range(n)]
        premises = [random_constraint(rng, names, cfg) for _ in range(rng.randint(1, 4))]
        goal = [random_constraint(rng, names, cfg)]
        yield names, premises, goal


def holds(total, rel):
    """Whether `total REL 0`."""
    if rel is Rel.LE:
        return total <= 0
    if rel is Rel.EQ:
        return total == 0
    return total != 0


def contradiction(names, premises, goal, verdict, box):
    """The first point of [0, box]^n, in `itertools.product` order, that
    refutes a Proved or Disproved verdict: one satisfying the premises where
    the goal fails (Proved) or holds (Disproved).  None when there is none.

    Only the first n-1 coordinates, the prefixes, are enumerated.  At each
    prefix a constraint is the bit mask of the last coordinate's values that
    satisfy it (bit t for value t), which depends only on the constraint's
    partial sum there.  The lowest bit set in the conjunction of the
    premises' masks with the goal's mask, or its complement, is the point a
    scan over all n coordinates would reach first."""
    *head, last = names
    values = range(box + 1)
    full = (1 << (box + 1)) - 1

    def masks(con):
        # con's mask at every prefix, in product order
        coefs = dict(con.terms)
        partials = [con.const]
        for v in head:
            c = coefs.get(v, 0)
            partials = [p + c * x for p in partials for x in values]
        c = coefs.get(last, 0)
        table = {p: sum(1 << t for t in values if holds(p + c * t, con.rel))
                 for p in set(partials)}
        return list(map(table.__getitem__, partials))

    def conj(cons):
        return reduce(lambda a, b: list(map(and_, a, b)), map(masks, cons),
                      [full] * (box + 1) ** len(head))

    ok, goal_holds = conj(premises), conj(goal)
    if verdict is ProofResult.PROVED:
        goal_holds = [full ^ m for m in goal_holds]
    for i, m in enumerate(map(and_, ok, goal_holds)):
        if m:
            prefix = next(itertools.islice(itertools.product(values, repeat=len(head)), i, None))
            return dict(zip(names, prefix + ((m & -m).bit_length() - 1,)))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--systems", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=20240817)
    args = ap.parse_args()
    cfg = Config(systems=args.systems, seed=args.seed)

    tally = {r: 0 for r in ProofResult}
    contradictions = []
    prover_s, slowest = 0.0, (0.0, None)
    for i, (names, premises, goal) in enumerate(random_systems(cfg)):
        t0 = time.perf_counter()
        verdict = entails_constraints(premises, goal)
        dt = time.perf_counter() - t0
        prover_s += dt
        slowest = max(slowest, (dt, i))
        tally[verdict] += 1
        if verdict is ProofResult.UNKNOWN:
            continue
        pt = contradiction(names, premises, goal, verdict, cfg.box)
        if pt is not None:
            what = ("Proved but counterexample" if verdict is ProofResult.PROVED
                    else "Disproved but joint model")
            contradictions.append((i, pt, what))

    total = cfg.systems
    print(f"systems: {total}")
    print(f"proved: {tally[ProofResult.PROVED]}  "
          f"disproved: {tally[ProofResult.DISPROVED]}  "
          f"unknown: {tally[ProofResult.UNKNOWN]}")
    print(f"proved rate: {tally[ProofResult.PROVED] / total:.3f}")
    print(f"prover: {prover_s:.2f} s in total, slowest query #{slowest[1]} "
          f"{slowest[0] * 1e3:.1f} ms")
    print(f"contradictions: {len(contradictions)}")
    for c in contradictions[:10]:
        print("  ", c)
    return 1 if contradictions else 0


if __name__ == "__main__":
    sys.exit(main())
