#!/usr/bin/env python3
"""Random-system soundness experiment for the linear prover.

Generates small linear systems (up to 4 variables, coefficients in [-4, 4]),
asks the prover for an entailment verdict, and cross-checks every Proved and
Disproved answer against exhaustive search over the box [0, 16]^n.  Prints
the verdict distribution and the Proved rate; any contradiction is a prover
soundness bug.
"""

import argparse
import itertools
import random
import sys
from dataclasses import dataclass
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


def satisfies(point, con):
    total = con.const + sum(c * point[v] for v, c in con.terms)
    if con.rel is Rel.LE:
        return total <= 0
    if con.rel is Rel.EQ:
        return total == 0
    return total != 0


def contradiction(names, premises, goal, verdict, box):
    """A point of [0, box]^n that refutes a Proved or Disproved verdict: one
    satisfying the premises where the goal fails (Proved) or holds
    (Disproved).  None when search finds none."""
    for pt_vals in itertools.product(range(box + 1), repeat=len(names)):
        pt = dict(zip(names, pt_vals))
        if not all(satisfies(pt, p) for p in premises):
            continue
        if all(satisfies(pt, g) for g in goal) != (verdict is ProofResult.PROVED):
            return pt
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--systems", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=20240817)
    args = ap.parse_args()
    cfg = Config(systems=args.systems, seed=args.seed)

    tally = {r: 0 for r in ProofResult}
    contradictions = []
    for i, (names, premises, goal) in enumerate(random_systems(cfg)):
        verdict = entails_constraints(premises, goal)
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
    print(f"contradictions: {len(contradictions)}")
    for c in contradictions[:10]:
        print("  ", c)
    return 1 if contradictions else 0


if __name__ == "__main__":
    sys.exit(main())
