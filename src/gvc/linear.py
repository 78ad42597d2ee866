"""Entailment and satisfiability for conjunctions of linear comparisons over
uint64 variables.

The engine is Fourier-Motzkin elimination over the rationals with integer
bound tightening (divide by the coefficient gcd, floor the bound).  A "sat"
answer is only given after an extracted integer model has been checked
against the original system, so both verdicts are sound; everything else is
"unknown", which gradual verification tolerates (it becomes a run-time
check).  Disequalities are handled by case splits up to a fixed budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd

from .lang import UINT_MAX, BinOp, IntLit

SPLIT_BUDGET = 8
COEF_LIMIT = 2**127
CONSTRAINT_LIMIT = 20000


class Rel(enum.Enum):
    LE = "<="  # sum + const <= 0
    EQ = "=="
    NE = "!="


class ProofResult(enum.Enum):
    PROVED = "proved"
    DISPROVED = "disproved"
    UNKNOWN = "unknown"


class NonLinear:
    """Marker: the atom cannot be expressed in the linear fragment."""

    def __repr__(self):
        return "NonLinear"


NONLINEAR = NonLinear()


@dataclass(frozen=True)
class LinearConstraint:
    terms: tuple  # sorted tuple of (var, coef), coef != 0
    const: int
    rel: Rel

    def __str__(self):
        lhs = " + ".join(f"{c}*{v}" for v, c in self.terms) or "0"
        return f"{lhs} + {self.const} {self.rel.value} 0"


def make_constraint(coeffs: dict, const: int, rel: Rel) -> LinearConstraint:
    terms = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
    return LinearConstraint(terms, const, rel)


# ---------------------------------------------------------------------------
# Linear expressions (also the verifier's symbolic values)


@dataclass(frozen=True)
class LinExpr:
    terms: tuple = ()  # sorted tuple of (symbol, coef)
    const: int = 0

    @staticmethod
    def of(sym: str):
        return LinExpr(((sym, 1),), 0)

    @staticmethod
    def lit(k: int):
        return LinExpr((), k)

    def as_dict(self):
        return dict(self.terms)

    def add(self, other):
        return _combine(self, other, 1)

    def sub(self, other):
        return _combine(self, other, -1)

    def scale(self, k: int):
        if k == 0:
            return LinExpr((), 0)
        return LinExpr(tuple((v, c * k) for v, c in self.terms), self.const * k)

    @property
    def is_const(self):
        return not self.terms


def _combine(a: LinExpr, b: LinExpr, sign: int):
    coeffs = dict(a.terms)
    for v, c in b.terms:
        coeffs[v] = coeffs.get(v, 0) + sign * c
    return LinExpr(tuple(sorted((v, c) for v, c in coeffs.items() if c != 0)),
                   a.const + sign * b.const)


def constraints_for_cmp(op: str, left: LinExpr, right: LinExpr):
    """Constraints equivalent to `left op right` over integers."""
    d = left.sub(right)  # d op 0
    coeffs = d.as_dict()
    if op == "<=":
        return [make_constraint(coeffs, d.const, Rel.LE)]
    if op == "<":
        return [make_constraint(coeffs, d.const + 1, Rel.LE)]
    if op == ">=":
        return [make_constraint({v: -c for v, c in coeffs.items()}, -d.const, Rel.LE)]
    if op == ">":
        return [make_constraint({v: -c for v, c in coeffs.items()}, -d.const + 1, Rel.LE)]
    if op == "==":
        return [make_constraint(coeffs, d.const, Rel.EQ)]
    if op == "!=":
        return [make_constraint(coeffs, d.const, Rel.NE)]
    raise ValueError(f"unknown relop {op}")


def negate_constraints(cons):
    """Negation of a conjunction: a list of alternatives (disjunction), each a
    single-constraint conjunction."""
    out = []
    for c in cons:
        coeffs = dict(c.terms)
        if c.rel is Rel.LE:
            # not(L <= 0)  <=>  -L + 1 <= 0
            out.append([make_constraint({v: -k for v, k in coeffs.items()}, -c.const + 1, Rel.LE)])
        elif c.rel is Rel.EQ:
            out.append([LinearConstraint(c.terms, c.const, Rel.NE)])
        else:
            out.append([LinearConstraint(c.terms, c.const, Rel.EQ)])
    return out


# ---------------------------------------------------------------------------
# Expression linearization


def linearize(e, leaf):
    """Source expression -> LinExpr, or NONLINEAR.  `leaf` gives the value
    (a LinExpr or NONLINEAR) of each Name, Old or Result node; both operands
    of a BinOp are linearized, left first, before either is inspected."""
    if isinstance(e, IntLit):
        return LinExpr.lit(e.value)
    if not isinstance(e, BinOp):
        return leaf(e)
    l = linearize(e.left, leaf)
    r = linearize(e.right, leaf)
    if l is NONLINEAR or r is NONLINEAR:
        return NONLINEAR
    if e.op == "+":
        return l.add(r)
    if e.op == "-":
        return l.sub(r)
    if e.op == "*":
        if l.is_const:
            return r.scale(l.const)
        if r.is_const:
            return l.scale(r.const)
    return NONLINEAR  # "/" and "%" never linearize


def cmp_constraints(op, left, right, leaf):
    """Constraints for the comparison `left op right` of two source
    expressions (see linearize), or NONLINEAR."""
    l = linearize(left, leaf)
    r = linearize(right, leaf)
    if l is NONLINEAR or r is NONLINEAR:
        return NONLINEAR
    return constraints_for_cmp(op, l, r)


# ---------------------------------------------------------------------------
# Satisfiability


def _tighten(coeffs, const):
    """Normalize sum coeffs*v <= -const by the gcd, flooring the bound."""
    vals = [abs(c) for c in coeffs.values() if c != 0]
    if not vals:
        return coeffs, const
    g = 0
    for v in vals:
        g = gcd(g, v)
    if g <= 1:
        return coeffs, const
    bound = -const  # sum <= bound
    new_bound = bound // g  # floor: sound tightening for integers
    return {v: c // g for v, c in coeffs.items()}, -new_bound


def check_sat(constraints):
    """'sat' | 'unsat' | 'unknown' over integer points in the uint64 box."""
    les, nes = [], []
    for c in constraints:
        if c.rel is Rel.LE:
            les.append((dict(c.terms), c.const))
        elif c.rel is Rel.EQ:
            les.append((dict(c.terms), c.const))
            les.append(({v: -k for v, k in c.terms}, -c.const))
        else:
            nes.append((dict(c.terms), c.const))
    variables = set()
    for coeffs, _ in les + nes:
        variables.update(coeffs)
    for v in sorted(variables):
        les.append(({v: -1}, 0))  # v >= 0
        les.append(({v: 1}, -UINT_MAX))  # v <= MAX

    base = _fm(les, sorted(variables))
    if base == "unsat":
        return "unsat"
    if not nes:
        return base
    if len(nes) > SPLIT_BUDGET:
        return "unknown"

    # DFS over disequality splits: L != 0 -> L <= -1 or L >= 1
    saw_unknown = False
    stack = [(les, nes)]
    while stack:
        cur_les, cur_nes = stack.pop()
        if not cur_nes:
            r = _fm(cur_les, sorted(variables), nes_check=nes)
            if r == "sat":
                return "sat"
            if r == "unknown":
                saw_unknown = True
            continue
        coeffs, const = cur_nes[0]
        rest = cur_nes[1:]
        if not coeffs:
            if const != 0:
                stack.append((cur_les, rest))
            continue  # 0 != 0: this branch is unsat
        lo = (dict(coeffs), const + 1)  # L + 1 <= 0
        hi = ({v: -c for v, c in coeffs.items()}, -const + 1)  # -L + 1 <= 0
        for extra in (lo, hi):
            nxt = cur_les + [extra]
            if _fm(nxt, sorted(variables)) != "unsat":
                stack.append((nxt, rest))
    return "unknown" if saw_unknown else "unsat"


def _fm(les, var_order, nes_check=None):
    """Fourier-Motzkin with model extraction.  les: list of (coeffs, const)
    meaning sum coeffs*v + const <= 0."""
    levels = []
    cur = []
    for coeffs, const in les:
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        coeffs, const = _tighten(coeffs, const)
        cur.append((coeffs, const))
    for v in var_order:
        lows, highs, rest = [], [], []
        for coeffs, const in cur:
            c = coeffs.get(v, 0)
            if c > 0:
                highs.append((coeffs, const))  # upper bound on v
            elif c < 0:
                lows.append((coeffs, const))  # lower bound on v
            else:
                rest.append((coeffs, const))
        levels.append((v, lows, highs))
        new = rest
        for hc, hk in highs:
            a = hc[v]
            for lc, lk in lows:
                d = -lc[v]
                coeffs = {}
                for u, c in hc.items():
                    if u != v:
                        coeffs[u] = coeffs.get(u, 0) + d * c
                for u, c in lc.items():
                    if u != v:
                        coeffs[u] = coeffs.get(u, 0) + a * c
                const = d * hk + a * lk
                coeffs = {u: c for u, c in coeffs.items() if c != 0}
                coeffs, const = _tighten(coeffs, const)
                if not coeffs:
                    if const > 0:
                        return "unsat"
                    continue
                if abs(const) > COEF_LIMIT or any(abs(c) > COEF_LIMIT for c in coeffs.values()):
                    return "unknown"
                new.append((coeffs, const))
        if len(new) > CONSTRAINT_LIMIT:
            return "unknown"
        cur = new
    for coeffs, const in cur:
        if not coeffs and const > 0:
            return "unsat"

    # rational feasibility established; extract and verify an integer model
    model = {}
    for v, lows, highs in reversed(levels):
        lb, ub = 0, UINT_MAX
        for coeffs, const in highs:
            a = coeffs[v]
            rhs = -const - sum(c * model.get(u, 0) for u, c in coeffs.items() if u != v)
            ub = min(ub, rhs // a)
        for coeffs, const in lows:
            d = -coeffs[v]
            rhs = const + sum(c * model.get(u, 0) for u, c in coeffs.items() if u != v)
            lb = max(lb, -(-rhs // d))  # ceil
        if lb > ub:
            return "unknown"
        model[v] = lb
    for coeffs, const in les:
        if sum(c * model.get(u, 0) for u, c in coeffs.items()) + const > 0:
            return "unknown"
    if nes_check:
        for coeffs, const in nes_check:
            if sum(c * model.get(u, 0) for u, c in coeffs.items()) + const == 0:
                return "unknown"
    return "sat"


# ---------------------------------------------------------------------------
# Entailment


class ProverStats:
    def __init__(self):
        self.queries = 0
        self.proved = 0
        self.disproved = 0
        self.unknown = 0

    def record(self, result):
        self.queries += 1
        if result is ProofResult.PROVED:
            self.proved += 1
        elif result is ProofResult.DISPROVED:
            self.disproved += 1
        else:
            self.unknown += 1

    def as_dict(self):
        return {"queries": self.queries, "proved": self.proved,
                "disproved": self.disproved, "unknown": self.unknown}


def entails_constraints(premises, goal, stats=None):
    """ProofResult for premises |= conjunction(goal).  Sound: never a wrong
    Proved or Disproved."""
    result = _entails(premises, goal)
    if stats is not None:
        stats.record(result)
    return result


def _entails(premises, goal):
    proved = True
    for alt in negate_constraints(goal):
        r = check_sat(list(premises) + alt)
        if r != "unsat":
            proved = False
            break
    if proved:
        return ProofResult.PROVED
    if check_sat(list(premises) + list(goal)) == "unsat" and check_sat(list(premises)) == "sat":
        return ProofResult.DISPROVED
    return ProofResult.UNKNOWN
