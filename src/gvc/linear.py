"""Entailment and satisfiability for conjunctions of linear comparisons over
uint64 variables.

The engine is Fourier-Motzkin elimination over the rationals with integer
bound tightening (divide by the coefficient gcd, floor the bound).  A "sat"
answer is only given after an extracted integer model has been checked
against the original system, so both verdicts are sound; everything else is
"unknown", which gradual verification tolerates (it becomes a run-time
check).  Disequalities are handled by case splits up to a fixed budget.

A conjunction is held as a `PathCondition`, which keeps it split into
independent components (two constraints are in one component when they share
a variable) as constraints are appended, the constraint-independence split
of KLEE (Cadar, Dunbar, Engler, OSDI 2008).  A verifier's path condition only
grows, so appending re-forms only the components the new constraints touch,
and a query that adds constraints to a path condition (an entailment's
negated goal) re-forms only those too.  `check_sat` decides each component
alone: variable-free constraints directly, every other component by
elimination, splits and the model check.  Any unsat component makes the
conjunction unsat, else any unknown one makes it unknown.  Elimination never
mixes components, so the verdicts and models are those of eliminating the
whole conjunction at once, except that SPLIT_BUDGET, COEF_LIMIT and
CONSTRAINT_LIMIT apply per component, which can only turn an "unknown" into a
sound verdict.  A component whose constraints all name one variable skips
elimination, as a DPLL(T) solver keeps a one-variable constraint as a bound
(Dutertre and de Moura, CAV 2006): its bounds, its `==` constants and its
`!=` holes give the verdict elimination would, the give-up included (more
than SPLIT_BUDGET disequalities is unknown), and one holding a constant
beyond COEF_LIMIT goes to elimination.  A component reaches `_decide` as the
sorted tuple of its unique constraints, which is also its key in the memo of
component verdicts.  The key holds one `<=` constraint per coefficient
vector, the tightest: of two bounds on the same terms the one with the
larger constant implies the other, so the weaker is dropped as it is
appended (a normalization step of Pugh's Omega test, 1991/92); `_fm` drops
the weaker of the constraints each elimination step derives by the same
rule.  The dropped bound holds wherever
the kept one does, so neither elimination nor the model check reaches
another verdict without it, except where a COEF_LIMIT or CONSTRAINT_LIMIT
give-up is avoided.  A verdict depends on the key's content alone, so a
component keeps its verdict once decided, copies of a path condition share
it, and one memo may serve every query of one verification run, or of several:
`verify_program` takes a memo from its caller (a fresh one when none is
given), its `ProverStats.memo` holds it, and the run lets go of it when it
returns.  A query without one gets a memo of its own.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from math import gcd
from typing import NamedTuple

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


class LinearConstraint(NamedTuple):
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


class LinExpr(NamedTuple):
    terms: tuple = ()  # sorted tuple of (symbol, coef)
    const: int = 0

    @staticmethod
    def of(sym: str):
        return LinExpr(((sym, 1),), 0)

    @staticmethod
    def lit(k: int):
        return LinExpr((), k)

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
    coeffs = dict(d.terms)
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


class _Component:
    """A variable-sharing component: the sorted tuple of its unique
    (terms, const, rel) keys, with one `<=` key per terms, and its verdict
    once decided."""

    __slots__ = ("key", "verdict")

    def __init__(self, key):
        self.key = key
        self.verdict = None


class PathCondition:
    """An append-only conjunction of linear constraints, split into its
    variable-sharing components as constraints are appended.

    A union-find over variables maps each root to its component.  Appending
    a constraint re-forms only the components it touches; the others, with
    any verdict they hold, stay shared with every copy.  A `<=` bound
    re-forms nothing when its component holds as tight a bound on the same
    terms, and replaces a looser one."""

    __slots__ = ("_parent", "_comps", "_false")

    def __init__(self, constraints=()):
        self._parent = {}  # variable -> a variable of its component; roots map to themselves
        self._comps = {}  # root variable -> _Component
        self._false = False  # some variable-free constraint is false
        self.extend(constraints)

    def copy(self):
        """An independent copy, made in time proportional to the variables
        and components, not to the number of constraints."""
        pc = PathCondition.__new__(PathCondition)
        pc._parent = dict(self._parent)
        pc._comps = dict(self._comps)
        pc._false = self._false
        return pc

    def plus(self, constraints):
        """A copy with `constraints` appended; this one is unchanged."""
        pc = self.copy()
        pc.extend(constraints)
        return pc

    def extend(self, constraints):
        parent, comps = self._parent, self._comps
        for c in constraints:
            terms, const, rel = key = (c.terms, c.const, c.rel.value)
            if not terms:
                # "==" holds when const is 0, "!=" when it is not
                if not (const <= 0 if rel == "<=" else (const == 0) == (rel == "==")):
                    self._false = True
                continue
            roots, new = [], []
            for v, _ in terms:
                r = parent.get(v)
                if r is None:
                    new.append(v)
                    continue
                if parent[r] != r:
                    r = self._root(r)
                if r not in roots:
                    roots.append(r)
            if not roots:
                root, merged = new[0], (key,)
            elif len(roots) == 1:
                root = roots[0]
                old = comps[root].key
                if rel == "<=":
                    j = _bound_index(old, terms)
                    if j >= 0:
                        if old[j][1] >= const:
                            continue  # the bound held is as tight or tighter
                        old = old[:j] + old[j + 1:]
                i = bisect_left(old, key)
                if i < len(old) and old[i] == key:
                    continue  # already in this component
                merged = old[:i] + (key,) + old[i:]
            else:
                # components share no key, so merging their sorted runs is a sort
                root = roots[0]
                merged = [key]
                for r in roots:
                    merged.extend(comps[r].key)
                merged = tuple(sorted(merged))
                for r in roots[1:]:
                    parent[r] = root
                    del comps[r]
            for v in new:
                parent[v] = root
            comps[root] = _Component(merged)

    def _root(self, v):
        parent = self._parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v


def _bound_index(keys, terms):
    """Index of the `<=` key on `terms` in the sorted component key `keys`,
    or -1; a component holds at most one."""
    for j in range(bisect_left(keys, (terms,)), len(keys)):
        t, _, rel = keys[j]
        if t != terms:
            break
        if rel == "<=":
            return j
    return -1


def _path(constraints):
    """`constraints` as a PathCondition: itself if it is one."""
    if isinstance(constraints, PathCondition):
        return constraints
    return PathCondition(constraints)


def check_sat(constraints, memo=None):
    """'sat' | 'unsat' | 'unknown' over integer points in the uint64 box, for
    a PathCondition or any iterable of constraints.  Decided one
    variable-sharing component at a time (any unsat component makes the
    conjunction unsat, else any unknown one makes it unknown).  A component
    keeps its verdict once decided; `memo` maps each component key already
    decided to its verdict."""
    pc = _path(constraints)
    if pc._false:
        return "unsat"
    if memo is None:
        memo = {}
    verdict = "sat"
    for comp in pc._comps.values():
        r = comp.verdict
        if r is None:
            r = memo.get(comp.key)
            if r is None:
                r = memo[comp.key] = _decide(comp.key)
            comp.verdict = r
        if r == "unsat":
            return "unsat"
        if r == "unknown":
            verdict = "unknown"
    return verdict


def _components(constraints):
    """The conjunction's component keys (see PathCondition), or None when a
    variable-free constraint is false; true ones are dropped."""
    pc = _path(constraints)
    return None if pc._false else [comp.key for comp in pc._comps.values()]


def _decide(component):
    """The verdict of one component (see _components): from its bounds when
    every constraint names one variable (see _decide_bounds), else by
    elimination.  Both reach the same verdict on a one-variable component."""
    r = _decide_bounds(component)
    return _eliminate(component) if r is None else r


def _decide_bounds(component):
    """The verdict of a component whose constraints all name one variable v,
    without elimination, or None (hand it to _eliminate) for any other
    component or one holding a constant beyond COEF_LIMIT.  Over one
    variable, elimination with its model check is exact, and this is what
    it finds: the `<=` bounds, floored to integers, and each `==` (unsat
    unless its coefficient divides its constant) intersect [0, UINT_MAX];
    an empty interval is unsat.  A nonempty one without disequalities is
    sat; with more than SPLIT_BUDGET of them it is unknown, the splits'
    give-up; else it is sat unless the `!=` holes (a point each, where the
    coefficient divides the constant) cover it."""
    lo, hi, nes, holes = 0, UINT_MAX, 0, set()
    for terms, const, rel in component:
        if len(terms) != 1 or abs(const) > COEF_LIMIT:
            return None
        c = terms[0][1]
        if rel == "!=":
            nes += 1
            if const % c == 0:
                holes.add(-const // c)
        elif rel == "==":
            if const % c:
                lo = UINT_MAX + 1  # no integer solves it
            else:
                lo, hi = max(lo, -const // c), min(hi, -const // c)
        elif c > 0:  # c*v + const <= 0
            hi = min(hi, -const // c)
        else:
            lo = max(lo, -(-const // -c))  # ceil(const / -c)
    if lo > hi:
        return "unsat"
    if not nes:
        return "sat"
    if nes > SPLIT_BUDGET:
        return "unknown"
    return "sat" if hi - lo + 1 > sum(lo <= h <= hi for h in holes) else "unsat"


def _eliminate(component):
    """Fourier-Motzkin, disequality splits and the integer model check on
    one component (see _components)."""
    les, nes = [], []
    for terms, const, rel in component:
        if rel == "<=":
            les.append((dict(terms), const))
        elif rel == "==":
            les.append((dict(terms), const))
            les.append(({v: -k for v, k in terms}, -const))
        else:
            nes.append((dict(terms), const))
    variables = sorted({v for terms, _, _ in component for v, _ in terms})
    for v in variables:
        les.append(({v: -1}, 0))  # v >= 0
        les.append(({v: 1}, -UINT_MAX))  # v <= MAX

    base = _fm(les, variables)
    if base == "unsat":
        return "unsat"
    if not nes:
        return base
    if len(nes) > SPLIT_BUDGET:
        return "unknown"

    # DFS over disequality splits: L != 0 -> L <= -1 or L >= 1.  A leaf
    # holds one side of every split, so the model check of its pruning run
    # already rules out each L == 0: that run decides it.
    saw_unknown = False
    stack = [(les, nes)]
    while stack:
        cur_les, cur_nes = stack.pop()
        coeffs, const = cur_nes[0]
        rest = cur_nes[1:]
        lo = (dict(coeffs), const + 1)  # L + 1 <= 0
        hi = ({v: -c for v, c in coeffs.items()}, -const + 1)  # -L + 1 <= 0
        for extra in (lo, hi):
            nxt = cur_les + [extra]
            r = _fm(nxt, variables)
            if r == "unsat":
                continue
            if rest:
                stack.append((nxt, rest))
            elif r == "sat":
                return "sat"
            else:
                saw_unknown = True
    return "unknown" if saw_unknown else "unsat"


def _fm(les, var_order):
    """Fourier-Motzkin with model extraction.  les: list of (coeffs, const)
    meaning sum coeffs*v + const <= 0.  Each level keeps one constraint per
    coefficient vector, the one with the largest const: it implies the
    others, and so do the constraints derived from it, so the verdict and
    the bounds the model is read from are those of keeping them all, except
    where a COEF_LIMIT or CONSTRAINT_LIMIT give-up is avoided."""
    levels = []
    cur = {}
    for coeffs, const in les:
        coeffs, const = _tighten({v: c for v, c in coeffs.items() if c != 0}, const)
        key = tuple(sorted(coeffs.items()))
        if key not in cur or cur[key][1] < const:
            cur[key] = (coeffs, const)
    for v in var_order:
        lows, highs, new = [], [], {}
        for key, (coeffs, const) in cur.items():
            c = coeffs.get(v, 0)
            if c > 0:
                highs.append((coeffs, const))  # upper bound on v
            elif c < 0:
                lows.append((coeffs, const))  # lower bound on v
            else:
                new[key] = (coeffs, const)
        levels.append((v, lows, highs))
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
                key = tuple(sorted(coeffs.items()))
                if key not in new or new[key][1] < const:
                    new[key] = (coeffs, const)
        if len(new) > CONSTRAINT_LIMIT:
            return "unknown"
        cur = new
    for coeffs, const in cur.values():
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
    return "sat"


# ---------------------------------------------------------------------------
# Entailment


class ProverStats:
    """Verdict counts of one verification run, and the component verdicts
    (check_sat's memo) its queries use: `memo`, or a fresh one."""

    def __init__(self, memo=None):
        self.queries = 0
        self.proved = 0
        self.disproved = 0
        self.unknown = 0
        self.memo = {} if memo is None else memo

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
    result = _entails(premises, goal, {} if stats is None else stats.memo)
    if stats is not None:
        stats.record(result)
    return result


def _entails(premises, goal, memo):
    premises = _path(premises)
    for alt in negate_constraints(goal):
        if check_sat(premises.plus(alt), memo) != "unsat":
            break
    else:
        return ProofResult.PROVED
    if (check_sat(premises.plus(goal), memo) == "unsat"
            and check_sat(premises, memo) == "sat"):
        return ProofResult.DISPROVED
    return ProofResult.UNKNOWN
