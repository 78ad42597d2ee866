"""Linear entailment engine: examples plus randomized soundness."""

import itertools

from hypothesis import given, settings, strategies as st

from gvc.lang import BinOp, IntLit, Name
from gvc.linear import (
    NONLINEAR, LinExpr, ProofResult, Rel, check_sat, cmp_constraints,
    entails_constraints, linearize, make_constraint,
)


def con(coeffs, const, rel=Rel.LE):
    return make_constraint(coeffs, const, rel)


def symbol(e):
    # every name is a prover variable of its own
    return LinExpr.of(e.name)


class TestExamples:
    def test_equality_disproves(self):
        # x == 2 |- x >= 5 : no joint model, premises satisfiable
        prem = [con({"x": 1}, -2, Rel.EQ)]
        goal = [con({"x": -1}, 5)]
        assert entails_constraints(prem, goal) is ProofResult.DISPROVED

    def test_sell_residual_entailment(self):
        # quantity <= count, scratch == count |- scratch >= quantity
        prem = [con({"quantity": 1, "count": -1}, 0),
                con({"scratch": 1, "count": -1}, 0, Rel.EQ)]
        goal = [con({"quantity": 1, "scratch": -1}, 0)]
        assert entails_constraints(prem, goal) is ProofResult.PROVED

    def test_gcd_tightening(self):
        # 2x <= 5 |- x <= 2 over integers
        prem = [con({"x": 2}, -5)]
        goal = [con({"x": 1}, -2)]
        assert entails_constraints(prem, goal) is ProofResult.PROVED

    def test_disequality_split(self):
        # 0 <= x <= 1 and x != 0 |- x == 1
        prem = [con({"x": 1}, -1), con({"x": 1}, 0, Rel.NE)]
        goal = [con({"x": 1}, -1, Rel.EQ)]
        assert entails_constraints(prem, goal) is ProofResult.PROVED

    def test_implicit_unsigned_bounds(self):
        # |- x >= 0 holds with no premises: the domain is uint64
        goal = [con({"x": -1}, 0)]
        assert entails_constraints([], goal) is ProofResult.PROVED

    def test_unsat_premises_detected(self):
        assert check_sat([con({"x": 1}, -1), con({"x": -1}, 2)]) == "unsat"

    def test_atom_entailment(self):
        prem = [con({"x": 1}, -3, Rel.EQ)]
        goal = cmp_constraints(">=", Name("x"), IntLit(2), symbol)
        assert entails_constraints(prem, goal) is ProofResult.PROVED

    def test_nonlinear_product(self):
        e = BinOp("*", Name("x"), Name("y"))
        assert linearize(e, symbol) is NONLINEAR

    def test_constant_product_is_linear(self):
        e = BinOp("*", IntLit(3), Name("x"))
        assert linearize(e, symbol) is not NONLINEAR


# -- randomized soundness vs exhaustive search over a small box --------------

_VARS = ["x", "y", "z"]
BOX = 8


@st.composite
def systems(draw):
    n = draw(st.integers(1, 3))
    names = _VARS[:n]

    def one():
        coeffs = {v: draw(st.integers(-4, 4)) for v in names}
        rel = draw(st.sampled_from([Rel.LE, Rel.LE, Rel.EQ, Rel.NE]))
        return make_constraint(coeffs, draw(st.integers(-12, 12)), rel)

    prem = [one() for _ in range(draw(st.integers(1, 3)))]
    return names, prem, [one()]


def _sat(point, c):
    total = c.const + sum(k * point[v] for v, k in c.terms)
    return {Rel.LE: total <= 0, Rel.EQ: total == 0, Rel.NE: total != 0}[c.rel]


@settings(max_examples=150, deadline=None)
@given(systems())
def test_verdicts_sound_vs_enumeration(sys_):
    names, prem, goal = sys_
    verdict = entails_constraints(prem, goal)
    if verdict is ProofResult.UNKNOWN:
        return
    for vals in itertools.product(range(BOX + 1), repeat=len(names)):
        pt = dict(zip(names, vals))
        if not all(_sat(pt, p) for p in prem):
            continue
        holds = all(_sat(pt, g) for g in goal)
        if verdict is ProofResult.PROVED:
            assert holds, (pt, prem, goal)
        else:
            assert not holds, (pt, prem, goal)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_proved_is_monotone_under_stronger_premises(sys_):
    names, prem, goal = sys_
    if entails_constraints(prem, goal) is not ProofResult.PROVED:
        return
    extra = make_constraint({names[0]: 1}, -3, Rel.LE)  # x <= 3
    assert entails_constraints(prem + [extra], goal) is ProofResult.PROVED
