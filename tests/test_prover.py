"""Linear entailment engine: examples plus randomized soundness."""

import itertools
import json
import operator
import sys

from hypothesis import example, given, settings, strategies as st

import gvc.linear
import gvc.verifier
from gvc.frontend import load_source
from gvc.lang import UINT_MAX, BinOp, IntLit, Name
from gvc.linear import (
    COEF_LIMIT, NONLINEAR, SPLIT_BUDGET, LinExpr, LinearConstraint, PathCondition, ProofResult,
    ProverStats, Rel, check_sat, cmp_constraints, entails_constraints, linearize, make_constraint,
)
from gvc.verifier import verify_program

from conftest import ROOT, nif_source

sys.path.insert(0, str(ROOT / "scripts"))
import prover_soundness  # noqa: E402


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


_HOLDS = {Rel.LE: operator.le, Rel.EQ: operator.eq, Rel.NE: operator.ne}


def _first_refuting_point(names, prem, goal, verdict, box):
    # the plain scan of the whole box, in product order, that
    # prover_soundness.contradiction must agree with
    def row(c):
        coefs = dict(c.terms)
        return c.const, [coefs.get(v, 0) for v in names], _HOLDS[c.rel]

    prem, goal = [row(c) for c in prem], [row(c) for c in goal]
    goal_holds = verdict is not ProofResult.PROVED
    for vals in itertools.product(range(box + 1), repeat=len(names)):
        if all(op(k + sum(map(operator.mul, cs, vals)), 0) for k, cs, op in prem) and \
                all(op(k + sum(map(operator.mul, cs, vals)), 0) for k, cs, op in goal) == goal_holds:
            return dict(zip(names, vals))
    return None


def test_contradiction_search_matches_a_plain_scan():
    # on every system of criterion 6 with at most three variables, under
    # either verdict, the masked search returns the point a scan of the
    # whole box [0, 16]^n reaches first, or None with it
    cfg = prover_soundness.Config(systems=1000, seed=20240817, box=16)
    found = 0
    for names, prem, goal in prover_soundness.random_systems(cfg):
        if len(names) > 3:
            continue
        for verdict in (ProofResult.PROVED, ProofResult.DISPROVED):
            pt = prover_soundness.contradiction(names, prem, goal, verdict, cfg.box)
            assert pt == _first_refuting_point(names, prem, goal, verdict, cfg.box), \
                (names, prem, goal, verdict)
            found += pt is not None
    assert found == 527


# -- the component split and its memo ------------------------------------------


def _rename(cons, suffix):
    return [LinearConstraint(tuple((v + suffix, k) for v, k in c.terms), c.const, c.rel)
            for c in cons]


def _combined(a, b):
    if "unsat" in (a, b):
        return "unsat"
    return "unknown" if "unknown" in (a, b) else "sat"


def test_split_agrees_with_separate_verdicts():
    # criterion 6's systems in pairs, the second renamed apart from the
    # first and the two interleaved: deciding the union gives the
    # combination of the two verdicts, and the verdict of eliminating the
    # union as one unsplit system wherever that one is not a give-up
    systems = [prem + goal for _, prem, goal in prover_soundness.random_systems(
        prover_soundness.Config(systems=1000, seed=20240817))]
    verdicts = {"sat": 0, "unsat": 0, "unknown": 0}
    for a, b in zip(systems[0::2], systems[1::2]):
        b = _rename(b, "_b")
        union = [c for pair in itertools.zip_longest(a, b) for c in pair if c is not None]
        got = check_sat(union)
        assert got == _combined(check_sat(a), check_sat(b)), (a, b)
        unsplit = gvc.linear._decide(tuple(sorted(
            {(c.terms, c.const, c.rel.value) for c in union})))
        assert unsplit in (got, "unknown"), (a, b)
        verdicts[got] += 1
    assert all(verdicts.values()), verdicts


def test_components_join_deep_chains():
    # c - d + 1 <= 0, b <= c, a <= b, d + e <= 0: the chain a..d puts four
    # links between the first and the last variable joined, and d >= 1
    # contradicts d + e <= 0 only if d's two constraints share a component
    cons = [con({"c": 1, "d": -1}, 1), con({"b": 1, "c": -1}, 0),
            con({"a": 1, "b": -1}, 0), con({"d": 1, "e": 1}, 0)]
    assert len(gvc.linear._components(cons)) == 1
    whole = tuple(sorted((c.terms, c.const, c.rel.value) for c in cons))
    assert check_sat(cons) == gvc.linear._decide(whole) == "unsat"


def _unique_keys(constraints):
    return list(dict.fromkeys((c.terms, c.const, c.rel.value)
                              for c in constraints if c.terms))


def _tightest_bounds(keys):
    # of the "<=" keys on one coefficient vector only the one with the
    # largest constant, the tightest bound, stays
    top = {}
    for terms, const, rel in keys:
        if rel == "<=":
            top[terms] = max(const, top.get(terms, const))
    return [k for k in keys if k[2] != "<=" or k[1] == top[k[0]]]


def _connected_groups(constraints):
    # the components PathCondition keeps, one "<=" key per coefficient vector
    return _groups(_tightest_bounds(_unique_keys(constraints)))


def _groups(keys):
    # the keys grouped by breadth-first search over shared variables
    seen, groups = set(), []
    for start in range(len(keys)):
        if start in seen:
            continue
        seen.add(start)
        group, frontier = [], [start]
        while frontier:
            i = frontier.pop()
            group.append(keys[i])
            names = {v for v, _ in keys[i][0]}
            for j, key in enumerate(keys):
                if j not in seen and names & {v for v, _ in key[0]}:
                    seen.add(j)
                    frontier.append(j)
        groups.append(frozenset(group))
    return set(groups)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 24), min_size=1, max_size=3),
                min_size=1, max_size=30),
       st.randoms(use_true_random=False))
def test_components_match_graph_connectivity(supports, rnd):
    # random supports over %v-style names (which sort by character, not by
    # number) plus a long chain shuffled into them
    chain = list(range(25))
    rnd.shuffle(chain)
    supports = supports + [[a, b] for a, b in zip(chain, chain[1:rnd.randrange(1, 25)])]
    rnd.shuffle(supports)
    cons = [con({f"%v{v}": rnd.choice((-2, -1, 1, 3)) for v in vs}, rnd.randrange(-5, 5))
            for vs in supports]
    got = gvc.linear._components(cons)
    assert got is not None
    assert {frozenset(c) for c in got} == _connected_groups(cons)


def _unreduced_sat(constraints):
    # check_sat's verdict with every key of a component kept: _decide on
    # each connected group of all the unique keys
    if any(not c.terms and not _sat({}, c) for c in constraints):
        return "unsat"
    verdicts = {gvc.linear._decide(tuple(sorted(g))) for g in _groups(_unique_keys(constraints))}
    if "unsat" in verdicts:
        return "unsat"
    return "unknown" if "unknown" in verdicts else "sat"


def _unreduced_entails(premises, goal):
    # _entails' three kinds of query, each decided by _unreduced_sat
    if all(_unreduced_sat(premises + alt) == "unsat"
           for alt in gvc.linear.negate_constraints(goal)):
        return ProofResult.PROVED
    if _unreduced_sat(premises + goal) == "unsat" and _unreduced_sat(premises) == "sat":
        return ProofResult.DISPROVED
    return ProofResult.UNKNOWN


@st.composite
def repeated_vectors(draw):
    # a few coefficient vectors, each used with several constants
    vector = st.dictionaries(st.sampled_from(_VARS), st.sampled_from((-3, -2, -1, 1, 2, 3)),
                             min_size=1, max_size=3)
    vectors = draw(st.lists(vector, min_size=1, max_size=3))

    def one(rels):
        return make_constraint(draw(st.sampled_from(vectors)), draw(st.integers(-12, 12)),
                               draw(st.sampled_from(rels)))

    cons = [one([Rel.LE, Rel.LE, Rel.LE, Rel.EQ, Rel.NE]) for _ in range(draw(st.integers(1, 8)))]
    return cons, [one([Rel.LE, Rel.EQ, Rel.NE])]


@settings(max_examples=200, deadline=None)
@given(repeated_vectors())
def test_tightest_bound_keeps_every_verdict(system):
    # dropping a "<=" bound that a tighter one on the same coefficient
    # vector subsumes changes no satisfiability or entailment verdict
    cons, goal = system
    assert check_sat(PathCondition(cons)) == _unreduced_sat(cons)
    expected = _unreduced_entails(cons, goal)
    assert entails_constraints(cons, goal) is expected
    assert entails_constraints(PathCondition(cons), goal) is expected


def test_elimination_keeps_the_tightest_bound_per_vector(monkeypatch):
    # eliminating x from x + i*y <= 0 (i = 1..10), -x + j*y + z <= 0
    # (j = 0..9) and the unsigned bounds derives over a hundred constraints
    # but only 23 coefficient vectors, (i + j)*y + z among them; keeping the
    # tightest per vector stays under a limit of 30 and decides the system
    monkeypatch.setattr(gvc.linear, "CONSTRAINT_LIMIT", 30)
    cons = [con({"x": 1, "y": i}, 0) for i in range(1, 11)]
    cons += [con({"x": -1, "y": j, "z": 1}, 0) for j in range(10)]
    assert check_sat(cons) == "sat"
    assert check_sat(cons + [con({"y": -1}, 1)]) == "unsat"  # y >= 1 forces x + y > 0


def test_weaker_bound_leaves_the_component_alone():
    # x + y <= 4 after x + y <= 2 keeps the component and its verdict;
    # x + y <= 1 replaces the bound it tightens
    pc = PathCondition([con({"x": 1, "y": 1}, -2), con({"x": 1, "y": -1}, 0, Rel.NE)])
    assert check_sat(pc) == "sat"
    (comp,) = pc._comps.values()
    pc.extend([con({"x": 1, "y": 1}, -4)])
    assert list(pc._comps.values()) == [comp] and comp.verdict == "sat"
    pc.extend([con({"x": 1, "y": 1}, -1)])
    (tighter,) = pc._comps.values()
    assert tighter is not comp and tighter.verdict is None
    assert [k for k in tighter.key if k[2] == "<="] == [((("x", 1), ("y", 1)), -1, "<=")]


def test_memoised_run_agrees_with_fresh_queries(monkeypatch):
    # every check_sat of one n-if verification, entailment queries included,
    # gets the verdict a fresh call without the run's memo gives
    queries = []
    real = gvc.linear.check_sat

    def recording(constraints, memo=None):
        verdict = real(constraints, memo)
        queries.append((_conjunction(constraints), memo is not None, verdict))
        return verdict

    monkeypatch.setattr(gvc.linear, "check_sat", recording)
    monkeypatch.setattr(gvc.verifier, "check_sat", recording)
    program, _ = load_source(nif_source(6))
    verify_program(program)
    monkeypatch.undo()
    assert len(queries) > 64 and all(memoised for _, memoised, _ in queries)
    assert all(check_sat(cons) == verdict for cons, _, verdict in queries)


def _conjunction(constraints):
    """A list of constraints equivalent to a conjunction: those its
    components keep, or one false constraint."""
    keys = gvc.linear._components(constraints)
    if keys is None:
        return [con({}, 1)]
    return [LinearConstraint(terms, const, Rel(rel))
            for key in keys for terms, const, rel in key]


# -- PathCondition: the split kept up to date as constraints are appended ------


def _state(pc):
    """{component key: stored verdict} of a PathCondition."""
    return {comp.key: comp.verdict for comp in pc._comps.values()}


def _unchanged_but_decided(comps_a, comps_b):
    # the same components; a verdict may only have been decided since, and
    # then it is the component's own
    assert comps_a.keys() == comps_b.keys()
    for key, verdict in comps_a.items():
        assert comps_b[key] in ((verdict,) if verdict else (None, gvc.linear._decide(key)))


_PC_VARS = [f"%v{i}" for i in range(7)]


@st.composite
def path_steps(draw):
    def constraint():
        names = draw(st.lists(st.sampled_from(_PC_VARS), min_size=0, max_size=2, unique=True))
        coeffs = {v: draw(st.sampled_from((-2, -1, 1, 2))) for v in names}
        rel = draw(st.sampled_from([Rel.LE, Rel.LE, Rel.LE, Rel.EQ, Rel.NE]))
        return make_constraint(coeffs, draw(st.integers(-6, 6)), rel)

    # a small pool, so that constraints recur within and across steps
    pool = [constraint() for _ in range(draw(st.integers(1, 8)))]
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["extend", "extend", "copy", "check", "entails"]))
        arg = None
        if kind in ("extend", "entails"):
            arg = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        steps.append((kind, draw(st.integers(0, 99)), arg))
    return steps


@settings(max_examples=200, deadline=None)
@given(path_steps())
def test_path_condition_keeps_its_split(steps):
    # random interleavings of extend, copy, check_sat and entailment on a
    # family of path conditions that share components: each keeps the
    # split of its own constraints, and no step on one changes another
    pcs, refs, memo = [PathCondition()], [[]], {}
    for kind, which, arg in steps:
        i = which % len(pcs)
        others = {j: _state(pc) for j, pc in enumerate(pcs) if j != i}
        if kind == "extend":
            pcs[i].extend(arg)
            refs[i] += arg
            for j, before in others.items():
                assert _state(pcs[j]) == before
        elif kind == "copy":
            pcs.append(pcs[i].copy())
            refs.append(list(refs[i]))
        else:
            before = _state(pcs[i])
            if kind == "check":
                assert check_sat(pcs[i], memo) == check_sat(refs[i])
            else:
                stats = ProverStats(memo)
                assert (entails_constraints(pcs[i], arg, stats)
                        is entails_constraints(refs[i], arg))
            _unchanged_but_decided(before, _state(pcs[i]))
            for j, prior in others.items():
                _unchanged_but_decided(prior, _state(pcs[j]))
        for pc, ref in zip(pcs, refs):
            got = gvc.linear._components(pc)
            false = any(not c.terms and not _sat({}, c) for c in ref)
            assert (got is None) == false
            if not false:
                # each component is keyed by the sorted tuple of its unique keys
                assert {tuple(sorted(g)) for g in _connected_groups(ref)} == set(got)


# -- one-variable components: decided from their bounds --------------------


@st.composite
def one_variable_components(draw):
    # c*x + k rel 0 with k placing the atom's boundary near 0 or UINT_MAX,
    # or anywhere; a coefficient need not divide its constant
    def one():
        c = draw(st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]))
        near = draw(st.sampled_from([0, UINT_MAX]))
        k = draw(st.one_of(st.integers(-3, 3).map(lambda d: -c * (near + d) + d % 2),
                           st.integers(-2 * UINT_MAX, 2 * UINT_MAX)))
        rel = draw(st.sampled_from([Rel.LE, Rel.LE, Rel.EQ, Rel.NE, Rel.NE]))
        return LinearConstraint((("x", c),), k, rel)

    cons = [one() for _ in range(draw(st.integers(1, 14)))]
    if draw(st.booleans()) and draw(st.booleans()):
        cons.append(LinearConstraint((("x", 1),), -(COEF_LIMIT + 1), Rel.NE))
    return cons


_HOLES = tuple(LinearConstraint((("x", 1),), -i, Rel.NE) for i in range(SPLIT_BUDGET + 1))


@settings(max_examples=200, deadline=None)
@example([con({"x": 1}, -SPLIT_BUDGET - 1), *_HOLES])  # x <= 9, 9 holes: the give-up
@example([con({"x": 1}, -SPLIT_BUDGET), *_HOLES[:-1]])  # x <= 8, 8 holes: x = 8 is left
@example([con({"x": 1}, -SPLIT_BUDGET + 1), *_HOLES[:-1]])  # x <= 7, covered
@example([con({"x": 3}, -7, Rel.EQ)])  # 3 does not divide 7
# x >= UINT_MAX - 1.5 and x != UINT_MAX: UINT_MAX - 1 is left
@example([con({"x": -2}, 2 * UINT_MAX - 3), con({"x": 1}, -UINT_MAX, Rel.NE)])
@example([con({"x": 1}, -(COEF_LIMIT + 1), Rel.NE), con({"x": 1}, -3)])
@given(one_variable_components())
def test_bounds_decision_matches_elimination(cons):
    # the same verdict on the same key, give-ups included; a constant
    # beyond COEF_LIMIT is handed to elimination
    (key,) = gvc.linear._components(cons)
    verdict = gvc.linear._decide_bounds(key)
    beyond = any(abs(k) > COEF_LIMIT for _, k, _ in key)
    assert (verdict is None) == beyond
    if verdict is not None:
        assert verdict == gvc.linear._eliminate(key)
    assert gvc.linear._decide(key) == gvc.linear._eliminate(key)


def test_one_variable_components_skip_elimination(monkeypatch):
    # every component of an n-if verification names one variable: none
    # reaches _fm, and the report is the one elimination gives
    calls = []
    real = gvc.linear._fm

    def counting(les, var_order):
        calls.append(var_order)
        return real(les, var_order)

    monkeypatch.setattr(gvc.linear, "_fm", counting)
    program, _ = load_source(nif_source(6))
    report = verify_program(program).to_json()
    assert calls == []
    assert json.loads(report)["prover"] == {
        "queries": 63, "proved": 35, "disproved": 0, "unknown": 28}
    monkeypatch.setattr(gvc.linear, "_decide_bounds", lambda component: None)
    assert verify_program(program).to_json() == report
    assert len(calls) == 64
