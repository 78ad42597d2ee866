"""Optimistic symbolic execution of methods against their specifications.

Each method is executed over a symbolic state (store, symbolic heap of
owned slots, path condition).  Obligations are discharged through the
linear prover; where proof fails but imprecision permits optimism, a residual
run-time check is recorded instead.  A precise state admits no optimism: an
unprovable obligation is a static error.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .lang import (
    Acc, Assign, AssertStmt, BinOp, BoolOp, Call, Check, Cmp, Contract,
    Formula, If, IntLit, Method, Name, NotOp, Old, PredUse, Program, Result,
    Return, SourceLoc, While, assigned_names, bool_leaves,
)
from .linear import (
    LinExpr, NONLINEAR, PathCondition, ProofResult, ProverStats, check_sat,
    cmp_constraints, constraints_for_cmp, entails_constraints, linearize,
)
from .printer import fmt_atom, pretty_print

DNF_LIMIT = 64


class Status(enum.Enum):
    VERIFIED = "verified"
    VERIFIED_WITH_RESIDUALS = "verified-with-residuals"
    STATIC_ERROR = "static-error"


@dataclass(frozen=True)
class Obligation:
    atom: object  # source-level payload atom
    loc: SourceLoc
    kind: str  # precondition | postcondition | loop-invariant | underflow | div-zero | assert | access


class Insertion(NamedTuple):
    """Where a residual check goes: before statement `index` of the block at
    `block_path`, or at the method's exit.  A tuple, built for every
    statement executed (see `lang`); its `index` field shadows
    `tuple.index`."""

    kind: str  # "before" | "exit"
    block_path: tuple = ()
    index: int = 0

    def sort_key(self):
        if self.kind == "before":
            return (0, self.block_path, self.index)
        return (1, (), 0)

    def as_dict(self):
        if self.kind == "before":
            return {"kind": "before", "path": list(self.block_path), "index": self.index}
        return {"kind": self.kind}


@dataclass
class ResidualCheck:
    id: str
    obligation: Obligation  # its atom is the check's payload
    insertion: Insertion

    @property
    def payload_text(self):
        return fmt_atom(self.obligation.atom)


@dataclass
class MethodReport:
    contract: str
    name: str
    status: Status
    residuals: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)  # (Obligation|None, reason str)
    warnings: list = field(default_factory=list)

    def as_dict(self):
        return {
            "contract": self.contract,
            "name": self.name,
            "status": self.status.value,
            "residuals": [
                {
                    "id": r.id,
                    "kind": r.obligation.kind,
                    "payload_text": r.payload_text,
                    "line": r.obligation.loc.line,
                    "col": r.obligation.loc.col,
                    "insertion": r.insertion.as_dict(),
                }
                for r in self.residuals
            ],
            "diagnostics": [
                {"reason": reason, "kind": ob.kind if ob else None,
                 "payload": fmt_atom(ob.atom) if ob else None,
                 "line": ob.loc.line if ob else 0}
                for ob, reason in self.diagnostics
            ],
            "warnings": list(self.warnings),
        }


@dataclass
class VerificationReport:
    methods: list
    digest: str
    prover: ProverStats

    def method(self, contract, name):
        for m in self.methods:
            if m.contract == contract and m.name == name:
                return m
        return None

    @property
    def has_static_error(self):
        return any(m.status is Status.STATIC_ERROR for m in self.methods)

    def all_residuals(self):
        for m in self.methods:
            yield from m.residuals

    def as_dict(self):
        return {
            "digest": self.digest,
            "methods": [m.as_dict() for m in self.methods],
            "prover": self.prover.as_dict(),
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def program_digest(program: Program) -> str:
    return hashlib.sha256(pretty_print(program).encode()).hexdigest()


class StaticErrorExc(Exception):
    def __init__(self, obligation, reason):
        super().__init__(f"{reason}: {fmt_atom(obligation.atom)} at {obligation.loc}")
        self.obligation = obligation
        self.reason = reason


class SymState:
    def __init__(self):
        self.store = {}
        self.heap = {}  # owned slot -> its symbolic value
        self.path = PathCondition()
        self.imprecise = False
        self.facts = frozenset()  # produced predicate instances; replaced, never mutated

    def clone(self):
        s = SymState.__new__(SymState)
        s.store = dict(self.store)
        s.heap = dict(self.heap)
        s.path = self.path.copy()
        s.imprecise = self.imprecise
        s.facts = self.facts
        return s


class Scope(NamedTuple):
    """What the names of one spec evaluation mean: `names` maps locals and
    parameters to their values, `old` maps a slot to the value of old(slot),
    and `result` is the value of `result` (None when there is none)."""

    names: dict
    old: dict
    result: object = None


_NEG_OP = {"==": "!=", "!=": "==", "<=": ">", ">": "<=", "<": ">=", ">=": "<"}


class MethodVerifier:
    def __init__(self, program: Program, contract: Contract, method: Method, stats: ProverStats):
        self.program = program
        self.contract = contract
        self.method = method
        self.stats = stats
        self._fresh_n = 0
        self.residuals = {}  # dedupe key -> ResidualCheck (order-preserving)
        self.warnings = []
        self.exits = []  # (state, result LinExpr or None)
        self.old = {}  # the heap at entry, once the requires is produced

    # -- plumbing -----------------------------------------------------------

    def fresh(self, hint="v"):
        self._fresh_n += 1
        return LinExpr.of(f"%{hint}{self._fresh_n}")

    # -- expression evaluation ----------------------------------------------

    def read_global(self, state, slot, loc, insertion):
        if slot not in state.heap:
            self.discharge(state, Obligation(Acc(slot, loc), loc, "access"), NONLINEAR, insertion)
            state.heap[slot] = self.fresh(slot)
        return state.heap[slot]

    def eval_expr(self, state, e, loc, insertion):
        """Symbolic value of e; emits underflow / div-zero obligations."""
        if isinstance(e, IntLit):
            return LinExpr.lit(e.value)
        if isinstance(e, Name):
            if e.name in self.contract.globals:
                return self.read_global(state, e.name, e.loc, insertion)
            return state.store[e.name]
        if isinstance(e, BinOp):
            l = self.eval_expr(state, e.left, loc, insertion)
            r = self.eval_expr(state, e.right, loc, insertion)
            if e.op == "+":
                return l.add(r)
            if e.op == "-":
                ob = Obligation(Cmp(">=", e.left, e.right, e.loc), loc, "underflow")
                self.discharge(state, ob, constraints_for_cmp(">=", l, r), insertion)
                return l.sub(r)
            if e.op == "*":
                if l.is_const:
                    return r.scale(l.const)
                if r.is_const:
                    return l.scale(r.const)
                return self.fresh("mul")
            # "/" or "%"
            ob = Obligation(Cmp("!=", e.right, IntLit(0), e.loc), loc, "div-zero")
            self.discharge(state, ob, constraints_for_cmp("!=", r, LinExpr.lit(0)), insertion)
            if l.is_const and r.is_const and r.const != 0:
                return LinExpr.lit(l.const // r.const if e.op == "/" else l.const % r.const)
            out = self.fresh("div" if e.op == "/" else "mod")
            # floor semantics bounds (divisor >= 1 after the check): q <= numerator,
            # remainder <= divisor - 1
            if e.op == "/":
                state.path.extend(constraints_for_cmp("<=", out, l))
            else:
                state.path.extend(constraints_for_cmp("<=", out, r.sub(LinExpr.lit(1))))
                state.path.extend(constraints_for_cmp("<=", out, l))
            return out
        raise TypeError(f"not an expression: {e!r}")

    # -- obligations ----------------------------------------------------------

    def discharge(self, state, obligation, constraints, insertion):
        """The gradual rule for one obligation, whose constraints are
        NONLINEAR when the prover cannot read it (an access, a predicate
        instance, a non-linear comparison).  A proved obligation needs
        nothing.  In a precise state an unproved one is a static error,
        `violated` if the prover disproved it.  Imprecision turns it into a
        residual run-time check at `insertion`, and its constraints hold
        from here on: the woven check reports the true error on whichever
        paths are real."""
        result = ProofResult.UNKNOWN
        if constraints is not NONLINEAR:
            result = entails_constraints(state.path, constraints, self.stats)
            if result is ProofResult.PROVED:
                return
        if not state.imprecise:
            reason = "violated" if result is ProofResult.DISPROVED else "unprovable"
            raise StaticErrorExc(obligation, reason)
        key = (insertion.kind, insertion.block_path, insertion.index,
               obligation.kind, fmt_atom(obligation.atom))
        if key not in self.residuals:
            self.residuals[key] = ResidualCheck("?", obligation, insertion)
        if constraints is not NONLINEAR:
            state.path.extend(constraints)

    # -- formulas -------------------------------------------------------------

    def _spec_leaf(self, scope, reads):
        """Leaf values for spec atoms, which are checked, not executed: no
        obligations are emitted.  A global reads `reads`, the evaluation's
        copy of the heap, where an unheld one becomes one fresh symbol at its
        first read; other names read `scope`.  An old(G) the scope has no
        value for becomes one fresh symbol, stored in the scope's `old` map,
        so every old(G) of one method, or of one call, names one value; a
        result the scope has no value for is a fresh symbol."""
        gnames = self.contract.globals

        def leaf(e):
            if isinstance(e, Name):
                if e.name in gnames:
                    v = reads.get(e.name)
                    if v is None:
                        v = reads[e.name] = self.fresh(e.name)
                    return v
                return scope.names[e.name]
            if isinstance(e, Old):
                v = scope.old.get(e.slot)
                if v is None:
                    v = scope.old[e.slot] = self.fresh(f"old_{e.slot}")
                return v
            if isinstance(e, Result):
                return scope.result if scope.result is not None else self.fresh("result")
            raise TypeError(f"not an expression: {e!r}")

        return leaf

    def _instance(self, atom, leaf, reads):
        """A predicate instance with its arguments linearized once by `leaf`:
        its fact key (name, argument values) and its body's conjuncts, each
        paired with its constraints (NONLINEAR unless a linear comparison, so
        recursive occurrences stay opaque).  Both are None when an argument
        is non-linear; the conjuncts are None when the body is not a
        conjunction."""
        args = []
        for a in atom.args:
            v = linearize(a, leaf)
            if v is NONLINEAR:
                return None, None
            args.append(v)
        pred = self.contract.predicate(atom.name)
        conj = _flatten_conj(pred.body)
        if conj is not None:
            body_leaf = self._spec_leaf(Scope(dict(zip(pred.params, args)), {}), reads)
            conj = [(part, cmp_constraints(part.op, part.left, part.right, body_leaf)
                     if isinstance(part, Cmp) else NONLINEAR) for part in conj]
        return (atom.name, tuple(args)), conj

    def _own_scope(self, state, result=None):
        """The scope of the method's own specs in `state`."""
        return Scope(state.store, self.old, result)

    def produce(self, state, f: Formula, scope):
        """Assume a formula: grant its permissions (one already held is
        kept) and extend the path with what its value atoms say."""
        if f.imprecise:
            state.imprecise = True
        for atom in f.atoms:
            if isinstance(atom, Acc) and atom.slot not in state.heap:
                state.heap[atom.slot] = self.fresh(atom.slot)
        reads = dict(state.heap)
        leaf = self._spec_leaf(scope, reads)
        for atom in f.atoms:
            if isinstance(atom, Acc):
                continue
            if isinstance(atom, Cmp):
                cons = cmp_constraints(atom.op, atom.left, atom.right, leaf)
                if cons is not NONLINEAR:
                    state.path.extend(cons)
                continue
            key, conj = self._instance(atom, leaf, reads)
            if key is not None:
                state.facts = state.facts | {key}
            for _, cons in conj or ():
                if cons is not NONLINEAR:
                    state.path.extend(cons)

    def consume(self, state, f: Formula, loc, insertion, kind, scope, payload_subst=None):
        """Assert a formula against the state (mutated), removing
        surrendered permissions."""
        reads = dict(state.heap)  # value atoms evaluate in the pre-state
        leaf = self._spec_leaf(scope, reads)
        for atom in f.atoms:
            if isinstance(atom, Acc):
                if atom.slot in state.heap:
                    del state.heap[atom.slot]
                else:
                    self.discharge(state, Obligation(atom, loc, "access"), NONLINEAR, insertion)
                continue
            ob = Obligation(_subst_atom(atom, payload_subst) if payload_subst else atom, loc, kind)
            if isinstance(atom, Cmp):
                self.discharge(state, ob, cmp_constraints(atom.op, atom.left, atom.right, leaf),
                               insertion)
                continue
            # a predicate instance: a fact the state holds, or proved by one
            # unfold of a body of comparisons, each proved in turn
            key, conj = self._instance(atom, leaf, reads)
            if key is not None and key in state.facts:
                state.facts = state.facts - {key}
            elif conj is None or not all(isinstance(part, Cmp) for part, _ in conj) or not all(
                    cons is not NONLINEAR
                    and entails_constraints(state.path, cons, self.stats) is ProofResult.PROVED
                    for _, cons in conj):
                self.discharge(state, ob, NONLINEAR, insertion)
        if f.imprecise:
            state.imprecise = True

    # -- conditions -----------------------------------------------------------

    def cond_alternatives(self, state, cond, negate=False):
        """DNF alternatives (lists of constraints) for the condition holding
        (or its negation).  Leaf expressions are evaluated in `state`;
        obligations from their arithmetic must be emitted separately."""

        def value(name):
            # an unowned global makes the comparison opaque
            if name.name in self.contract.globals:
                return state.heap.get(name.name, NONLINEAR)
            return state.store[name.name]

        def leaf(c, neg):
            cons = cmp_constraints(_NEG_OP[c.op] if neg else c.op, c.left, c.right, value)
            return [[]] if cons is NONLINEAR else [cons]

        return _dnf(cond, negate, leaf)

    def eval_cond_obligations(self, state, cond, loc, insertion):
        for leaf in bool_leaves(cond):
            self.eval_expr(state, leaf.left, loc, insertion)
            self.eval_expr(state, leaf.right, loc, insertion)

    def branches(self, state, cond, negate=False, last=False):
        """One clone of `state` per satisfiable DNF alternative of the
        condition (or its negation), its path extended by the alternative.
        With `last` the caller drops `state` after this, so the last
        alternative takes `state` itself instead of a clone."""
        alts = self.cond_alternatives(state, cond, negate)
        for i, alt in enumerate(alts):
            st = state if last and i == len(alts) - 1 else state.clone()
            st.path.extend(alt)
            if check_sat(st.path, self.stats.memo) != "unsat":
                yield st

    # -- statements -----------------------------------------------------------

    def exec_block(self, states, body, path):
        for i, s in enumerate(body):
            nxt = []
            for st in states:
                nxt.extend(self.exec_stmt(st, s, path, i))
            states = nxt
            if not states:
                break
        return states

    def exec_stmt(self, state, s, path, index):
        before = Insertion("before", path, index)
        if isinstance(s, Assign):
            v = self.eval_expr(state, s.expr, s.loc, before)
            if s.target not in self.contract.globals:
                state.store[s.target] = v
                return [state]
            if s.target not in state.heap:
                self.discharge(state, Obligation(Acc(s.target, s.loc), s.loc, "access"),
                               NONLINEAR, before)
            state.heap[s.target] = v
            self._invalidate_facts(state)
            return [state]
        if isinstance(s, If):
            self.eval_cond_obligations(state, s.cond, s.loc, before)
            out = []
            for st in self.branches(state, s.cond):
                out.extend(self.exec_block([st], s.then, path + (index, "then")))
            for st in self.branches(state, s.cond, negate=True, last=True):
                out.extend(self.exec_block([st], s.orelse, path + (index, "else")))
            return out
        if isinstance(s, While):
            return self.exec_while(state, s, path, index, before)
        if isinstance(s, Call):
            return self.exec_call(state, s, before)
        if isinstance(s, Return):
            result = None
            if s.expr is not None:
                result = self.eval_expr(state, s.expr, s.loc, before)
            self.exits.append((state, result))
            return []
        if isinstance(s, AssertStmt):
            self.consume(state, s.formula, s.loc, before, "assert", self._own_scope(state))
            return [state]
        if isinstance(s, Check):
            # a run that gets past a woven check has passed it
            self.produce(state, Formula(atoms=(s.payload,)), self._own_scope(state))
            return [state]
        raise TypeError(f"not a statement: {s!r}")

    def exec_while(self, state, s: While, path, index, before):
        inv = s.invariant
        self.eval_cond_obligations(state, s.cond, s.loc, before)
        self.consume(state, inv, s.loc, before, "loop-invariant", self._own_scope(state))
        # havoc loop-modified locals, then owned written globals
        written, gnames = sorted(assigned_names(s.body)), self.contract.globals
        for name in written:
            if name not in gnames:
                state.store[name] = self.fresh(name)
        for name in written:
            if name in gnames and name in state.heap:
                state.heap[name] = self.fresh(name)
        self._invalidate_facts(state)
        # the loop head: the invariant holds, and the condition sees the
        # globals it grants
        self.produce(state, inv, self._own_scope(state))
        body_path = path + (index, "body")
        end_insertion = Insertion("before", body_path, len(s.body))
        # one symbolic body pass: invariant /\ condition
        for st in self.branches(state, s.cond):
            for exit_st in self.exec_block([st], s.body, body_path):
                self.eval_cond_obligations(exit_st, s.cond, s.loc, end_insertion)
                self.consume(exit_st, inv, s.loc, end_insertion, "loop-invariant",
                             self._own_scope(exit_st))
        # after the loop: invariant /\ not condition
        return list(self.branches(state, s.cond, negate=True, last=True))

    def exec_call(self, state, s: Call, before):
        callee_c = self.program.contract(s.contract)
        callee_m = callee_c.method(s.method)
        arg_vals = [self.eval_expr(state, a, s.loc, before) for a in s.args]
        requires, ensures = callee_m.spec.requires, callee_m.spec.ensures
        if callee_c.name != self.contract.name:
            # a foreign callee guards its own boundary at run time; the caller
            # reasons only about its own contract's specs
            requires, ensures = Formula(requires.imprecise), Formula(ensures.imprecise)
        params = {p: v for (p, _), v in zip(callee_m.params, arg_vals)}
        payload_subst = {p: a for (p, _), a in zip(callee_m.params, s.args)}
        # the callee's old(G) is G's value at the call
        pre_call = dict(state.heap)
        self.consume(state, requires, s.loc, before, "precondition",
                     Scope(params, pre_call), payload_subst)
        # a frame takes a slot only when it is free or its direct caller's
        # (Vm._hold and _acquire; the oracle's _holds_or_lazy), so only a
        # same-contract callee entered imprecisely can change a held slot;
        # any other callee, and what re-enters through it, leaves them be
        if callee_c.name == self.contract.name and requires.imprecise:
            for slot in list(state.heap):
                state.heap[slot] = self.fresh(slot)
        # a kept fact may still name a slot the callee took and wrote
        self._invalidate_facts(state)
        result = self.fresh("ret") if s.target is not None else None
        self.produce(state, ensures, Scope(params, pre_call, result))
        if result is not None:
            state.store[s.target] = result
        return [state]

    def _invalidate_facts(self, state):
        # predicate facts may read global state; drop them on any heap change
        if state.facts:
            pred_reads = self.contract.predicate_reads
            state.facts = frozenset(f for f in state.facts if not pred_reads.get(f[0]))

    # -- top level ------------------------------------------------------------

    def run(self):
        m = self.method
        report = MethodReport(self.contract.name, m.name, Status.VERIFIED,
                              warnings=self.warnings)
        state = SymState()
        for p, _ in m.params:
            state.store[p] = self.fresh(p)
        try:
            self.produce(state, m.spec.requires, self._own_scope(state))
            self.old = dict(state.heap)
            if check_sat(state.path, self.stats.memo) == "unsat":
                self.warnings.append(
                    f"precondition of {m.name} is unsatisfiable; the method verifies vacuously")
                return report
            falls = self.exec_block([state], m.body, ())
            for st in falls:
                self.exits.append((st, None))
            # a run that returns has passed the method's woven exit rows
            rows = Formula(atoms=tuple(r.payload for r in m.exits))
            for st, result in self.exits:
                scope = self._own_scope(st, result)
                self.produce(st, rows, scope)
                self.consume(st, m.spec.ensures, m.spec.ensures.loc,
                             Insertion("exit"), "postcondition", scope)
        except StaticErrorExc as e:
            report.status = Status.STATIC_ERROR
            report.diagnostics.append((e.obligation, e.reason))
            return report
        # ties at one insertion point keep discovery order, which follows
        # evaluation order (e.g. argument obligations before the callee's
        # precondition at a call site)
        ordered = [r for _, r in sorted(
            enumerate(self.residuals.values()),
            key=lambda item: item[1].insertion.sort_key() + (item[0],))]
        report.residuals = ordered
        report.status = Status.VERIFIED_WITH_RESIDUALS if ordered else Status.VERIFIED
        return report


def _dnf(node, neg, leaf):
    """DNF alternatives of an and/or/not tree, or of its negation when `neg`:
    lists of what `leaf(comparison, neg)` gives, [[]] (no information) past
    DNF_LIMIT alternatives.  A module function, not a closure over the
    caller's state: a recursive closure is a reference cycle, which would
    keep that state alive until the cyclic collector runs."""
    if isinstance(node, NotOp):
        return _dnf(node.operand, not neg, leaf)
    if isinstance(node, BoolOp):
        conj = (node.op == "and") != neg
        kids = [_dnf(p, neg, leaf) for p in node.parts]
        if conj:
            outs = [[]]
            for alts in kids:
                outs = [a + b for a in outs for b in alts]
                if len(outs) > DNF_LIMIT:
                    return [[]]
            return outs
        outs = []
        for alts in kids:
            outs.extend(alts)
        if len(outs) > DNF_LIMIT:
            return [[]]
        return outs
    return leaf(node, neg)


def _flatten_conj(node):
    """Flatten an and-tree into its parts; None if it contains or/not."""
    if isinstance(node, BoolOp):
        if node.op != "and":
            return None
        out = []
        for p in node.parts:
            sub = _flatten_conj(p)
            if sub is None:
                return None
            out.extend(sub)
        return out
    if isinstance(node, NotOp):
        return None
    return [node]


def _subst_expr(e, subst):
    if isinstance(e, Name) and e.name in subst:
        return subst[e.name]
    if isinstance(e, BinOp):
        return BinOp(e.op, _subst_expr(e.left, subst), _subst_expr(e.right, subst), e.loc)
    return e


def _subst_atom(atom, subst):
    if isinstance(atom, Cmp):
        return Cmp(atom.op, _subst_expr(atom.left, subst), _subst_expr(atom.right, subst), atom.loc)
    if isinstance(atom, PredUse):
        return PredUse(atom.name, tuple(_subst_expr(a, subst) for a in atom.args), atom.loc)
    return atom


# ---------------------------------------------------------------------------
# Public operations


def verify_program(program: Program, memo: dict = None) -> VerificationReport:
    """Verify every method of the program's own contracts.  `memo` holds
    component verdicts (see linear.check_sat) to share with other runs; by
    default the run has a fresh one, dropped when it returns."""
    stats = ProverStats(memo)
    reports = []
    counter = 0
    for c in program.contracts:
        if c.extern:
            continue
        for m in c.methods:
            rep = MethodVerifier(program, c, m, stats).run()
            for r in rep.residuals:
                r.id = f"c{counter}"
                counter += 1
            reports.append(rep)
    stats.memo = None  # the report keeps no verdicts
    return VerificationReport(reports, program_digest(program), stats)
