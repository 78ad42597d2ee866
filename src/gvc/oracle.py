"""Ground-truth dynamic verifier and bounded equivalence enumeration.

The oracle executes un-instrumented programs while checking every
specification obligation at its site: precondition and postcondition atoms,
loop invariants, asserts, arithmetic safety, and access against the declared
permissions with the imprecise lazy-acquisition rules.  It never consults a
verification report or a woven program; the VM and the static pipeline are
validated against it, so it re-implements evaluation on its own.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

from .lang import (
    Acc, Assign, AssertStmt, BinOp, BoolOp, Call, Check, Cmp, If,
    CALL_DEPTH_CAP, IntLit, Name, NotOp, Old, PREDICATE_DEPTH_CAP, PredUse,
    Program, Result, Return, UINT_MAX, While, call_charge, expr_nodes,
)
from .printer import fmt_atom

ALL_HELD = "AllObligationsHeld"
FIRST_VIOLATION = "FirstViolation"

# payload formatters (see _Violation)
_ACC = "acc({})".format
_BINARY = "{} {} {}".format
_METHOD = "{}.{}".format

# the oracle's own operator tables, deliberately not the VM's
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.floordiv, "%": operator.mod}
_REL = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class Site(NamedTuple):
    """Canonical identity of an obligation: what kind of requirement failed
    and the source line it is attributed to."""

    kind: str
    line: int


@dataclass
class TraceJudgment:
    """One transaction's judgment: ALL_HELD with the final `storage`, or
    FIRST_VIOLATION at `site` with a `payload` text that names what failed
    (an atom, an acc(...) slot, the operands of a failing operation).  The
    payload is built from the violation's formatter and arguments each time
    it is read, since most judgments are compared by site alone."""

    tx: object
    verdict: str  # ALL_HELD | FIRST_VIOLATION
    site: Site = None
    storage: dict = None  # final storage when all obligations held
    text: tuple = None  # (formatter, arguments) of a violation's payload

    @property
    def held(self):
        return self.verdict == ALL_HELD

    @property
    def payload(self):
        if self.text is None:
            return None
        fmt, args = self.text
        return fmt(*args)


class _Violation(Exception):
    """The first violated obligation: its `site`, and the formatter and
    arguments of its payload text, which is built only when a
    TraceJudgment's payload is read."""

    def __init__(self, kind, line, fmt, *args):
        self.site = Site(kind, line)
        self.text = (fmt, args)


class _OFrame:
    __slots__ = ("contract", "verified", "imprecise", "caller", "depth", "vars", "old",
                 "result", "borrows")

    def __init__(self, contract, verified, imprecise, caller, depth, vars):
        self.contract = contract
        self.verified = verified
        self.imprecise = imprecise
        self.caller = caller
        self.depth = depth  # call-depth charges of the frames on the stack (see CALL_DEPTH_CAP)
        self.vars = vars
        self.old = None  # the contract's storage at entry, if the ensures reads old(...)
        self.result = None
        self.borrows = []  # (slot, previous holder) for lazy acquisitions


class _Claim(NamedTuple):
    """The holder of a free slot that `frame` takes back at its next use:
    a callee whose imprecise ensures may have promised the slot to `frame`
    released it."""

    frame: object


def _split(formula):
    """(acc atoms, other atoms) of a spec formula, each in formula order."""
    return (tuple(a for a in formula.atoms if type(a) is Acc),
            tuple(a for a in formula.atoms if type(a) is not Acc))


class _Method(NamedTuple):
    """What every call of one method reads from its declaration, prepared
    once per oracle: its split specs, whether its ensures is imprecise, and
    whether its ensures reads old(...), without which a call takes no
    snapshot of its contract's storage."""

    contract: object
    method: object
    verified: bool
    imprecise: bool  # entered with lazy acquisition
    params: tuple
    requires_acc: tuple
    requires: tuple  # the non-acc atoms
    ensures_acc: tuple
    ensures: tuple
    gives_rest: bool  # an imprecise ensures, verified: the caller claims every slot left
    post_line: int
    reads_old: bool


class Oracle:
    """Reference interpreter over a resolved, un-instrumented program."""

    def __init__(self, program: Program, unverified=frozenset()):
        self.methods = {}
        for c in program.contracts:
            verified = c.name not in unverified
            for m in c.methods:
                req, ens = m.spec.requires, m.spec.ensures
                ensures_acc, ensures = _split(ens)
                self.methods[(c.name, m.name)] = _Method(
                    c, m, verified, req.imprecise or not verified,
                    tuple(p for p, _ in m.params), *_split(req), ensures_acc, ensures,
                    ens.imprecise and verified, ens.loc.line,
                    any(type(n) is Old for n in expr_nodes(*ensures)))
        self.zeros = [(c.name, dict.fromkeys(c.globals, 0)) for c in program.contracts]

    def judge(self, storage: dict, tx) -> TraceJudgment:
        """Run one transaction from `storage` (not mutated) and report either
        the final storage or the first violated obligation."""
        self.mem = {name: {**zero, **storage.get(name, {})} for name, zero in self.zeros}
        self.holder = {}
        try:
            self.enter(tx.contract, tx.method, list(tx.args), caller=None, call_line=0)
        except _Violation as v:
            return TraceJudgment(tx, FIRST_VIOLATION, v.site, text=v.text)
        return TraceJudgment(tx, ALL_HELD, storage=self.mem)

    # -- frames --------------------------------------------------------------

    def enter(self, cname, mname, args, caller, call_line, charge=1):
        m = self.methods[(cname, mname)]
        depth = 1 if caller is None else caller.depth + charge
        if depth > CALL_DEPTH_CAP:
            raise _Violation("call-depth", 0, _METHOD, cname, mname)
        fr = _OFrame(m.contract, m.verified, m.imprecise, caller, depth,
                     dict(zip(m.params, args)))
        holder = self.holder

        caller_verified = caller is not None and caller.verified

        # caller-side permission surrender happens at the call site for
        # same-contract calls from verified code
        if caller_verified and caller.contract.name == cname:
            for a in m.requires_acc:
                if not self._holds_or_lazy(caller, cname, a.slot):
                    raise _Violation("access", call_line, _ACC, a.slot)

        for a in m.requires:
            if not self.spec_atom(fr, a):
                raise _Violation("precondition", call_line if caller_verified else a.loc.line,
                                 fmt_atom, a)
        for a in m.requires_acc:
            key = (cname, a.slot)
            h = holder.get(key)
            if h is None or type(h) is _Claim or h is caller:
                holder[key] = fr
            else:
                raise _Violation("access", a.loc.line, _ACC, a.slot)

        if m.reads_old:
            fr.old = dict(self.mem[cname])
        self.block(fr, m.method.body)

        for a in m.ensures:
            if not self.spec_atom(fr, a):
                raise _Violation("postcondition", m.post_line, fmt_atom, a)
        for a in m.ensures_acc:
            if not self._holds_or_lazy(fr, cname, a.slot):
                raise _Violation("access", a.loc.line, _ACC, a.slot)
            if caller is not None:
                holder[(cname, a.slot)] = caller
        if caller is None:  # judge drops the transaction's holdings whole
            return fr.result
        mine = _Claim(fr)
        for slot, prev in reversed(fr.borrows):
            h = holder.get((cname, slot))
            if h is fr or h == mine:  # back to its previous holder
                if prev is None:
                    holder.pop((cname, slot), None)
                else:
                    holder[(cname, slot)] = prev
        # what the frame still holds or claims: an imprecise ensures may
        # have promised it to the caller, who claims it; a precise one did not
        for key, h in list(holder.items()):
            if h is fr or h == mine:
                if m.gives_rest:
                    holder[key] = _Claim(caller)
                else:
                    del holder[key]
        return fr.result

    def _holds_or_lazy(self, fr, cname, slot):
        h = self.holder.get((cname, slot))
        if h is fr:
            return True
        if type(h) is _Claim and h.frame is fr:  # taken back
            self.holder[(cname, slot)] = fr
            return True
        if fr.imprecise and (h is None or type(h) is _Claim
                             or (fr.caller is not None and h is fr.caller)):
            fr.borrows.append((slot, h))
            self.holder[(cname, slot)] = fr
            return True
        return False

    # -- statements ----------------------------------------------------------

    def block(self, fr, body, nest=0):
        """Run `body`, which `nest` if/while bodies enclose; True when it
        ran a return, whose value is then in fr.result."""
        for s in body:
            if self.stmt(fr, s, nest):
                return True
        return False

    def stmt(self, fr, s, nest):
        """Run one statement; True when it ran a return (see block)."""
        t = type(s)  # node classes are never subclassed
        if t is Assign:
            v = self.value(fr, s.expr, s.loc.line)
            if s.target not in fr.contract.globals:
                fr.vars[s.target] = v
            elif self._holds_or_lazy(fr, fr.contract.name, s.target):
                self.mem[fr.contract.name][s.target] = v
            else:
                raise _Violation("access", s.loc.line, str, s.target)
        elif t is If:
            taken = self.truth(fr, s.cond, s.loc.line)
            return self.block(fr, s.then if taken else s.orelse, nest + 1)
        elif t is While:
            line = s.loc.line
            while True:
                taken = self.truth(fr, s.cond, line)
                for a in s.invariant.atoms:
                    if type(a) is Acc:
                        if not self._holds_or_lazy(fr, fr.contract.name, a.slot):
                            raise _Violation("access", line, _ACC, a.slot)
                    elif not self.spec_atom(fr, a):
                        raise _Violation("loop-invariant", line, fmt_atom, a)
                if not taken:
                    break
                if self.block(fr, s.body, nest + 1):
                    return True
        elif t is Call:
            args = [self.value(fr, a, s.loc.line) for a in s.args]
            ret = self.enter(s.contract, s.method, args, fr, s.loc.line, call_charge(nest))
            if s.target is not None:
                fr.vars[s.target] = ret
        elif t is Return:
            fr.result = self.value(fr, s.expr, s.loc.line) if s.expr is not None else None
            return True
        elif t is AssertStmt:
            for a in s.formula.atoms:
                if type(a) is Acc:
                    if not self._holds_or_lazy(fr, fr.contract.name, a.slot):
                        raise _Violation("access", s.loc.line, _ACC, a.slot)
                elif not self.spec_atom(fr, a):
                    raise _Violation("assert", s.loc.line, fmt_atom, a)
        elif t is not Check:  # a check is instrumentation, not source semantics
            raise TypeError(f"not a statement: {s!r}")
        return False

    # -- program expressions (checked uint64) --------------------------------

    def value(self, fr, e, line):
        t = type(e)
        if t is IntLit:
            return e.value
        if t is Name:
            name = e.name
            if name in fr.vars:
                return fr.vars[name]
            cname = fr.contract.name
            # a global the frame holds needs no ownership test
            if self.holder.get((cname, name)) is not fr \
                    and not self._holds_or_lazy(fr, cname, name):
                raise _Violation("access", e.loc.line, str, name)
            return self.mem[cname][name]
        if t is BinOp:
            l = self.value(fr, e.left, line)
            r = self.value(fr, e.right, line)
            if e.op == "-" and l < r:
                raise _Violation("underflow", line, _BINARY, l, "-", r)
            if (e.op == "+" and l + r > UINT_MAX) or (e.op == "*" and l * r > UINT_MAX):
                raise _Violation("overflow", line, _BINARY, l, e.op, r)
            if e.op in "/%" and r == 0:
                raise _Violation("div-zero", line, _BINARY, l, e.op, 0)
            return _ARITH[e.op](l, r)
        raise TypeError(f"not a runtime expression: {e!r}")

    def truth(self, fr, c, line):
        # strict: every leaf is evaluated, obligations included
        t = type(c)
        if t is Cmp:
            return _REL[c.op](self.value(fr, c.left, line), self.value(fr, c.right, line))
        if t is BoolOp:
            parts = [self.truth(fr, p, line) for p in c.parts]
            return all(parts) if c.op == "and" else any(parts)
        if t is NotOp:
            return not self.truth(fr, c.operand, line)
        raise TypeError(f"not a condition: {c!r}")

    # -- specification atoms (mathematical integers) -------------------------

    def spec_value(self, fr, e):
        t = type(e)
        if t is IntLit:
            return e.value
        if t is Name:
            if e.name in fr.vars:
                return fr.vars[e.name]
            return self.mem[fr.contract.name][e.name]
        if t is Old:
            return fr.old[e.slot]
        if t is Result:
            return fr.result if fr.result is not None else 0
        if t is BinOp:
            l, r = self.spec_value(fr, e.left), self.spec_value(fr, e.right)
            if e.op in "/%" and r == 0:
                raise _Violation("div-zero", e.loc.line, str, "division by zero in spec")
            return _ARITH[e.op](l, r)
        raise TypeError(f"not a spec expression: {e!r}")

    def spec_atom(self, fr, atom):
        """Truth of a comparison or predicate-instance atom in frame `fr`.
        Every predicate body under evaluation is a suspended generator on an
        explicit stack, so recursion stops at PREDICATE_DEPTH_CAP and never
        at the Python stack."""
        if type(atom) is Cmp:  # no predicate instance: no stack needed
            return _REL[atom.op](self.spec_value(fr, atom.left), self.spec_value(fr, atom.right))
        stack, truth = [self._body(fr, atom)], None
        while stack:
            try:
                name, args = stack[-1].send(truth)
            except StopIteration as ret:
                stack.pop()
                truth = ret.value
                continue
            if len(stack) > PREDICATE_DEPTH_CAP:
                raise _Violation("predicate-depth", 0, str, name)
            decl = fr.contract.predicate(name)
            # a frame whose variables are the parameters: other names are the
            # contract's globals
            callee = _OFrame(fr.contract, True, False, None, 1, dict(zip(decl.params, args)))
            stack.append(self._body(callee, decl.body))
            truth = None
        return truth

    def _body(self, fr, node):
        """Generator over an and/or/not tree: yields (name, args) per
        predicate instance, is sent back its truth, returns the tree's."""
        t = type(node)
        if t is Cmp:
            return self.spec_atom(fr, node)
        if t is PredUse:
            return (yield node.name, [self.spec_value(fr, x) for x in node.args])
        if t is BoolOp:
            for p in node.parts:
                part = yield from self._body(fr, p)
                if part != (node.op == "and"):
                    return part
            return node.op == "and"
        if t is NotOp:
            return not (yield from self._body(fr, node.operand))
        raise TypeError(f"not a predicate body node: {node!r}")


# ---------------------------------------------------------------------------
# Equivalence enumeration


def vm_site(outcome, sidecar):
    """Canonical obligation identity of a VM revert, for comparison with the
    oracle's FirstViolation site: the `sidecar` (weaver.check_map) record
    of a woven check id, else the site kind and line the revert's detail names."""
    d = outcome.detail
    rec = sidecar.get(d.get("check_id"))
    if rec is not None:
        return Site(rec["kind"], rec["line"])
    return Site(d.get("kind", "check"), d.get("line", 0))


def enumerate_equivalence(program: Program, woven, bound: int = 8,
                          adversaries: dict = None) -> dict:
    """Exhaustively compare the instrumented VM against the oracle on every
    initial storage and argument vector in [0, bound]^n, one transaction per
    case.  Returns {"cases": n, "disagreements": [...]}.  One VM runs every
    case on one ledger: before each, every slot of every contract, an
    adversary's own included, is reset to 0 and the case's values written."""
    from .vm import Ledger, Vm, load_program, transaction_grid, with_own_contracts

    image = load_program(woven, adversaries)
    # the oracle judges the un-woven source contracts
    oracle = Oracle(with_own_contracts(image.program, program), image.unverified)
    # raises VmUsageError, as a case would, on a grid slot the image lacks
    ledger = Ledger(image.program, {c.name: dict.fromkeys(c.globals, 0)
                                    for c in program.contracts if c.globals})
    vm = Vm(image, ledger)
    zeros = [(slots, dict.fromkeys(slots, 0)) for slots in ledger.slots.values()]

    cases = 0
    disagreements = []
    for c, m, init, tx in transaction_grid(program, bound):
        cases += 1
        for slots, zero in zeros:
            slots.update(zero)
        for cname, values in init.items():
            ledger.slots[cname].update(values)
        out = vm.exec_transaction(tx, gas_limit=None)
        judgment = oracle.judge(init, tx)
        if not _agree(out, judgment, ledger, image.checks):
            disagreements.append({
                "initial_state": init,
                "method": f"{c.name}.{m.name}",
                "args": list(tx.args),
                "vm_outcome": _vm_desc(out, image.checks),
                "oracle_verdict": _oracle_desc(judgment),
            })
    return {"cases": cases, "disagreements": disagreements}


def _agree(out, judgment, ledger, checks):
    if out.committed and judgment.held:
        return ledger.slots == judgment.storage
    if out.committed or judgment.held:
        return False
    return vm_site(out, checks) == judgment.site


def _vm_desc(out, checks):
    d = out.as_dict()
    if not out.committed:
        s = vm_site(out, checks)
        d["site"] = {"kind": s.kind, "line": s.line}
    return d


def _oracle_desc(j):
    if j.held:
        return {"verdict": ALL_HELD}
    return {"verdict": FIRST_VIOLATION, "kind": j.site.kind,
            "line": j.site.line, "payload": j.payload}
