"""Deterministic ledger VM for instrumented contracts.

Executes transactions over persistent per-contract storage with dynamic
permission ownership, boundary checking against callers from other
contracts, woven run-time checks, gas metering, and rollback of every write
on any failure.

`load_program` compiles each method body once into Python closures (closure
generation, after Feeley and Lapalme, "Using Closures for Code Generation",
1987): every statement, program-level expression and condition becomes a
function of the running Frame, with the source line a revert reports fixed
at compile time.  One image serves every Vm made from it, so compiled code
reaches the ledger, the permission table, the gas meter and the Vm only
through the frame it is handed.

Program arithmetic is checked uint64 (underflow/overflow/division by zero
revert as ArithmeticPanic when no woven check preempts them).  Specification
payloads (checks, boundary atoms, predicates) evaluate over mathematical
integers: a guard check that fails simply reverts before the guarded
operation runs.  Conditions are strict: both operands of and/or are
evaluated.
"""

from __future__ import annotations

import copy
import itertools
import json
import operator
from dataclasses import dataclass, field, replace

from .lang import (
    Acc, Assign, AssertStmt, BinOp, BoolOp, CALL_DEPTH_CAP, Call, Check, Cmp,
    Contract, call_charge, If, IntLit, Method, Name, NotOp, Old, PredUse,
    PREDICATE_DEPTH_CAP, Program, Result, Return, UINT_MAX, While,
)
from .frontend import infer_types, resolve
from .parser import parse_program
from .lexer import lex
from .printer import fmt_atom
from .weaver import InstrumentedProgram, build_boundary_table

CHECK_FAILURE = "CheckFailure"
OWNERSHIP_FAILURE = "OwnershipFailure"
ARITHMETIC_PANIC = "ArithmeticPanic"
GAS_EXHAUSTED = "GasExhausted"
PREDICATE_DEPTH = "PredicateDepthExceeded"
CALL_DEPTH = "CallDepthExceeded"

_RELATIONS = {"==": operator.eq, "!=": operator.ne, "<=": operator.le,
             "<": operator.lt, ">=": operator.ge, ">": operator.gt}


class VmLoadError(Exception):
    pass


class VmUsageError(Exception):
    pass


class Revert(Exception):
    def __init__(self, reason, **detail):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class Transaction:
    contract: str
    method: str
    args: tuple = ()


@dataclass
class Outcome:
    status: str  # "committed" | "reverted"
    exec_gas: int
    check_gas: int
    reason: str = None
    detail: dict = field(default_factory=dict)

    @property
    def committed(self):
        return self.status == "committed"

    def as_dict(self):
        d = {"outcome": self.status, "exec_gas": self.exec_gas, "check_gas": self.check_gas}
        if self.status == "reverted":
            d["revert_reason"] = self.reason
            if self.detail.get("check_id"):
                d["check_id"] = self.detail["check_id"]
        return d


class Ledger:
    def __init__(self, program: Program, init: dict = None):
        """Every global of `program` at 0, overridden by `init`
        ({contract: {slot: value}}).  Raises VmUsageError on an unknown
        contract or slot and on a value that is not an integer in
        [0, UINT_MAX]."""
        self.slots = {c.name: {g: 0 for g in c.globals} for c in program.contracts}
        self.journal = None  # (contract, slot, old value) per write of the open transaction
        init = {} if init is None else init
        if not isinstance(init, dict):
            raise VmUsageError("expected {contract: {slot: value}}")
        for cname, slots in init.items():
            known = self.slots.get(cname)
            if known is None:
                raise VmUsageError(f"unknown contract {cname!r}")
            if not isinstance(slots, dict):
                raise VmUsageError(f"expected {{slot: value}} for {cname}")
            for slot, val in slots.items():
                if slot not in known:
                    raise VmUsageError(f"unknown slot {cname}.{slot}")
                if type(val) is not int or not 0 <= val <= UINT_MAX:
                    raise VmUsageError(f"{cname}.{slot} = {val!r} is not a uint64")
                known[slot] = val

    def snapshot(self):
        return copy.deepcopy(self.slots)

    def restore(self, snap):
        self.slots = copy.deepcopy(snap)

    def read(self, contract, slot):
        return self.slots[contract][slot]

    def write(self, contract, slot, value):
        slots = self.slots[contract]
        if self.journal is not None:
            self.journal.append((contract, slot, slots[slot]))
        slots[slot] = value

    def begin(self):
        """Open a transaction: journal every write until `end`."""
        self.journal = []

    def end(self, undo):
        """Close the open transaction; with `undo`, put back the value each
        of its writes replaced, the newest write first."""
        journal, self.journal = self.journal, None
        if undo:
            for contract, slot, old in reversed(journal):
                self.slots[contract][slot] = old

    def as_dict(self):
        return copy.deepcopy(self.slots)


class GasMeter:
    """Gas spent by one transaction: GasExhausted as soon as exec_gas plus
    check_gas passes `limit`.  Compiled code charges exec gas inline by the
    same rule (see _block)."""

    def __init__(self, limit=None):
        self.exec_gas = 0
        self.check_gas = 0
        self.limit = limit

    def charge_check(self):
        self.check_gas += 1
        if self.limit is not None and self.exec_gas + self.check_gas > self.limit:
            raise Revert(GAS_EXHAUSTED)


@dataclass
class VmOptions:
    # the unprotected debug mode disables permission tracking, woven checks,
    # and boundary checking; it exists to demonstrate the attack class the
    # protections close off
    protected: bool = True


class MethodCode:
    """One method of a loaded image: its boundary table split by kind, its
    spec's acc slots, and its body compiled to a closure that takes the
    running Frame and returns True when the body executed a return."""

    def __init__(self, contract: Contract, method: Method, table, verified):
        spec = method.spec
        self.contract, self.method, self.verified = contract, method, verified
        self.imprecise_entry = spec.requires.imprecise or not verified
        self.entry, self.exit = _evaluated_rows(table, "entry"), _evaluated_rows(table, "exit")
        self.requires_acc, self.ensures_acc = _acc_lines(spec.requires), _acc_lines(spec.ensures)
        self.body = _block(method.body, contract)


class Frame:
    """One running method: its locals, permissions state and result, plus
    the running transaction's Vm, storage, permission table and gas meter
    that compiled code reaches through it."""

    __slots__ = ("vm", "id", "code", "contract", "env", "caller", "depth", "slots",
                 "perm", "meter", "protected", "old", "result", "lazy_acquired")

    def __init__(self, vm, frame_id, code: MethodCode, env, caller, depth):
        self.vm = vm
        self.id = frame_id
        self.code = code
        self.contract = code.contract
        self.env = env
        self.caller = caller
        self.depth = depth  # call-depth charges of the frames on the stack
        self.slots = vm.ledger.slots[code.contract.name]
        self.perm = vm.perm
        self.meter = vm.meter
        self.protected = vm.options.protected
        self.old = {}
        self.result = None
        self.lazy_acquired = []  # (slot, previous owner)


@dataclass
class VmImage:
    program: Program  # combined, resolved, with woven checks
    boundary: dict  # (contract, method) -> [BoundaryEntry]
    sidecar: dict
    unverified: frozenset  # contract names
    code: dict  # (contract, method) -> MethodCode


def merge_adversaries(program: Program, adversaries: dict = None):
    """Give extern contracts executable bodies: an adversary source where one
    is supplied (type-checked, never verified), no-op bodies otherwise.
    Returns (resolved combined Program, set of unverified contract names)."""
    adversaries = adversaries or {}
    contracts = []
    unverified = set()
    for c in program.contracts:
        if not c.extern:
            contracts.append(c)
            continue
        unverified.add(c.name)
        impl_src = adversaries.get(c.name)
        if impl_src is None:
            # opaque methods default to no-op bodies
            methods = []
            for m in c.methods:
                if m.opaque:
                    body = (Return(IntLit(0), m.loc),) if m.returns else (Return(None, m.loc),)
                    m = replace(m, body=body, opaque=False)
                methods.append(m)
            contracts.append(replace(c, methods=tuple(methods)))
            continue
        impl_name = f"<adversary {c.name}>"
        impl_unit = parse_program(lex(impl_src, impl_name), impl_name)
        impl = None
        for ic in impl_unit.program.contracts:
            if ic.name == c.name:
                impl = ic
        if impl is None:
            raise VmLoadError(f"adversary source does not define contract {c.name}")
        for m in c.methods:
            im = impl.method(m.name)
            if im is None:
                raise VmLoadError(f"adversary {c.name} lacks method {m.name}")
            if len(im.params) != len(m.params) or im.returns != m.returns:
                raise VmLoadError(f"adversary {c.name}.{m.name} signature mismatch")
        contracts.append(replace(impl, extern=True))
    combined_raw = Program(tuple(contracts))
    infer_types(combined_raw)
    return resolve(combined_raw), unverified


def with_own_contracts(merged: Program, own: Program) -> Program:
    """The combined program of `own`, built from `merged`, the combined
    program (merge_adversaries) of a program with the same contracts,
    without re-parsing or re-resolving: `own`'s contracts, which are
    resolved already, take their counterparts' places and the merged
    extern contracts stay."""
    return Program(tuple(m if m.extern else o
                         for m, o in zip(merged.contracts, own.contracts)))


def load_program(ip, adversaries: dict = None) -> VmImage:
    """Build an executable image; accepts an InstrumentedProgram or a
    (program, boundary rows) pair from re-loading woven text.  Each
    method's table is rebuilt from its spec plus the given residual rows,
    and its body is compiled."""
    if isinstance(ip, InstrumentedProgram):
        program, residuals, sidecar = ip.program, ip.boundary_residuals, dict(ip.sidecar)
    else:
        (program, residuals), sidecar = ip, {}
    combined, unverified = merge_adversaries(program, adversaries)
    tables, code = {}, {}
    for c in combined.contracts:
        for m in c.methods:
            table = build_boundary_table(c, m, residuals.get((c.name, m.name), ()))
            tables[(c.name, m.name)] = table
            code[(c.name, m.name)] = MethodCode(c, m, table, c.name not in unverified)
    return VmImage(combined, tables, sidecar, frozenset(unverified), code)


def transaction_grid(program: Program, bound: int):
    """Every single-transaction case of a program's verified methods with
    each global's initial value and each argument in [0, bound]: yields
    (contract, method, initial ledger, Transaction), method by method."""
    gslots = [(c.name, g) for c in program.contracts for g in c.globals]
    for c in program.contracts:
        if c.extern:
            continue
        for m in c.methods:
            for point in itertools.product(range(bound + 1), repeat=len(gslots) + len(m.params)):
                init = {}
                for (cn, g), v in zip(gslots, point):
                    init.setdefault(cn, {})[g] = v
                yield c, m, init, Transaction(c.name, m.name, point[len(gslots):])


class Vm:
    def __init__(self, image: VmImage, ledger: Ledger, options: VmOptions = None):
        self.image = image
        self.ledger = ledger
        self.options = options or VmOptions()
        self.perm = {}  # (contract, slot) -> frame id, FREE when absent
        self.meter = None
        self.frames = 0  # frames entered so far; numbers the next one

    # -- permission ledger ---------------------------------------------------

    def _hold(self, frame, slot):
        """Whether `frame` may use `slot` of its contract: it owns the slot,
        or it was entered imprecisely and the slot is free or its caller's,
        in which case the frame borrows it (recorded in lazy_acquired)."""
        key = (frame.contract.name, slot)
        o = self.perm.get(key)
        if o == frame.id:
            return True
        if frame.code.imprecise_entry and (o is None or (frame.caller is not None
                                                    and o == frame.caller.id)):
            self.perm[key] = frame.id
            frame.lazy_acquired.append((slot, o))
            return True
        return False

    def touch_slot(self, frame, slot, line):
        """Require ownership for a program-level global read/write.  Compiled
        code calls this only when the frame does not already own the slot."""
        if not self._hold(frame, slot):
            raise Revert(OWNERSHIP_FAILURE, slot=slot, kind="access",
                         line=line, contract=frame.contract.name)

    # -- transactions --------------------------------------------------------

    def exec_transaction(self, tx: Transaction, gas_limit=None) -> Outcome:
        check_transaction(self.image, tx)
        self.meter = GasMeter(gas_limit)
        self.perm = {}
        out = None
        self.ledger.begin()
        try:
            self.call(tx.contract, tx.method, list(tx.args), caller=None)
            out = Outcome("committed", self.meter.exec_gas, self.meter.check_gas)
        except Revert as e:
            out = Outcome("reverted", self.meter.exec_gas, self.meter.check_gas,
                          reason=e.reason, detail=e.detail)
        finally:
            self.perm = {}
            self.ledger.end(undo=out is None or not out.committed)
        return out

    # -- calls ---------------------------------------------------------------

    def call(self, cname, mname, args, caller, charge=1, call_line=0):
        """Run a method; a call from `caller` at source line `call_line` adds
        `charge` to the call depth (see CALL_DEPTH_CAP)."""
        code = self.image.code[(cname, mname)]
        depth = 1 if caller is None else caller.depth + charge
        if depth > CALL_DEPTH_CAP:
            raise Revert(CALL_DEPTH, method=f"{cname}.{mname}")
        self.frames += 1
        frame = Frame(self, self.frames, code,
                      {p: v for (p, _), v in zip(code.method.params, args)}, caller, depth)
        # a caller reasons only about its own contract's specs: a call from
        # any other contract crosses the callee's boundary
        boundary_active = caller is None or caller.contract.name != cname

        if code.verified and self.options.protected:
            # a failing precondition blames a verified caller's call site
            site = call_line if caller is not None and caller.code.verified else None
            self._boundary_checks(frame, code.entry, "precondition", boundary_active, site)
            # acquire the requires acc list: each slot free or the caller's
            for slot, line in code.requires_acc:
                if boundary_active:
                    self.meter.charge_check()
                o = self.perm.get((cname, slot))
                if o is not None and (caller is None or o != caller.id):
                    raise Revert(OWNERSHIP_FAILURE, slot=slot, kind="access",
                                 line=line, contract=cname)
                self.perm[(cname, slot)] = frame.id

        frame.old = dict(frame.slots)
        code.body(frame)
        self.exit_protocol(frame, boundary_active)
        return frame.result

    def _boundary_checks(self, frame, rows, kind, active, line=None):
        """Evaluate boundary `rows` (MethodCode.entry or .exit): the
        residual-backed ones always, the rest only when `active` (called
        from the top level or from another contract).  A failing row reverts
        as a `kind` ("precondition" or "postcondition") check at `line`, by
        default the row's own."""
        for payload, check_id in rows:
            if (active or check_id is not None) and not self.eval_spec_bool(frame, payload):
                raise Revert(CHECK_FAILURE, check_id=check_id, kind=kind,
                             payload=fmt_atom(payload), line=line or payload.loc.line)

    def exit_protocol(self, frame, boundary_active):
        cname = frame.contract.name
        if not self.options.protected:
            return
        if frame.code.verified:
            self._boundary_checks(frame, frame.code.exit, "postcondition", boundary_active)
        # transfer ensures permissions back to the caller (FREE at top level)
        ensured = set()
        for slot, line in frame.code.ensures_acc:
            ensured.add(slot)
            if not self._hold(frame, slot):
                raise Revert(OWNERSHIP_FAILURE, slot=slot, kind="access",
                             line=line, contract=cname)
            if frame.caller is None:
                del self.perm[(cname, slot)]
            else:
                self.perm[(cname, slot)] = frame.caller.id
        # lazily borrowed permissions revert to their previous owner
        for slot, prev in reversed(frame.lazy_acquired):
            if slot in ensured:
                continue
            if self.perm.get((cname, slot)) == frame.id:
                if prev is None:
                    self.perm.pop((cname, slot), None)
                else:
                    self.perm[(cname, slot)] = prev
        # everything else acquired at entry is released
        for key, o in list(self.perm.items()):
            if o == frame.id:
                del self.perm[key]

    # -- specification-level (mathematical) evaluation -----------------------

    def eval_spec_bool(self, frame, payload):
        """Truth of a check payload or boundary atom, charging 1 check gas
        per acc atom, comparison and predicate call.  Each predicate body
        being evaluated is a suspended generator on an explicit stack, so
        recursion runs up to PREDICATE_DEPTH_CAP without growing the Python
        stack."""
        if isinstance(payload, Acc):
            self.meter.charge_check()
            return self._hold(frame, payload.slot)
        if isinstance(payload, Cmp):
            return self._cmp(payload, frame.env, frame.contract, frame)
        stack, truth = [self._tree(payload, frame.env, frame.contract, frame)], None
        while stack:
            try:
                name, args = stack[-1].send(truth)
            except StopIteration as done:
                stack.pop()
                truth = done.value
                continue
            if len(stack) > PREDICATE_DEPTH_CAP:
                raise Revert(PREDICATE_DEPTH, predicate=name)
            pred = frame.contract.predicate(name)
            self.meter.charge_check()  # the predicate call itself
            stack.append(self._tree(pred.body, dict(zip(pred.params, args)), frame.contract, None))
            truth = None
        return truth

    def _cmp(self, c, env, contract, frame):
        self.meter.charge_check()
        return _RELATIONS[c.op](self.eval_spec_value(c.left, env, contract, frame),
                               self.eval_spec_value(c.right, env, contract, frame))

    def _tree(self, node, env, contract, frame):
        """Generator evaluating an and/or/not tree with short-circuit and/or:
        yields (name, argument values) for each predicate instance, receives
        its truth, and returns the tree's truth."""
        if isinstance(node, Cmp):
            return self._cmp(node, env, contract, frame)
        if isinstance(node, PredUse):
            return (yield node.name, [self.eval_spec_value(a, env, contract, frame)
                                      for a in node.args])
        if isinstance(node, BoolOp):
            stop = node.op == "or"  # the part value that decides the whole
            for p in node.parts:
                if (yield from self._tree(p, env, contract, frame)) == stop:
                    return stop
            return not stop
        if isinstance(node, NotOp):
            return not (yield from self._tree(node.operand, env, contract, frame))
        raise TypeError(f"not a spec formula node: {node!r}")

    def eval_spec_value(self, e, env, contract, frame):
        """Value of a spec expression over mathematical integers: names
        from `env`, then `contract`'s globals; old(...) and result from the
        method `frame` (None in predicate bodies)."""
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, Name):
            if e.name in env:
                return env[e.name]
            return self.ledger.read(contract.name, e.name)
        if isinstance(e, Old):
            return frame.old[e.slot]
        if isinstance(e, Result):
            return frame.result if frame.result is not None else 0
        if isinstance(e, BinOp):
            l = self.eval_spec_value(e.left, env, contract, frame)
            r = self.eval_spec_value(e.right, env, contract, frame)
            if e.op == "+":
                return l + r
            if e.op == "-":
                return l - r
            if e.op == "*":
                return l * r
            if r == 0:
                raise Revert(ARITHMETIC_PANIC, kind="div-zero", line=e.loc.line)
            return l // r if e.op == "/" else l % r
        raise TypeError(f"not a spec expression: {e!r}")


# ---------------------------------------------------------------------------
# Compilation of method bodies to closures over a running Frame `fr`.  A
# compiled block or statement returns True when it executed a return (the
# value is then in fr.result).  Every statement but a woven check charges 1
# exec gas before it runs; asserts are ghost code (their residuals were
# woven as checks) and compile to nothing.


def _evaluated_rows(table, kind):
    """(payload, check_id) of the `kind` rows of a boundary table that are
    evaluated, in table order: acc rows of the spec, and every acc row at
    exit, are settled by ownership instead."""
    return tuple((e.payload, e.check_id) for e in table if e.kind == kind and not (
        isinstance(e.payload, Acc) and (kind == "exit" or e.check_id is None)))


def _acc_lines(formula):
    """(slot, line) of each acc atom of a spec formula."""
    return tuple((a.slot, a.loc.line) for a in formula.atoms if isinstance(a, Acc))


def _block(body, contract, nest=0):
    """A body that `nest` if/while bodies enclose."""
    steps = tuple((not isinstance(s, Check), _stmt(s, contract, nest))
                  for s in body if not isinstance(s, AssertStmt))

    def run(fr):
        m = fr.meter
        for charged, step in steps:
            if charged:
                m.exec_gas += 1
                if m.limit is not None and m.exec_gas + m.check_gas > m.limit:
                    raise Revert(GAS_EXHAUSTED)
            if step(fr):
                return True
        return False
    return run


def _stmt(s, contract, nest):
    if isinstance(s, Assign):
        target, line = s.target, s.loc.line
        value = _value(s.expr, line, contract)
        if target not in contract.globals:
            def assign(fr):
                fr.env[target] = value(fr)
            return assign
        cname, key = contract.name, (contract.name, target)

        def gassign(fr):
            v = value(fr)
            if fr.protected and fr.perm.get(key) != fr.id:
                fr.vm.touch_slot(fr, target, line)
            fr.vm.ledger.write(cname, target, v)
        return gassign
    if isinstance(s, If):
        cond = _cond(s.cond, s.loc.line, contract)
        then, orelse = _block(s.then, contract, nest + 1), _block(s.orelse, contract, nest + 1)

        def if_(fr):
            return then(fr) if cond(fr) else orelse(fr)
        return if_
    if isinstance(s, While):
        cond, body = _cond(s.cond, s.loc.line, contract), _block(s.body, contract, nest + 1)

        def while_(fr):
            m = fr.meter
            while cond(fr):
                if body(fr):
                    return True
                m.exec_gas += 1  # the next condition evaluation
                if m.limit is not None and m.exec_gas + m.check_gas > m.limit:
                    raise Revert(GAS_EXHAUSTED)
            return False
        return while_
    if isinstance(s, Call):
        callee, method, target, charge = s.contract, s.method, s.target, call_charge(nest)
        line = s.loc.line
        args = tuple(_value(a, line, contract) for a in s.args)

        def call(fr):
            ret = fr.vm.call(callee, method, [a(fr) for a in args], fr, charge, line)
            if target is not None:
                fr.env[target] = ret
        return call
    if isinstance(s, Return):
        value = _value(s.expr, s.loc.line, contract) if s.expr is not None else None

        def return_(fr):
            fr.result = value(fr) if value is not None else None
            return True
        return return_
    if isinstance(s, Check):
        cid, payload, line = s.check_id, s.payload, s.loc.line

        def check(fr):
            if fr.protected and not fr.vm.eval_spec_bool(fr, payload):
                raise Revert(CHECK_FAILURE, check_id=cid, payload=fmt_atom(payload), line=line)
        return check
    raise TypeError(f"not a statement: {s!r}")


def _value(e, line, contract):
    """Checked uint64 value of a program expression; an arithmetic revert
    reports `line`, the line of the enclosing statement."""
    if isinstance(e, IntLit):
        v = e.value
        return lambda fr: v
    if isinstance(e, Name):
        name = e.name
        if name not in contract.globals:
            return lambda fr: fr.env[name]
        key, read_line = (contract.name, name), e.loc.line

        def read(fr):
            if fr.protected and fr.perm.get(key) != fr.id:
                fr.vm.touch_slot(fr, name, read_line)
            return fr.slots[name]
        return read
    if isinstance(e, BinOp):
        left, right = _value(e.left, line, contract), _value(e.right, line, contract)
        if e.op in "+*":
            grow = operator.add if e.op == "+" else operator.mul

            def add_or_mul(fr):
                v = grow(left(fr), right(fr))
                if v > UINT_MAX:
                    raise Revert(ARITHMETIC_PANIC, kind="overflow", line=line)
                return v
            return add_or_mul
        if e.op == "-":
            def sub(fr):
                l, r = left(fr), right(fr)
                if l < r:
                    raise Revert(ARITHMETIC_PANIC, kind="underflow", line=line)
                return l - r
            return sub
        divide = operator.floordiv if e.op == "/" else operator.mod

        def div(fr):
            l, r = left(fr), right(fr)
            if r == 0:
                raise Revert(ARITHMETIC_PANIC, kind="div-zero", line=line)
            return divide(l, r)
        return div
    # old(...) and result parse anywhere, but only specifications give them
    # a meaning
    raise VmLoadError(f"{e.loc}: not a program expression")


def _cond(c, line, contract):
    """Truth of a program condition; strict: every leaf is evaluated."""
    if isinstance(c, Cmp):
        rel = _RELATIONS[c.op]
        left, right = _value(c.left, line, contract), _value(c.right, line, contract)
        return lambda fr: rel(left(fr), right(fr))
    if isinstance(c, BoolOp):
        parts = tuple(_cond(p, line, contract) for p in c.parts)
        join = all if c.op == "and" else any
        return lambda fr: join([p(fr) for p in parts])
    if isinstance(c, NotOp):
        operand = _cond(c.operand, line, contract)
        return lambda fr: not operand(fr)
    raise TypeError(f"not a condition: {c!r}")


# ---------------------------------------------------------------------------
# Scripts


def check_transaction(image: VmImage, tx: Transaction):
    """Raise VmUsageError unless `tx` names a method of `image` and passes
    it one uint64 per parameter."""
    code = image.code.get((tx.contract, tx.method))
    if code is None:
        if image.program.contract(tx.contract) is None:
            raise VmUsageError(f"unknown contract {tx.contract!r}")
        raise VmUsageError(f"unknown method {tx.contract}.{tx.method}")
    if len(tx.args) != len(code.method.params):
        raise VmUsageError(f"{tx.contract}.{tx.method} expects {len(code.method.params)} argument(s)")
    for a in tx.args:
        if type(a) is not int or not 0 <= a <= UINT_MAX:
            raise VmUsageError(f"transaction argument {a!r} is not a uint64")


def run_script(image: VmImage, script, gas_limit=None, ledger: Ledger = None,
               options: VmOptions = None):
    """Execute transactions in order against an evolving ledger; returns
    (outcomes, gas report dict).  Raises VmUsageError, naming the first bad
    transaction's index, before any transaction runs."""
    script = list(script)
    for i, tx in enumerate(script):
        try:
            check_transaction(image, tx)
        except VmUsageError as e:
            raise VmUsageError(f"transaction {i}: {e}") from None
    ledger = ledger if ledger is not None else Ledger(image.program)
    vm = Vm(image, ledger, options)
    outcomes = []
    for tx in script:
        outcomes.append(vm.exec_transaction(tx, gas_limit))
    per_tx = []
    for i, o in enumerate(outcomes):
        row = {"index": i}
        row.update(o.as_dict())
        per_tx.append(row)
    report = {
        "per_tx": per_tx,
        "totals": {
            "exec_gas": sum(o.exec_gas for o in outcomes),
            "check_gas": sum(o.check_gas for o in outcomes),
        },
    }
    return outcomes, report


def parse_script(text: str):
    """Transaction script: JSON lines {contract, method, args}, `args` a list
    (empty when absent); other keys are ignored.  Raises ValueError on a line
    of any other shape; exec_transaction checks the argument values."""
    txs = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {line}")
        cname, mname, args = obj.get("contract"), obj.get("method"), obj.get("args", [])
        if not (isinstance(cname, str) and isinstance(mname, str) and isinstance(args, list)):
            raise ValueError(f"expected string contract and method and list args, got {line}")
        txs.append(Transaction(cname, mname, tuple(args)))
    return txs
