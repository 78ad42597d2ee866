"""Deterministic ledger VM for instrumented contracts.

Executes transactions over persistent per-contract storage with dynamic
permission ownership, boundary checking against callers from other
contracts, woven run-time checks, gas metering, and rollback of every write
on any failure.

`load_program` compiles once, into Python closures (closure generation,
after Feeley and Lapalme, "Using Closures for Code Generation", 1987), each
method body, the payload of each boundary row and woven check, and each
contract's predicate bodies: every statement, expression, condition and
spec formula becomes a function of the running Frame and the names in
scope, with the source line a revert reports fixed at compile time, and a
literal or local operand is read inline by the closure around it.  One
image serves every Vm made from it, so compiled code reaches the ledger,
the permission table, the gas meter and the Vm only through the frame it is
handed.  A transaction runs closures only; nothing is compiled or walked as
a tree at run time.

Program arithmetic is checked uint64 (underflow/overflow/division by zero
revert as ArithmeticPanic when no woven check preempts them), and program
conditions are strict: both operands of and/or are evaluated.
Specification payloads (checks, boundary atoms, predicates) evaluate over
mathematical integers, with short-circuit and/or, charging 1 check gas per
acc, comparison and predicate call: a guard check that fails simply reverts
before the guarded operation runs.  A payload or predicate body that holds
a predicate instance compiles to a generator function, which
eval_spec_bool drives from an explicit stack, so predicate recursion never
grows the Python stack.
"""

from __future__ import annotations

import copy
import itertools
import json
import operator
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .lang import (
    Acc, Assign, AssertStmt, BinOp, BoolOp, CALL_DEPTH_CAP, Call, Check, Cmp,
    Contract, call_charge, expr_nodes, If, IntLit, Method, Name, NotOp, Old,
    PredUse, PREDICATE_DEPTH_CAP, Program, Result, Return, UINT_MAX, While,
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
    """A transaction's failure: its `reason`, and a `detail` that names the
    failed site (see oracle.vm_site): a woven check by its `check_id`, any
    other by its `kind` and, where it has one, its source `line`."""

    def __init__(self, reason, **detail):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


class Transaction(NamedTuple):
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
        self.journal = None  # the open transaction's undo log, one entry per slot written
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

    def restore(self, snap):
        self.slots = copy.deepcopy(snap)

    def read(self, contract, slot):
        return self.slots[contract][slot]

    def begin(self):
        """Open a transaction: compiled code records in `journal` the value
        each slot held before the transaction's first write to it."""
        self.journal = {}

    def end(self, undo):
        """Close the open transaction; with `undo`, put back the value each
        slot it wrote held before it."""
        journal, self.journal = self.journal, None
        if undo:
            for (contract, slot), old in journal.items():
                self.slots[contract][slot] = old

    def as_dict(self):
        return copy.deepcopy(self.slots)

    snapshot = as_dict


class GasMeter:
    """Gas spent by one transaction: GasExhausted as soon as exec_gas plus
    check_gas passes `limit`.  Compiled code charges exec gas, and the
    check gas of a comparison, inline by the same rule (see _block and
    _formula)."""

    def __init__(self, limit=None):
        self.exec_gas = 0
        self.check_gas = 0
        self.limit = limit

    def charge_check(self):
        self.check_gas += 1
        if self.limit is not None and self.exec_gas + self.check_gas > self.limit:
            raise Revert(GAS_EXHAUSTED, kind=GAS_EXHAUSTED)


class MethodCode:
    """One method of a loaded image: its parameter names; its evaluated
    boundary rows by kind, compiled; whether its exit rows read old(...);
    its spec's acc slots; its contract's compiled predicates (shared by the
    contract's methods); and its body compiled to a closure that takes the
    running Frame and its locals and returns True when the body executed a
    return."""

    def __init__(self, contract: Contract, method: Method, table, verified, predicates):
        spec = method.spec
        self.contract, self.method, self.verified = contract, method, verified
        self.params = tuple(p for p, _ in method.params)
        self.imprecise_entry = spec.requires.imprecise or not verified
        self.entry, self.exit = _rows(table, "entry", contract), _rows(table, "exit", contract)
        self.reads_old = any(type(n) is Old for e in table if e.kind == "exit"
                             for n in expr_nodes(e.payload))
        self.requires_acc, self.ensures_acc = _acc_lines(spec.requires), _acc_lines(spec.ensures)
        self.ensured = frozenset(slot for slot, _ in self.ensures_acc)
        self.predicates = predicates
        self.body = _block(method.body, contract)


class Frame:
    """One running method: its locals, permissions state and result, plus
    the running transaction's Vm, storage, undo log, permission table and
    gas meter that compiled code reaches through it."""

    __slots__ = ("vm", "id", "code", "contract", "env", "caller", "depth", "slots",
                 "journal", "perm", "meter", "protected", "old", "result", "lazy_acquired")

    def __init__(self, vm, frame_id, code: MethodCode, env, caller, depth):
        self.vm = vm
        self.id = frame_id
        self.code = code
        self.contract = code.contract
        self.env = env
        self.caller = caller
        self.depth = depth  # call-depth charges of the frames on the stack
        self.slots = vm.ledger.slots[code.contract.name]
        self.journal = vm.ledger.journal
        self.perm = vm.perm
        self.meter = vm.meter
        self.protected = vm.protected
        self.old = None  # the contract's storage at entry, if the exit rows read it
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
    for name in sorted(set(adversaries) - {c.name for c in program.contracts if c.extern}):
        raise VmLoadError(f"adversary {name} names no extern contract")
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
        impl_program = parse_program(lex(impl_src, impl_name), impl_name).program
        impl = impl_program.contract(c.name)
        if impl is None:
            raise VmLoadError(f"adversary source does not define contract {c.name}")
        if sum(ic.name == c.name for ic in impl_program.contracts) > 1:
            raise VmLoadError(f"adversary source defines contract {c.name} twice")
        for m in c.methods:
            im = impl.method(m.name)
            if im is None:
                raise VmLoadError(f"adversary {c.name} lacks method {m.name}")
            if len(im.params) != len(m.params) or im.returns != m.returns:
                raise VmLoadError(f"adversary {c.name}.{m.name} signature mismatch")
        for im in impl.methods:
            if im.opaque:
                raise VmLoadError(f"adversary {c.name}.{im.name} has no body")
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
    """Build an executable image of a woven program, an InstrumentedProgram
    or the (program, boundary) pair load_source reads from its text: each
    method's boundary table from its spec and the program's `#! exit` rows
    (weaver.build_boundary_table), its body and the payloads of its rows
    and woven checks compiled, and each contract's predicate bodies once."""
    if isinstance(ip, InstrumentedProgram):
        program, residuals, sidecar = ip.program, ip.boundary, dict(ip.sidecar)
    else:
        (program, residuals), sidecar = ip, {}
    combined, unverified = merge_adversaries(program, adversaries)
    tables, code = {}, {}
    for c in combined.contracts:
        predicates = _predicates(c)
        for m in c.methods:
            table = build_boundary_table(c, m, residuals.get((c.name, m.name), ()))
            tables[(c.name, m.name)] = table
            code[(c.name, m.name)] = MethodCode(c, m, table, c.name not in unverified, predicates)
    return VmImage(combined, tables, sidecar, frozenset(unverified), code)


def transaction_grid(program: Program, bound: int):
    """Every single-transaction case of a program's verified methods with
    each global's initial value and each argument in [0, bound]: yields
    (contract, method, initial ledger, Transaction), method by method.
    Raises ValueError for a bound above UINT_MAX."""
    if bound > UINT_MAX:
        raise ValueError(f"grid bound {bound} is not a uint64")
    starts = itertools.accumulate((len(c.globals) for c in program.contracts), initial=0)
    spans = [(c.name, c.globals, i) for c, i in zip(program.contracts, starts) if c.globals]
    n = sum(len(c.globals) for c in program.contracts)
    for c in program.contracts:
        if c.extern:
            continue
        for m in c.methods:
            for point in itertools.product(range(bound + 1), repeat=n + len(m.params)):
                init = {cn: dict(zip(gs, point[i:])) for cn, gs, i in spans}
                yield c, m, init, Transaction(c.name, m.name, point[n:])


class Vm:
    def __init__(self, image: VmImage, ledger: Ledger, protected=True):
        """A VM running transactions of `image` on `ledger`.  Unprotected
        (a debug mode) it tracks no permissions and evaluates no woven check
        or boundary row, to demonstrate the attack class the protections
        close off."""
        self.image = image
        self.ledger = ledger
        self.protected = protected
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
            raise Revert(CALL_DEPTH, kind="call-depth", method=f"{cname}.{mname}")
        self.frames += 1
        frame = Frame(self, self.frames, code, dict(zip(code.params, args)), caller, depth)
        # a caller reasons only about its own contract's specs: a call from
        # any other contract crosses the callee's boundary
        boundary_active = caller is None or caller.contract.name != cname

        if code.verified and frame.protected:
            # a failing precondition blames a verified caller's call site
            site = call_line if caller is not None and caller.code.verified else None
            if code.entry:
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

        if code.reads_old:
            frame.old = dict(frame.slots)
        code.body(frame, frame.env)
        self.exit_protocol(frame, boundary_active)
        return frame.result

    def _boundary_checks(self, frame, rows, kind, active, line=None):
        """Evaluate boundary `rows` (MethodCode.entry or .exit): the
        residual-backed ones always, the rest only when `active` (called
        from the top level or from another contract).  A failing row reverts
        as a `kind` ("precondition" or "postcondition") check at `line`, by
        default the row's own."""
        for test, check_id, text, row_line in rows:
            if (active or check_id is not None) and not test(frame, frame.env):
                raise Revert(CHECK_FAILURE, check_id=check_id, kind=kind,
                             payload=text, line=line or row_line)

    def exit_protocol(self, frame, boundary_active):
        if not frame.protected:
            return
        code, cname = frame.code, frame.contract.name
        if code.verified and code.exit:
            self._boundary_checks(frame, code.exit, "postcondition", boundary_active)
        # transfer ensures permissions back to the caller (FREE at top level)
        for slot, line in code.ensures_acc:
            if not self._hold(frame, slot):
                raise Revert(OWNERSHIP_FAILURE, slot=slot, kind="access",
                             line=line, contract=cname)
            if frame.caller is None:
                del self.perm[(cname, slot)]
            else:
                self.perm[(cname, slot)] = frame.caller.id
        # lazily borrowed permissions revert to their previous owner
        for slot, prev in reversed(frame.lazy_acquired):
            if slot in code.ensured:
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


# ---------------------------------------------------------------------------
# Compilation to closures of a running Frame `fr` and the names `env` in
# scope: the frame's locals in method code, a predicate's arguments in its
# body.  A compiled block or statement returns True when it executed a
# return (the value is then in fr.result).  Every statement but a woven
# check charges 1 exec gas before it runs; asserts are ghost code (their
# residuals were woven as checks) and compile to nothing.
#
# An expression compiles to an operand, (LIT, value), (LOCAL, name) or
# (CODE, closure): the closure around a literal or local operand reads it
# inline rather than through a closure of its own.

LIT, LOCAL, CODE = "lit", "local", "code"

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _rows(table, kind, contract):
    """(test, check_id, text, line) of the `kind` rows of a boundary table,
    in table order: `test` the payload compiled by _spec_test, `text` the
    payload printed and `line` its source line."""
    return tuple((_spec_test(e.payload, contract), e.check_id, fmt_atom(e.payload),
                  e.payload.loc.line) for e in table if e.kind == kind)


def _acc_lines(formula):
    """(slot, line) of each acc atom of a spec formula."""
    return tuple((a.slot, a.loc.line) for a in formula.atoms if isinstance(a, Acc))


def _block(body, contract, nest=0):
    """A body that `nest` if/while bodies enclose."""
    steps = tuple((not isinstance(s, Check), _stmt(s, contract, nest))
                  for s in body if not isinstance(s, AssertStmt))

    def run(fr, env):
        m = fr.meter
        for charged, step in steps:
            if charged:
                m.exec_gas += 1
                if m.limit is not None and m.exec_gas + m.check_gas > m.limit:
                    raise Revert(GAS_EXHAUSTED, kind=GAS_EXHAUSTED)
            if step(fr, env):
                return True
        return False
    return run


def _stmt(s, contract, nest):
    if isinstance(s, Assign):
        target, line = s.target, s.loc.line
        value = _value(s.expr, line, contract)
        if target not in contract.globals:
            def assign(fr, env):
                env[target] = value(fr, env)
            return assign
        key = (contract.name, target)
        # an expression that reads the target has made the frame its owner,
        # and evaluating an expression never gives a slot up
        tested = not any(type(n) is Name and n.name == target for n in expr_nodes(s.expr))

        def gassign(fr, env):
            v = value(fr, env)
            if tested and fr.protected and fr.perm.get(key) != fr.id:
                fr.vm.touch_slot(fr, target, line)
            if key not in fr.journal:
                fr.journal[key] = fr.slots[target]
            fr.slots[target] = v
        return gassign
    if isinstance(s, If):
        cond = _cond(s.cond, s.loc.line, contract)
        then, orelse = _block(s.then, contract, nest + 1), _block(s.orelse, contract, nest + 1)

        def if_(fr, env):
            return then(fr, env) if cond(fr, env) else orelse(fr, env)
        return if_
    if isinstance(s, While):
        cond, body = _cond(s.cond, s.loc.line, contract), _block(s.body, contract, nest + 1)

        def while_(fr, env):
            m = fr.meter
            while cond(fr, env):
                if body(fr, env):
                    return True
                m.exec_gas += 1  # the next condition evaluation
                if m.limit is not None and m.exec_gas + m.check_gas > m.limit:
                    raise Revert(GAS_EXHAUSTED, kind=GAS_EXHAUSTED)
            return False
        return while_
    if isinstance(s, Call):
        callee, method, target, charge = s.contract, s.method, s.target, call_charge(nest)
        line = s.loc.line
        args = tuple(_value(a, line, contract) for a in s.args)

        def call(fr, env):
            ret = fr.vm.call(callee, method, [a(fr, env) for a in args], fr, charge, line)
            if target is not None:
                env[target] = ret
        return call
    if isinstance(s, Return):
        value = _value(s.expr, s.loc.line, contract) if s.expr is not None else None

        def return_(fr, env):
            fr.result = value(fr, env) if value is not None else None
            return True
        return return_
    if isinstance(s, Check):
        cid, text, line = s.check_id, fmt_atom(s.payload), s.loc.line
        test = _spec_test(s.payload, contract)

        def check(fr, env):
            if fr.protected and not test(fr, env):
                raise Revert(CHECK_FAILURE, check_id=cid, payload=text, line=line)
        return check
    raise TypeError(f"not a statement: {s!r}")


def _read(operand):
    """A closure that reads an operand."""
    kind, x = operand
    if kind == LIT:
        return lambda fr, env: x
    if kind == LOCAL:
        return lambda fr, env: env[x]
    return x


def _value(e, line, contract):
    """Checked uint64 value of a program expression, as a closure; an
    arithmetic revert reports `line`, the line of the enclosing statement."""
    return _read(_operand(e, line, contract))


def _operand(e, line, contract):
    """A program expression as an operand (see _value)."""
    t = type(e)  # node classes are never subclassed
    if t is IntLit:
        return LIT, e.value
    if t is Name:
        name = e.name
        if name not in contract.globals:
            return LOCAL, name
        key, read_line = (contract.name, name), e.loc.line

        def read(fr, env):
            if fr.protected and fr.perm.get(key) != fr.id:
                fr.vm.touch_slot(fr, name, read_line)
            return fr.slots[name]
        return CODE, read
    if t is BinOp:
        return CODE, _checked(e.op, _operand(e.left, line, contract),
                              _operand(e.right, line, contract), line)
    # old(...) and result parse anywhere, but only specifications give them
    # a meaning
    raise VmLoadError(f"{e.loc}: not a program expression")


def _checked(op, left, right, line):
    """`left op right` over uint64: overflow, underflow and division by
    zero revert at `line`."""
    (lkind, l), (rkind, r) = left, right
    if rkind == LIT and op in ("+", "-"):
        k = r if op == "+" else -r  # x - k is x + (-k): below 0 is an underflow
        if lkind == LOCAL:
            def shift(fr, env):
                v = env[l] + k
                if 0 <= v <= UINT_MAX:
                    return v
                raise _out_of_range(v, line)
            return shift
        l = _read(left)

        def shift(fr, env):
            v = l(fr, env) + k
            if 0 <= v <= UINT_MAX:
                return v
            raise _out_of_range(v, line)
        return shift
    f = _ARITH.get(op) or _divide(op, line)
    l, r = _read(left), _read(right)

    def arith(fr, env):
        v = f(l(fr, env), r(fr, env))
        if 0 <= v <= UINT_MAX:
            return v
        raise _out_of_range(v, line)
    return arith


def _out_of_range(v, line):
    return Revert(ARITHMETIC_PANIC, kind="overflow" if v > UINT_MAX else "underflow", line=line)


def _divide(op, line):
    """`/` or `%` as a function of two integers; a zero divisor reverts at
    `line`."""
    divide = operator.floordiv if op == "/" else operator.mod

    def div(l, r):
        if r == 0:
            raise Revert(ARITHMETIC_PANIC, kind="div-zero", line=line)
        return divide(l, r)
    return div


def _pair(f, left, right):
    """A closure computing f(left, right) of two operands, the left one
    first."""
    (lkind, l), (rkind, r) = left, right
    if lkind == LOCAL and rkind == LIT:
        return lambda fr, env: f(env[l], r)
    if lkind == LOCAL and rkind == LOCAL:
        return lambda fr, env: f(env[l], env[r])
    if rkind == LIT:
        l = _read(left)
        return lambda fr, env: f(l(fr, env), r)
    l, r = _read(left), _read(right)
    return lambda fr, env: f(l(fr, env), r(fr, env))


def _cond(c, line, contract):
    """Truth of a program condition; strict: every leaf is evaluated."""
    t = type(c)
    if t is Cmp:
        return _pair(_RELATIONS[c.op], _operand(c.left, line, contract),
                     _operand(c.right, line, contract))
    if t is BoolOp:
        parts = tuple(_cond(p, line, contract) for p in c.parts)
        join = all if c.op == "and" else any
        return lambda fr, env: join([p(fr, env) for p in parts])
    if t is NotOp:
        operand = _cond(c.operand, line, contract)
        return lambda fr, env: not operand(fr, env)
    raise TypeError(f"not a condition: {c!r}")


# Specification payloads (woven checks, boundary rows) and predicate bodies
# evaluate over mathematical integers.  Names read `env`, then the frame's
# contract's storage, with no ownership test; old(...) and result read the
# method frame.


def _spec_operand(e, contract):
    """A spec expression as an operand; a division by zero reverts at the
    operator's line."""
    t = type(e)
    if t is IntLit:
        return LIT, e.value
    if t is Name:
        name = e.name
        if name not in contract.globals:
            return LOCAL, name
        return CODE, lambda fr, env: fr.slots[name]
    if t is Old:
        slot = e.slot
        return CODE, lambda fr, env: fr.old[slot]
    if t is Result:
        return CODE, lambda fr, env: 0 if fr.result is None else fr.result
    if t is BinOp:
        f = _ARITH.get(e.op) or _divide(e.op, e.loc.line)
        return CODE, _pair(f, _spec_operand(e.left, contract), _spec_operand(e.right, contract))
    raise TypeError(f"not a spec expression: {e!r}")


def _formula(node, contract):
    """A spec formula compiled to (closure, holds an instance).  Check gas
    is 1 per acc, comparison and predicate call, charged before the
    operands are evaluated; and/or short-circuit.  A formula that holds a
    predicate instance compiles to a generator function: it yields
    (predicate name, argument values) for each instance, receives the
    instance's truth, and returns its own (see eval_spec_bool)."""
    t = type(node)
    if t is Cmp:
        test = _pair(_RELATIONS[node.op], _spec_operand(node.left, contract),
                     _spec_operand(node.right, contract))

        def cmp(fr, env):
            m = fr.meter
            m.check_gas += 1
            if m.limit is not None and m.exec_gas + m.check_gas > m.limit:
                raise Revert(GAS_EXHAUSTED, kind=GAS_EXHAUSTED)
            return test(fr, env)
        return cmp, False
    if t is Acc:
        slot = node.slot

        def acc(fr, env):
            fr.meter.charge_check()
            return fr.vm._hold(fr, slot)
        return acc, False
    if t is PredUse:
        name, args = node.name, tuple(_read(_spec_operand(a, contract)) for a in node.args)

        def instance(fr, env):
            return (yield name, [a(fr, env) for a in args])
        return instance, True
    if t is NotOp:
        operand, gen = _formula(node.operand, contract)
        if not gen:
            return (lambda fr, env: not operand(fr, env)), False

        def not_(fr, env):
            return not (yield from operand(fr, env))
        return not_, True
    if t is BoolOp:
        parts = tuple(_formula(p, contract) for p in node.parts)
        stop = node.op == "or"  # the part value that decides the whole
        if not any(gen for _, gen in parts):
            tests = tuple(p for p, _ in parts)

            def join(fr, env):
                for p in tests:
                    if p(fr, env) == stop:
                        return stop
                return not stop
            return join, False

        def tree(fr, env):
            for p, gen in parts:
                if ((yield from p(fr, env)) if gen else p(fr, env)) == stop:
                    return stop
            return not stop
        return tree, True
    raise TypeError(f"not a spec formula node: {node!r}")


def _spec_test(payload, contract):
    """A check payload or boundary atom compiled to a closure that returns
    its truth."""
    test, gen = _formula(payload, contract)
    if not gen:
        return test
    return lambda fr, env: eval_spec_bool(fr, test(fr, env))


def _predicates(contract):
    """{name: (parameters, compiled body, holds an instance)} of a
    contract's predicates."""
    return {p.name: (p.params, *_formula(p.body, contract)) for p in contract.predicates}


def eval_spec_bool(fr, tree):
    """Truth of a compiled formula that holds predicate instances, given the
    generator `tree` of its closure.  Each predicate body being evaluated
    that holds an instance is a suspended generator on an explicit stack,
    so recursion runs up to PREDICATE_DEPTH_CAP without growing the Python
    stack; a body without one returns its truth at once."""
    stack, truth = [tree], None
    predicates = fr.code.predicates
    while stack:
        try:
            name, args = stack[-1].send(truth)
        except StopIteration as done:
            stack.pop()
            truth = done.value
            continue
        if len(stack) > PREDICATE_DEPTH_CAP:
            raise Revert(PREDICATE_DEPTH, kind="predicate-depth", predicate=name)
        params, body, gen = predicates[name]
        fr.meter.charge_check()  # the predicate call itself
        truth = body(fr, dict(zip(params, args)))
        if gen:
            stack.append(truth)
            truth = None
    return truth


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
               protected=True):
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
    vm = Vm(image, ledger, protected)
    outcomes = [vm.exec_transaction(tx, gas_limit) for tx in script]
    totals = {"exec_gas": sum(o.exec_gas for o in outcomes),
              "check_gas": sum(o.check_gas for o in outcomes)}
    return outcomes, {"per_tx": [{"index": i, **o.as_dict()} for i, o in enumerate(outcomes)],
                      "totals": totals}


def parse_script(text: str):
    """Transaction script: JSON lines {contract, method, args}, `args` a list
    (empty when absent); other keys are ignored.  Raises ValueError on a line
    of any other shape; exec_transaction checks the argument values."""
    txs = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except RecursionError:
            raise ValueError(f"JSON nested too deeply: {line[:40]}...") from None
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {line}")
        cname, mname, args = obj.get("contract"), obj.get("method"), obj.get("args", [])
        if not (isinstance(cname, str) and isinstance(mname, str) and isinstance(args, list)):
            raise ValueError(f"expected string contract and method and list args, got {line}")
        txs.append(Transaction(cname, mname, tuple(args)))
    return txs
