"""Deterministic ledger VM for instrumented contracts.

Executes transactions over persistent per-contract storage with dynamic
permission ownership, boundary checking against unverified callers, woven
run-time checks, gas metering, and full-ledger rollback on any failure.

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
from dataclasses import dataclass, field, replace

from .lang import (
    Acc, Assign, AssertStmt, BinOp, BoolOp, Call, Check, Cmp, Contract,
    GAssign, If, IntLit, Method, Name, NotOp, Old, PredUse, PREDICATE_DEPTH_CAP,
    Program, Result, Return, UINT_MAX, While,
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


class VmLoadError(Exception):
    pass


class VmUsageError(Exception):
    pass


class Revert(Exception):
    def __init__(self, reason, **detail):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


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
        self.slots[contract][slot] = value

    def as_dict(self):
        return copy.deepcopy(self.slots)


class GasMeter:
    def __init__(self, limit=None):
        self.exec_gas = 0
        self.check_gas = 0
        self.limit = limit

    def charge_exec(self, n=1):
        self.exec_gas += n
        self._guard()

    def charge_check(self, n=1):
        self.check_gas += n
        self._guard()

    def _guard(self):
        if self.limit is not None and self.exec_gas + self.check_gas > self.limit:
            raise Revert(GAS_EXHAUSTED)


@dataclass
class VmOptions:
    # the unprotected debug mode disables permission tracking, woven checks,
    # and boundary checking; it exists to demonstrate the attack class the
    # protections close off
    protected: bool = True


class Frame:
    def __init__(self, frame_id, contract: Contract, method: Method, env, caller,
                 imprecise_entry, verified):
        self.id = frame_id
        self.contract = contract
        self.method = method
        self.env = env
        self.caller = caller
        self.imprecise_entry = imprecise_entry
        self.verified = verified
        self.old = {}
        self.result = None
        self.lazy_acquired = []  # (slot, previous owner)


@dataclass
class VmImage:
    program: Program  # combined, resolved, with woven checks
    boundary: dict  # (contract, method) -> [BoundaryEntry]
    sidecar: dict
    unverified: frozenset  # contract names


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
        impl_unit = parse_program(lex(impl_src, f"<adversary {c.name}>"))
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


def load_program(ip, adversaries: dict = None) -> VmImage:
    """Build an executable image; accepts an InstrumentedProgram, a
    (program, boundary rows) pair from re-loading woven text, or a bare
    Program.  Each method's table is rebuilt from its spec plus the given
    residual rows."""
    if isinstance(ip, InstrumentedProgram):
        program, residuals, sidecar = ip.program, ip.boundary_residuals, dict(ip.sidecar)
    elif isinstance(ip, tuple):
        (program, residuals), sidecar = ip, {}
    else:
        program, residuals, sidecar = ip, {}, {}
    combined, unverified = merge_adversaries(program, adversaries)
    tables = {(c.name, m.name): build_boundary_table(c, m, residuals.get((c.name, m.name), ()))
              for c in combined.contracts for m in c.methods}
    return VmImage(combined, tables, sidecar, frozenset(unverified))


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
        if frame.imprecise_entry and (o is None or (frame.caller is not None
                                                    and o == frame.caller.id)):
            self.perm[key] = frame.id
            frame.lazy_acquired.append((slot, o))
            return True
        return False

    # -- transactions --------------------------------------------------------

    def exec_transaction(self, tx: Transaction, gas_limit=None) -> Outcome:
        target_c = self.image.program.contract(tx.contract)
        if target_c is None:
            raise VmUsageError(f"unknown contract {tx.contract!r}")
        target_m = target_c.method(tx.method)
        if target_m is None:
            raise VmUsageError(f"unknown method {tx.contract}.{tx.method}")
        if len(tx.args) != len(target_m.params):
            raise VmUsageError(f"{tx.contract}.{tx.method} expects {len(target_m.params)} argument(s)")
        for a in tx.args:
            if not (0 <= int(a) <= UINT_MAX):
                raise VmUsageError("transaction argument out of uint64 range")

        snap = self.ledger.snapshot()
        self.meter = GasMeter(gas_limit)
        self.perm = {}
        try:
            self.call(tx.contract, tx.method, [int(a) for a in tx.args], caller=None)
            out = Outcome("committed", self.meter.exec_gas, self.meter.check_gas)
        except Revert as e:
            self.ledger.restore(snap)
            out = Outcome("reverted", self.meter.exec_gas, self.meter.check_gas,
                          reason=e.reason, detail=e.detail)
        finally:
            self.perm = {}
        return out

    # -- calls ---------------------------------------------------------------

    def call(self, cname, mname, args, caller):
        contract = self.image.program.contract(cname)
        method = contract.method(mname)
        verified = cname not in self.image.unverified
        imprecise_entry = method.spec.requires.imprecise or not verified
        env = {p: v for (p, _), v in zip(method.params, args)}
        self.frames += 1
        frame = Frame(self.frames, contract, method, env, caller, imprecise_entry, verified)
        boundary_active = caller is None or not caller.verified

        if verified and self.options.protected:
            self._boundary_checks(frame, "entry", boundary_active)
            # acquire the requires acc list: each slot free or the caller's
            for a in method.spec.requires.atoms:
                if not isinstance(a, Acc):
                    continue
                if boundary_active:
                    self.meter.charge_check()
                o = self.perm.get((cname, a.slot))
                if o is not None and (caller is None or o != caller.id):
                    raise Revert(OWNERSHIP_FAILURE, slot=a.slot, kind="access",
                                 line=a.loc.line, contract=cname)
                self.perm[(cname, a.slot)] = frame.id

        frame.old = {g: self.ledger.read(cname, g) for g in contract.globals}

        try:
            self.exec_block(frame, method.body)
        except _ReturnSignal as r:
            frame.result = r.value

        self.exit_protocol(frame, boundary_active)
        return frame.result

    def _boundary_checks(self, frame, kind, active):
        """Evaluate the frame's `kind` ("entry" or "exit") boundary rows: the
        residual-backed ones always, the rest only when `active` (called from
        the top level or from unverified code).  acc rows of the spec, and
        every acc row at exit, are settled by ownership instead."""
        for e in self.image.boundary.get((frame.contract.name, frame.method.name), ()):
            if e.kind != kind or not (active or e.check_id is not None):
                continue
            if isinstance(e.payload, Acc) and (kind == "exit" or e.check_id is None):
                continue
            if not self.eval_spec_bool(frame, e.payload):
                raise Revert(CHECK_FAILURE, check_id=e.check_id,
                             kind="precondition" if kind == "entry" else "postcondition",
                             payload=fmt_atom(e.payload), line=e.payload.loc.line)

    def exit_protocol(self, frame, boundary_active):
        cname = frame.contract.name
        if not self.options.protected:
            return
        if frame.verified:
            self._boundary_checks(frame, "exit", boundary_active)
        # transfer ensures permissions back to the caller (FREE at top level)
        ensured = set()
        for a in frame.method.spec.ensures.atoms:
            if not isinstance(a, Acc):
                continue
            ensured.add(a.slot)
            if not self._hold(frame, a.slot):
                raise Revert(OWNERSHIP_FAILURE, slot=a.slot, kind="access",
                             line=a.loc.line, contract=cname)
            self.perm[(cname, a.slot)] = frame.caller.id if frame.caller else None
            if self.perm[(cname, a.slot)] is None:
                del self.perm[(cname, a.slot)]
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

    # -- statement execution -------------------------------------------------

    def exec_block(self, frame, body):
        for s in body:
            self.exec_stmt(frame, s)

    def exec_stmt(self, frame, s):
        if isinstance(s, AssertStmt):
            return  # ghost: its residuals were woven as explicit checks
        if isinstance(s, Check):
            if self.options.protected:
                ok = self.eval_spec_bool(frame, s.payload)
                if not ok:
                    raise Revert(CHECK_FAILURE, check_id=s.check_id,
                                 payload=fmt_atom(s.payload), line=s.loc.line)
            return
        self.meter.charge_exec()
        if isinstance(s, Assign):
            frame.env[s.target] = self.eval_value(frame, s.expr, s.loc)
        elif isinstance(s, GAssign):
            v = self.eval_value(frame, s.expr, s.loc)
            self.touch_slot(frame, s.slot, s.loc)
            self.ledger.write(frame.contract.name, s.slot, v)
        elif isinstance(s, If):
            if self.eval_cond(frame, s.cond, s.loc):
                self.exec_block(frame, s.then)
            elif s.orelse:
                self.exec_block(frame, s.orelse)
        elif isinstance(s, While):
            while self.eval_cond(frame, s.cond, s.loc):
                self.exec_block(frame, s.body)
                self.meter.charge_exec()  # next condition evaluation
        elif isinstance(s, Call):
            args = [self.eval_value(frame, a, s.loc) for a in s.args]
            ret = self.call(s.contract, s.method, args, caller=frame)
            if s.target is not None:
                frame.env[s.target] = ret
        elif isinstance(s, Return):
            value = self.eval_value(frame, s.expr, s.loc) if s.expr is not None else None
            raise _ReturnSignal(value)
        else:
            raise TypeError(f"not a statement: {s!r}")

    def touch_slot(self, frame, slot, loc):
        """Require ownership for a program-level global read/write."""
        if self.options.protected and not self._hold(frame, slot):
            raise Revert(OWNERSHIP_FAILURE, slot=slot, kind="access",
                         line=loc.line, contract=frame.contract.name)

    # -- program-level (checked uint64) evaluation ---------------------------

    def eval_value(self, frame, e, loc):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, Name):
            if e.scope == "global" or (e.scope is None and e.name in frame.contract.globals):
                self.touch_slot(frame, e.name, e.loc)
                return self.ledger.read(frame.contract.name, e.name)
            return frame.env[e.name]
        if isinstance(e, BinOp):
            l = self.eval_value(frame, e.left, loc)
            r = self.eval_value(frame, e.right, loc)
            if e.op == "+":
                v = l + r
                if v > UINT_MAX:
                    raise Revert(ARITHMETIC_PANIC, kind="overflow", line=loc.line)
                return v
            if e.op == "-":
                if l < r:
                    raise Revert(ARITHMETIC_PANIC, kind="underflow", line=loc.line)
                return l - r
            if e.op == "*":
                v = l * r
                if v > UINT_MAX:
                    raise Revert(ARITHMETIC_PANIC, kind="overflow", line=loc.line)
                return v
            if r == 0:
                raise Revert(ARITHMETIC_PANIC, kind="div-zero", line=loc.line)
            return l // r if e.op == "/" else l % r
        raise TypeError(f"not a runtime expression: {e!r}")

    def eval_cond(self, frame, c, loc):
        # strict evaluation: every leaf is evaluated
        if isinstance(c, Cmp):
            l = self.eval_value(frame, c.left, loc)
            r = self.eval_value(frame, c.right, loc)
            return _compare(c.op, l, r)
        if isinstance(c, BoolOp):
            vals = [self.eval_cond(frame, p, loc) for p in c.parts]
            return all(vals) if c.op == "and" else any(vals)
        if isinstance(c, NotOp):
            return not self.eval_cond(frame, c.operand, loc)
        raise TypeError(f"not a condition: {c!r}")

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
        return _compare(c.op, self.eval_spec_value(c.left, env, contract, frame),
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
            if e.name in contract.globals:
                return self.ledger.read(contract.name, e.name)
            raise VmUsageError(f"unbound name {e.name!r} in check payload")
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


def _compare(op, l, r):
    return {
        "==": l == r, "!=": l != r, "<=": l <= r,
        "<": l < r, ">=": l >= r, ">": l > r,
    }[op]


# ---------------------------------------------------------------------------
# Scripts


def run_script(image: VmImage, script, gas_limit=None, ledger: Ledger = None,
               options: VmOptions = None):
    """Execute transactions in order against an evolving ledger; returns
    (outcomes, gas report dict)."""
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
    """Transaction script: JSON lines {contract, method, args}; other keys
    are ignored."""
    txs = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        txs.append(Transaction(obj["contract"], obj["method"],
                               tuple(int(a) for a in obj.get("args", []))))
    return txs
