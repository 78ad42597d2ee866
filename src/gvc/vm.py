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
import sys
from dataclasses import dataclass, field, replace

from .lang import (
    Acc, Assign, AssertStmt, BinOp, BoolOp, Call, Check, Cmp, Contract,
    GAssign, If, IntLit, Method, Name, NotOp, Old, PredUse, Program, Result,
    Return, UINT_MAX, While,
)
from .frontend import infer_types, resolve
from .parser import parse_program
from .lexer import lex
from .printer import fmt_atom
from .weaver import InstrumentedProgram, build_boundary_table

PREDICATE_DEPTH_CAP = 1024

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
    sender: str = "external"


@dataclass
class Outcome:
    status: str  # "committed" | "reverted"
    exec_gas: int
    check_gas: int
    reason: str = None
    detail: dict = field(default_factory=dict)
    deltas: dict = field(default_factory=dict)

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
    def __init__(self, program: Program = None, init: dict = None):
        self.slots = {}
        if program is not None:
            for c in program.contracts:
                self.slots[c.name] = {g: 0 for g in c.globals}
        for cname, slots in (init or {}).items():
            if cname not in self.slots:
                self.slots[cname] = {}
            for slot, val in slots.items():
                self.slots[cname][slot] = int(val)

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
        self.entry_acquired = []  # slots acquired via the requires acc list
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

    def owner(self, contract, slot):
        return self.perm.get((contract, slot))

    def _can_lazy(self, frame, contract, slot):
        o = self.owner(contract, slot)
        if o is None:
            return True
        return frame.caller is not None and o == frame.caller.id

    def _lazy_acquire(self, frame, contract, slot):
        prev = self.owner(contract, slot)
        self.perm[(contract, slot)] = frame.id
        frame.lazy_acquired.append((slot, prev))

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
            deltas = _deltas(snap, self.ledger.slots)
            out = Outcome("committed", self.meter.exec_gas, self.meter.check_gas, deltas=deltas)
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
            table = self.image.boundary.get((cname, mname), [])
            for e in table:
                if e.kind != "entry":
                    continue
                if isinstance(e.payload, Acc) and e.check_id is None:
                    continue  # spec acc list handled by acquisition below
                if not (boundary_active or e.check_id is not None):
                    continue
                ok = self.eval_spec_bool(frame, e.payload)
                if not ok:
                    raise Revert(CHECK_FAILURE, check_id=e.check_id,
                                 kind="precondition", payload=fmt_atom(e.payload),
                                 line=_atom_line(e.payload))
            for a in method.spec.requires.atoms:
                if not isinstance(a, Acc):
                    continue
                o = self.owner(cname, a.slot)
                if boundary_active:
                    self.meter.charge_check()
                if o is None:
                    self.perm[(cname, a.slot)] = frame.id
                    frame.entry_acquired.append(a.slot)
                elif caller is not None and o == caller.id:
                    self.perm[(cname, a.slot)] = frame.id
                    frame.entry_acquired.append(a.slot)
                else:
                    raise Revert(OWNERSHIP_FAILURE, slot=a.slot, kind="access",
                                 line=a.loc.line, contract=cname)

        frame.old = {g: self.ledger.read(cname, g) for g in contract.globals}

        result = None
        try:
            self.exec_block(frame, method.body)
        except _ReturnSignal as r:
            result = r.value
        frame.result = result

        self.exit_protocol(frame, boundary_active)
        return result

    def exit_protocol(self, frame, boundary_active):
        cname = frame.contract.name
        if not self.options.protected:
            return
        if frame.verified:
            table = self.image.boundary.get((cname, frame.method.name), [])
            for e in table:
                if e.kind != "exit" or isinstance(e.payload, Acc):
                    continue
                if not (boundary_active or e.check_id is not None):
                    continue
                if not self.eval_spec_bool(frame, e.payload):
                    raise Revert(CHECK_FAILURE, check_id=e.check_id,
                                 kind="postcondition", payload=fmt_atom(e.payload),
                                 line=_atom_line(e.payload))
        # transfer ensures permissions back to the caller (FREE at top level)
        ensured = set()
        for a in frame.method.spec.ensures.atoms:
            if not isinstance(a, Acc):
                continue
            ensured.add(a.slot)
            o = self.owner(cname, a.slot)
            if o != frame.id:
                if frame.imprecise_entry and (o is None or (frame.caller and o == frame.caller.id)):
                    self.perm[(cname, a.slot)] = frame.id
                else:
                    raise Revert(OWNERSHIP_FAILURE, slot=a.slot, kind="access",
                                 line=a.loc.line, contract=cname)
            self.perm[(cname, a.slot)] = frame.caller.id if frame.caller else None
            if self.perm[(cname, a.slot)] is None:
                del self.perm[(cname, a.slot)]
        # lazily borrowed permissions revert to their previous owner
        for slot, prev in reversed(frame.lazy_acquired):
            if slot in ensured:
                continue
            if self.owner(cname, slot) == frame.id:
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
        if not self.options.protected:
            return
        cname = frame.contract.name
        o = self.owner(cname, slot)
        if o == frame.id:
            return
        if frame.imprecise_entry and self._can_lazy(frame, cname, slot):
            self._lazy_acquire(frame, cname, slot)
            return
        raise Revert(OWNERSHIP_FAILURE, slot=slot, kind="access",
                     line=loc.line, contract=cname)

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
        """Check payload / boundary atom: True or False plus gas."""
        if isinstance(payload, Cmp):
            self.meter.charge_check()
            l = self.eval_spec_value(payload.left, frame.env, frame.contract, frame)
            r = self.eval_spec_value(payload.right, frame.env, frame.contract, frame)
            return _compare(payload.op, l, r)
        if isinstance(payload, Acc):
            self.meter.charge_check()
            cname = frame.contract.name
            o = self.owner(cname, payload.slot)
            if o == frame.id:
                return True
            if frame.imprecise_entry and self._can_lazy(frame, cname, payload.slot):
                self._lazy_acquire(frame, cname, payload.slot)
                return True
            return False
        if isinstance(payload, PredUse):
            args = [self.eval_spec_value(a, frame.env, frame.contract, frame)
                    for a in payload.args]
            return self.eval_predicate(frame.contract, payload.name, args, depth=1)
        raise TypeError(f"not a check payload: {payload!r}")

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

    def eval_predicate(self, contract, name, args, depth):
        if depth > PREDICATE_DEPTH_CAP:
            raise Revert(PREDICATE_DEPTH, predicate=name)
        if depth <= 1:
            # the depth cap bounds recursion, but each level costs several
            # interpreter frames; make sure the Python stack can hold them
            sys.setrecursionlimit(max(sys.getrecursionlimit(),
                                      40 * PREDICATE_DEPTH_CAP))
        pred = contract.predicate(name)
        self.meter.charge_check()  # the predicate call itself
        env = dict(zip(pred.params, args))

        def walk(node):
            if isinstance(node, Cmp):
                self.meter.charge_check()
                return _compare(node.op, self.eval_spec_value(node.left, env, contract, None),
                                self.eval_spec_value(node.right, env, contract, None))
            if isinstance(node, PredUse):
                sub = [self.eval_spec_value(a, env, contract, None) for a in node.args]
                return self.eval_predicate(contract, node.name, sub, depth + 1)
            if isinstance(node, BoolOp):
                if node.op == "and":
                    for p in node.parts:  # short-circuit
                        if not walk(p):
                            return False
                    return True
                for p in node.parts:
                    if walk(p):
                        return True
                return False
            if isinstance(node, NotOp):
                return not walk(node.operand)
            raise TypeError(f"not a predicate body node: {node!r}")

        return walk(pred.body)


def _compare(op, l, r):
    return {
        "==": l == r, "!=": l != r, "<=": l <= r,
        "<": l < r, ">=": l >= r, ">": l > r,
    }[op]


def _atom_line(payload):
    return getattr(payload, "loc", None).line if getattr(payload, "loc", None) else 0


def _deltas(before, after):
    out = {}
    for cname, slots in after.items():
        for slot, v in slots.items():
            if before.get(cname, {}).get(slot, 0) != v:
                out.setdefault(cname, {})[slot] = v
    return out


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
    """Transaction script: JSON lines {contract, method, args, sender}."""
    txs = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        txs.append(Transaction(obj["contract"], obj["method"],
                               tuple(int(a) for a in obj.get("args", [])),
                               obj.get("sender", "external")))
    return txs
