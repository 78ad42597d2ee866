"""Deterministic ledger VM for instrumented contracts.

Executes transactions over persistent per-contract storage with dynamic
permission ownership, boundary checking against callers from other
contracts, woven run-time checks, gas metering, and rollback of every write
on any failure.

`load_program` compiles everything once, through one emitter: each method
body, with each nested block that nests a block of its own, each method's
call protocol (an entry and an exit function, which check its entry and
exit rows and move its acc slots), and each predicate body becomes a
generated Python function, compiled with compile() (see "Compiled code"
below).  A block function keeps the GCL locals it touches in Python
locals: it loads them all at entry, stores all it may assign before other
generated code reads env, and reloads what a nested block may assign.  The
source line a revert reports and each call's boundary decisions are fixed
at compile time, and compiled code is a function of the running Frame and
the names in scope.  One image serves every Vm made from it, so compiled
code reaches the ledger, the permission table, the gas meter and the Vm
only through the frame it is handed.  A transaction runs compiled
code only; nothing is compiled or walked as a tree at run time.

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
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .lang import (
    Acc, Assign, AssertStmt, BinOp, BoolOp, CALL_DEPTH_CAP, Call, Check, Cmp,
    Contract, assigned_names, bool_leaves, call_charge, expr_nodes, If, IntLit, Method, Name,
    NotOp, Old, PredUse, PREDICATE_DEPTH_CAP, Program, Result, Return, stmt_exprs, UINT_MAX,
    While,
)
from .frontend import infer_types, resolve
from .parser import parse_program
from .lexer import lex
from .printer import fmt_atom
from .weaver import InstrumentedProgram, check_map

CHECK_FAILURE = "CheckFailure"
OWNERSHIP_FAILURE = "OwnershipFailure"
ARITHMETIC_PANIC = "ArithmeticPanic"
GAS_EXHAUSTED = "GasExhausted"
PREDICATE_DEPTH = "PredicateDepthExceeded"
CALL_DEPTH = "CallDepthExceeded"


class VmLoadError(Exception):
    pass


class VmUsageError(Exception):
    pass


class Revert(Exception):
    """A transaction's failure: its `reason`, and a `detail` that names the
    failed site (see oracle.vm_site): a woven check by its `check_id`, any
    other by its `kind` and, where it has one, its source `line`.  A revert
    is raised and caught once per failing transaction and its text is
    rarely read, so it is built only by str()."""

    def __init__(self, reason, **detail):
        self.reason = reason
        self.detail = detail

    def __str__(self):
        return f"{self.reason}: {self.detail}"


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
    check gas of an acc or comparison, inline by the same rule (see
    _Emitter.charge)."""

    def __init__(self, limit=None):
        self.exec_gas = 0
        self.check_gas = 0
        self.limit = limit

    def charge_check(self):
        self.check_gas += 1
        if self.limit is not None and self.exec_gas + self.check_gas > self.limit:
            raise Revert(GAS_EXHAUSTED, kind=GAS_EXHAUSTED)


class MethodCode:
    """One method of a loaded image: its parameter names; whether its
    requires is imprecise (or its contract extern); whether its ensures is
    imprecise in a verified contract; its contract's compiled
    predicates (shared by the contract's methods); its body, a generated function that takes the running Frame
    and its locals and returns True when the body executed a return; and
    its generated `entry` and `exit` functions (see "Compiled code"), each
    None where it would do nothing, as both are in an unprotected image.
    The body, its woven checks, the entry and the exit compile in one
    source."""

    def __init__(self, contract: Contract, method: Method, predicates, protected):
        spec = method.spec
        self.contract = contract
        self.params = tuple(p for p, _ in method.params)
        self.imprecise_entry = spec.requires.imprecise or contract.extern
        self.imprecise_exit = spec.ensures.imprecise and not contract.extern
        self.predicates = predicates
        self.body, self.entry, self.exit = _Emitter(contract, protected).compile(method)


class Frame:
    """One running method: its locals, permissions state and result, plus
    the running transaction's Vm, storage, undo log, permission table and
    gas meter that compiled code reaches through it."""

    __slots__ = ("vm", "id", "code", "contract", "env", "caller", "depth", "slots",
                 "journal", "perm", "meter", "old", "result", "lazy_acquired")

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
        self.old = None  # the contract's storage at entry, if an exit row reads it
        self.result = None
        self.lazy_acquired = []  # (slot, previous owner)


@dataclass
class VmImage:
    """A loaded program.  Its check map derives from the program it runs, so
    a woven program blames a failed check alike in memory and re-loaded."""

    program: Program  # combined, resolved, with woven checks
    checks: dict  # weaver.check_map(program): id -> {line, kind, payload}
    unverified: frozenset  # contract names
    code: dict  # (contract, method) -> MethodCode


def merge_adversaries(program: Program, adversaries: dict = None):
    """Give extern contracts executable bodies: an adversary source where one
    is supplied (type-checked, never verified), no-op bodies otherwise.
    Returns (resolved combined Program, set of unverified contract names).
    Only an adversary source re-checks the whole program, against which its
    calls resolve; no-op bodies are well-formed by construction."""
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
        impl_program = parse_program(lex(impl_src, impl_name), impl_name)
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
    combined = Program(tuple(contracts))
    if adversaries:
        infer_types(combined)
        resolve(combined)
    return combined, unverified


def with_own_contracts(merged: Program, own: Program) -> Program:
    """The combined program of `own`, built from `merged`, the combined
    program (merge_adversaries) of a program with the same contracts,
    without re-parsing or re-resolving: `own`'s contracts, which are
    resolved already, take their counterparts' places and the merged
    extern contracts stay."""
    return Program(tuple(m if m.extern else o
                         for m, o in zip(merged.contracts, own.contracts)))


def load_program(ip, adversaries: dict = None, protected=True) -> VmImage:
    """Build an executable image of a woven Program or InstrumentedProgram
    (or of the pair load_source returns, for `bench/`): each method's body
    and call protocol compiled (see "Compiled code"), and each contract's
    predicate bodies once.  The image takes the program as the weaver made
    it from a verified one: an ensures atom without an exit row is taken as
    proved (`gvc run` verifies a text first).  Unprotected (a debug mode),
    the image tracks no permissions and evaluates no woven check or
    boundary row, to demonstrate the attack class the protections close
    off."""
    if isinstance(ip, InstrumentedProgram):
        program = ip.program
    else:
        program = ip[0] if isinstance(ip, tuple) else ip
    combined, unverified = merge_adversaries(program, adversaries)
    code = {}
    for c in combined.contracts:
        predicates = _predicates(c) if protected else {}
        for m in c.methods:
            code[(c.name, m.name)] = MethodCode(c, m, predicates, protected)
    return VmImage(combined, check_map(combined), frozenset(unverified), code)


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
                init = {}  # each case's own dicts, which a caller may mutate
                for cn, gs, i in spans:
                    init[cn] = dict(zip(gs, point[i:]))
                yield c, m, init, Transaction(c.name, m.name, point[n:])


class Vm:
    def __init__(self, image: VmImage, ledger: Ledger):
        """A VM running transactions of `image` on `ledger`."""
        self.image = image
        self.ledger = ledger
        # (contract, slot) -> frame id, or minus a frame id for a free slot
        # that frame may take back (a claim, see Vm.call); FREE when absent
        self.perm = {}
        self.meter = None
        self.frames = 0  # frames entered so far; numbers the next one

    # -- permission ledger ---------------------------------------------------

    def _hold(self, frame, slot):
        """Whether `frame` may use `slot` of its contract: it owns the slot;
        it claims the slot, which it then takes back; or it was entered
        imprecisely and the slot is free (claimed by another frame or not)
        or its caller's, in which case the frame borrows it (recorded in
        lazy_acquired)."""
        key = (frame.contract.name, slot)
        o = self.perm.get(key)
        if o == frame.id:
            return True
        if o == -frame.id:
            self.perm[key] = frame.id
            return True
        if frame.code.imprecise_entry and (o is None or o < 0 or (frame.caller is not None
                                                              and o == frame.caller.id)):
            self.perm[key] = frame.id
            frame.lazy_acquired.append((slot, o))
            return True
        return False

    # -- transactions --------------------------------------------------------

    def exec_transaction(self, tx: Transaction, gas_limit=None) -> Outcome:
        """Run one transaction, which check_transaction validates first, and
        commit its writes or roll them back."""
        check_transaction(self.image, tx)
        return self._exec(tx, gas_limit)

    def _exec(self, tx, gas_limit):
        """exec_transaction of a transaction already validated."""
        self.meter = GasMeter(gas_limit)
        self.perm = {}
        out = None
        self.ledger.begin()
        try:
            self.call(tx.contract, tx.method, tx.args, None)
            out = Outcome("committed", self.meter.exec_gas, self.meter.check_gas)
        except Revert as e:
            out = Outcome("reverted", self.meter.exec_gas, self.meter.check_gas,
                          reason=e.reason, detail=e.detail)
        finally:
            self.perm = {}
            self.ledger.end(undo=out is None or not out.committed)
        return out

    # -- calls ---------------------------------------------------------------

    def call(self, cname, mname, args, caller, charge=1, active=True, site=None):
        """Run a method; a call from `caller` adds `charge` to the call
        depth (see CALL_DEPTH_CAP).  The method's entry function, given the
        `active` and `site` that the compiled call site fixes (see "Compiled
        code"), checks its entry rows and acquires its requires acc slots,
        and its exit function checks its exit rows and hands its ensures
        acc slots back.  Then each slot the frame borrowed lazily goes back
        to its previous owner, and every other slot the frame holds or
        claims is released; the caller claims it if the method's ensures is
        imprecise and its contract verified."""
        code = self.image.code[(cname, mname)]
        depth = 1 if caller is None else caller.depth + charge
        if depth > CALL_DEPTH_CAP:
            raise Revert(CALL_DEPTH, kind="call-depth", method=f"{cname}.{mname}")
        self.frames += 1
        frame = Frame(self, self.frames, code, dict(zip(code.params, args)), caller, depth)
        if code.entry is not None:
            code.entry(frame, frame.env, active, site)
        code.body(frame, frame.env)
        if code.exit is not None:
            code.exit(frame, frame.env)
        if caller is None:  # the transaction's permissions are dropped whole
            return frame.result
        perm, fid = self.perm, frame.id
        # a lazily borrowed slot the frame holds or claims goes back to its
        # previous owner (free, a claim, or the caller)
        for slot, prev in reversed(frame.lazy_acquired):
            key = (cname, slot)
            o = perm.get(key)
            if o == fid or o == -fid:
                if prev is None:
                    del perm[key]
                else:
                    perm[key] = prev
        # an imprecise ensures may have promised the caller any slot the
        # frame still holds or claims: it is freed, and the caller claims it,
        # so the caller takes it back at its next use while no other frame
        # has taken it; a precise ensures frees it
        for key, o in list(perm.items()):
            if o == fid or o == -fid:
                if code.imprecise_exit:
                    perm[key] = -caller.id
                else:
                    del perm[key]
        return frame.result


# ---------------------------------------------------------------------------
# Compiled code.  A method body compiles to a generated Python function of
# the running Frame `fr` and its locals `env`, a block function.  A
# then/else branch or while body that nests no if or while (straight-line)
# is inline in its parent's function; one that nests a block is a call to
# a block function of its own.  So a function holds at most one loop and
# Python nesting never follows GCL nesting (CPython refuses more than 20
# nested loops, and the parser accepts MAX_NESTING nested bodies); an
# expression is three-address code, one temporary per operation, so its
# depth never becomes Python parenthesis depth.  A block function returns
# True when it executed a return (the value is then in fr.result).  Every
# statement but a woven check charges 1 exec gas before it runs, and a while
# 1 more per re-evaluation of its condition; asserts are ghost code (their
# residuals were woven as checks) and emit nothing.
#
# A block function keeps each GCL local and parameter that its own code
# touches in a Python local v<i>, named after the name's constant _k<i>
# (register promotion), by three rules.  (1) Its prologue loads each with
# env.get: a local not yet assigned reads None, which frontend.infer_types
# guarantees is never read.  (2) Before generated code that reads env runs
# (a nested block, or a spec formula's function), and when a nested block
# falls through, it stores every promoted local that its statements, nested
# blocks included, may assign; a loop whose body is a block of its own
# stores once, before its first pass.  (3) After a nested block returns, it
# reloads every promoted local the block may assign.  A return ends the
# method, whose exit reads only parameters, which are never assigned, so
# neither a return nor the method body's end stores anything.  A frame
# field (fr.slots, fr.perm, fr.id, fr.journal) is a local in a function
# that reads it twice or in a loop.
#
# Each method's call protocol compiles with its body.  Its entry function,
# of (fr, env, active, site), evaluates its entry rows, the requires atoms
# that are not acc, only when `active`, a failing one blaming `site` if
# there is one, else its own line; then it acquires each requires acc slot
# (_acquire).  A method of an extern contract has neither.  Each call site
# fixes both: a caller reasons only about its own contract's specs, so a
# call is `active` from another contract (or the top level), and `site` is
# a verified caller's call line.  The exit function, of (fr, env), runs the
# method's non-acc `#! exit` rows (the residuals the verifier left at exit)
# on every call, each by the rule of a woven check in a body (a failure
# names its check id alone; weaver.check_map says where it blames), and
# hands each ensures acc slot back (_hand_back).
# If an exit row reads old(...), the body function first snapshots the
# contract's storage.  Vm.call runs the entry and exit around the body, so
# the Python stack still holds Vm.call and the block functions per GCL
# call.  An unprotected image compiles no entry or exit function, woven
# check or ownership test.
#
# Specification payloads (woven checks, exit and entry rows) are evaluated
# inline in the function that holds them, over mathematical integers: names
# read the promoted locals, or `env` outside a block function, then the
# frame's contract's storage, with no ownership test, and old(...) and
# result read the frame.  Each and/or is a function of (fr, env) of its own
# that short-circuits, so Python nesting never follows the formula's
# either; a `not` is inline.  A formula that holds a predicate
# instance compiles to a generator function: it yields (predicate name,
# argument values) for each instance, is sent the instance's truth, and
# returns its own (see eval_spec_bool).  A predicate body compiles to a
# function of (fr, env) that returns its truth, or to such a generator.
#
# The generated source holds only the emitter's own tokens, temporaries and
# the integers it formats (literals, lines, call charges): every program
# identifier, slot key, check id and payload text is a constant of the
# function's namespace that the emitter names (_k0, _k1, ...), and the
# namespace holds no builtins.  A method's block, spec, entry and exit
# functions compile in one source, and a contract's predicates in another;
# compile() costs about 9 us per generated line, paid once at load_program.

# each frame field that generated code reads, and the name of the local
# that holds it in a function that reads it more than once or in a loop; no
# other token of generated code contains "fr.<field>"
_FIELDS = {"fr.slots": "slots", "fr.perm": "perm", "fr.id": "fid", "fr.journal": "journal"}

# the Python token of each program operator
_TOKENS = {"==": "==", "!=": "!=", "<=": "<=", "<": "<", ">=": ">=", ">": ">",
           "+": "+", "-": "-", "*": "*", "/": "//", "%": "%"}


# what generated code calls by name: an ownership test, the call
# protocol's moves of acc slots, the reverts, and the driver of predicate
# instances


def _touch(fr, slot, line):
    """Require ownership of a slot of the frame's contract for a program
    global read or write.  Generated code calls this only when the frame
    does not already own the slot."""
    if not fr.vm._hold(fr, slot):
        raise _access_denied(fr, slot, line)


def _access_denied(fr, slot, line):
    return Revert(OWNERSHIP_FAILURE, slot=slot, kind="access", line=line,
                  contract=fr.contract.name)


def _gas_exhausted():
    return Revert(GAS_EXHAUSTED, kind=GAS_EXHAUSTED)


def _overflow(line):
    return Revert(ARITHMETIC_PANIC, kind="overflow", line=line)


def _underflow(line):
    return Revert(ARITHMETIC_PANIC, kind="underflow", line=line)


def _div_zero(line):
    return Revert(ARITHMETIC_PANIC, kind="div-zero", line=line)


def _check_failed(check_id):
    """The revert of a woven check or exit row: its id alone, whose line,
    kind and payload the image's check map (weaver.check_map) holds."""
    return Revert(CHECK_FAILURE, check_id=check_id)


def _row_failed(row, site):
    """The revert of an entry row, given its (payload text, line), at
    `site` if there is one."""
    payload, line = row
    return Revert(CHECK_FAILURE, check_id=None, kind="precondition", payload=payload,
                  line=site or line)


def _acquire(fr, acc, active):
    """Acquire a requires acc slot, given its (key, slot, line), for the
    frame at entry, charging 1 check gas when `active`: the slot must be
    free (claimed or not) or the caller's."""
    key, slot, line = acc
    if active:
        fr.meter.charge_check()
    o = fr.perm.get(key)
    if o is not None and o > 0 and (fr.caller is None or o != fr.caller.id):
        raise _access_denied(fr, slot, line)
    fr.perm[key] = fr.id


def _hand_back(fr, acc):
    """Transfer an ensures acc slot, given its (key, slot, line), from the
    frame to its caller at exit (free it at the top level): the frame must
    hold the slot."""
    key, slot, line = acc
    perm = fr.perm
    if perm.get(key) != fr.id and not fr.vm._hold(fr, slot):
        raise _access_denied(fr, slot, line)
    if fr.caller is None:
        del perm[key]
    else:
        perm[key] = fr.caller.id


def eval_spec_bool(fr, tree):
    """Truth of a compiled formula that holds predicate instances, given the
    generator `tree` of its function.  Each predicate body being evaluated
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


_RUNTIME = {f.__name__: f for f in (_touch, _gas_exhausted, _overflow, _underflow, _div_zero,
                                    _check_failed, _row_failed, _acquire, _hand_back,
                                    eval_spec_bool)}


def _int(v):
    """An integer as Python source."""
    if type(v) is not int:
        raise TypeError(f"not an integer: {v!r}")
    return "%d" % v


def _acc_atoms(formula):
    """The acc atoms of a spec formula."""
    return [a for a in formula.atoms if isinstance(a, Acc)]


def _straight(body):
    """Whether a block nests no block: its function inlines it."""
    return not any(type(s) is If or type(s) is While for s in body)


def _own_names(body):
    """The names that the code of a block's function reads or assigns
    itself: its statements' and its inlined bodies' expressions, targets
    and inline check payloads.  A loop invariant and an assert emit
    nothing, and a check payload that is a predicate instance is a
    function of its own, which reads env."""
    names = set()
    for s in body:
        t = type(s)
        if t is If or t is While:
            names.update(n.name for n in expr_nodes(*bool_leaves(s.cond)) if type(n) is Name)
            for inner in (s.then, s.orelse) if t is If else (s.body,):
                if _straight(inner):
                    names |= _own_names(inner)
        elif t is Check:
            if type(s.payload) is Cmp:
                names.update(n.name for n in expr_nodes(s.payload) if type(n) is Name)
        elif t is not AssertStmt:
            names.update(n.name for n in stmt_exprs(s) if type(n) is Name)
            if t is not Return and s.target is not None:
                names.add(s.target)
    return names


def _predicates(contract):
    """{name: (parameters, compiled body, holds an instance)} of a
    contract's predicates, compiled in one source."""
    if not contract.predicates:
        return {}
    emitter = _Emitter(contract)
    bodies = [(p, *emitter.formula(p.body)) for p in contract.predicates]
    ns = emitter.load()
    return {p.name: (p.params, ns[name], gen) for p, name, gen in bodies}


class _Function:
    """One generated function while it is emitted (see _Emitter.function)."""

    __slots__ = ("lines", "indent", "temps", "charges", "yields", "loops", "looped", "loads",
                 "promoted", "stores")

    def __init__(self):
        self.lines, self.indent, self.temps = [], 1, 0
        self.charges = self.yields = False  # whether it charges gas, whether it yields
        self.loops = 0  # loops around the line being emitted
        self.looped = set()  # the frame fields read in a loop
        self.loads = []  # prologue lines that load promoted locals from env
        # of a block function: {GCL local: its Python name}, and the lines
        # that store back the promoted locals its statements may assign
        self.promoted = None
        self.stores = ()


class _Emitter:
    """Generated functions of code of `contract` (see above), compiled
    together by load()."""

    def __init__(self, contract, protected=True):
        self.contract = contract
        self.protected = protected
        self.ns = {"__builtins__": {}, **_RUNTIME}
        self.names = {}  # constant -> its namespace name
        self.functions = []  # source of each function, in the order begun
        self.fn = None  # the _Function being emitted

    def compile(self, method):
        """The functions of a method's body, entry and exit (see above),
        the entry or exit None where it would do nothing; unprotected, both
        are None."""
        if not self.protected:
            body = self.block(method.body, 0)
            return self.load()[body], None, None
        spec = method.spec
        exits = [r for r in method.exits if not isinstance(r.payload, Acc)]
        reads_old = any(type(n) is Old for r in exits for n in expr_nodes(r.payload))
        body = self.block(method.body, 0, ["fr.old = fr.slots.copy()"] if reads_old else [])
        entry = None if self.contract.extern else self.entry(spec.requires)
        ensured = _acc_atoms(spec.ensures)

        def emit_exit():
            for r in exits:
                self.stmt(r, 0)  # as a woven check in a body
            for a in ensured:
                self.emit(f"_hand_back(fr, {self.acc(a)})")
        exit_ = self.function("_x", emit_exit)[0] if exits or ensured else None
        ns = self.load()
        return ns[body], entry and ns[entry], exit_ and ns[exit_]

    def load(self):
        """Compile every function emitted into the namespace; returns it."""
        exec(compile("\n".join(self.functions), "<gvc compiled code>", "exec"), self.ns)
        return self.ns

    def function(self, prefix, emit_body, params=""):
        """Emit a function of (fr, env) and `params` whose body
        `emit_body()` emits (`pass` if it emits nothing), with the gas
        prologue if the body charges gas, a local for each frame field it
        reads more than once or in a loop, and its `loads`; returns its
        name and its finished _Function."""
        index = len(self.functions)
        name = f"{prefix}{index}"
        self.functions.append(None)
        outer, fn = self.fn, _Function()
        self.fn = fn
        emit_body()
        self.fn = outer
        body = "\n".join(fn.lines or ["    pass"])
        hoisted = sorted(f for f in _FIELDS if f in fn.looped or body.count(f) > 1)
        for f in hoisted:
            body = body.replace(f, _FIELDS[f])
        prologue = ["m = fr.meter", "lim = m.limit"] if fn.charges else []
        prologue += [f"{_FIELDS[f]} = {f}" for f in hoisted] + fn.loads
        self.functions[index] = "\n".join([f"def {name}(fr, env{params and ', '}{params}):",
                                           *("    " + line for line in prologue), body])
        return name, fn

    def const(self, value):
        """The namespace name of a constant."""
        name = self.names.get(value)
        if name is None:
            name = self.names[value] = f"_k{len(self.names)}"
            self.ns[name] = value
        return name

    def emit(self, line):
        fn = self.fn
        if fn.loops and "fr." in line:
            fn.looped.update(f for f in _FIELDS if f in line)
        fn.lines.append("    " * fn.indent + line)

    def temp(self, expr):
        """A new temporary assigned `expr`; returns its name."""
        name = f"t{self.fn.temps}"
        self.fn.temps += 1
        self.emit(f"{name} = {expr}")
        return name

    def charge(self, gas):
        """Charge 1 `gas` ("exec_gas" or "check_gas")."""
        self.fn.charges = True
        self.emit(f"m.{gas} += 1")
        self.emit("if lim is not None and m.exec_gas + m.check_gas > lim: raise _gas_exhausted()")

    # -- method bodies -------------------------------------------------------

    def block(self, body, nest, first=()):
        """Emit the function of a block that `nest` if/while bodies enclose:
        the lines `first`, then its statements, its straight-line nested
        bodies inline.  Returns its name."""
        def emit_body():
            fn = self.fn
            fn.promoted = {n: "v" + self.const(n)[2:] for n in sorted(_own_names(body))
                           if n not in self.contract.globals}
            fn.loads = [f"{v} = env.get({self.const(n)})" for n, v in fn.promoted.items()]
            fn.stores = [f"env[{self.const(n)}] = {fn.promoted[n]}"
                         for n in sorted(assigned_names(body) & fn.promoted.keys())]
            for line in first:
                self.emit(line)
            self.stmts(body, nest)
            if nest:  # falling through: the caller reloads what the block assigns
                self.store()
        return self.function("_b", emit_body)[0]

    def stmts(self, body, nest):
        """Emit a block's statements inline, each but a check or an assert
        charged 1 exec gas."""
        for s in body:
            if not isinstance(s, (AssertStmt, Check)):
                self.charge("exec_gas")
            self.stmt(s, nest)

    def nested(self, body, nest, loop):
        """Emit a then/else body one level in (`loop` false, `pass` for
        one of asserts alone), or a while body at the current level, that
        `nest` bodies enclose: its statements if it is straight-line, else a
        call of its own block function (after the stores, which a loop made
        before its first pass) that returns if the block returned, then
        reloads each promoted local the block may assign."""
        fn = self.fn
        fn.indent += not loop
        start = len(fn.lines)
        if _straight(body):
            self.stmts(body, nest)
        else:
            if not loop:
                self.store()
            self.emit(f"if {self.block(body, nest)}(fr, env): return True")
            for n in sorted(assigned_names(body) & fn.promoted.keys()):
                self.emit(f"{fn.promoted[n]} = env[{self.const(n)}]")
        if len(fn.lines) == start:
            self.emit("pass")
        fn.indent -= not loop

    def store(self):
        """Store back into env each promoted local that the block function
        may assign, before generated code that reads env runs; no-op
        outside a block function."""
        for line in self.fn.stores if self.fn else ():
            self.emit(line)

    def var(self, name):
        """A local's value as Python source: its promoted local in a block
        function, else its entry in env."""
        if self.fn.promoted is None:
            return f"env[{self.const(name)}]"
        return self.fn.promoted[name]

    def stmt(self, s, nest):
        t = type(s)
        fn = self.fn
        if t is Assign:
            target, line = s.target, s.loc.line
            v = self.value(s.expr, line)
            if target not in self.contract.globals:
                self.emit(f"{self.var(target)} = {v}")
                return
            key, slot = self.const((self.contract.name, target)), self.const(target)
            # an expression that reads the target has made the frame its
            # owner, and evaluating an expression never gives a slot up
            if not any(type(n) is Name and n.name == target for n in expr_nodes(s.expr)):
                self.touch(key, slot, line)
            self.emit(f"if {key} not in fr.journal: fr.journal[{key}] = fr.slots[{slot}]")
            self.emit(f"fr.slots[{slot}] = {v}")
        elif t is If:
            self.emit(f"if {self.cond(s.cond, s.loc.line)}:")
            self.nested(s.then, nest + 1, False)
            if s.orelse:
                self.emit("else:")
                self.nested(s.orelse, nest + 1, False)
        elif t is While:
            if not _straight(s.body):
                self.store()  # once here, not before each pass's call
            self.emit("while True:")
            fn.indent += 1
            fn.loops += 1
            self.emit(f"if not {self.cond(s.cond, s.loc.line)}: break")
            self.nested(s.body, nest + 1, True)
            self.charge("exec_gas")  # the next condition evaluation
            fn.loops -= 1
            fn.indent -= 1
        elif t is Call:
            line = s.loc.line
            args = ", ".join(self.value(a, line) for a in s.args)
            active = s.contract != self.contract.name
            site = "None" if self.contract.extern else _int(line)
            call = (f"fr.vm.call({self.const(s.contract)}, {self.const(s.method)}, [{args}], "
                    f"fr, {_int(call_charge(nest))}, {active}, {site})")
            if s.target is None:
                self.emit(call)
            else:
                self.emit(f"{self.var(s.target)} = {call}")
        elif t is Return:
            v = "None" if s.expr is None else self.value(s.expr, s.loc.line)
            self.emit(f"fr.result = {v}")
            self.emit("return True")
        elif t is Check:
            if self.protected:
                check = self.const(s.check_id)
                self.emit(f"if not {self.payload(s.payload)}: raise _check_failed({check})")
        elif t is not AssertStmt:
            raise TypeError(f"not a statement: {s!r}")

    def touch(self, key, slot, line):
        """Test that the frame owns a slot of its contract, in a protected
        image."""
        if self.protected:
            self.emit(f"if fr.perm.get({key}) != fr.id: _touch(fr, {slot}, {_int(line)})")

    def value(self, e, line):
        """Checked uint64 value of a program expression, as Python source of
        an atom (an integer, a local or a temporary); an arithmetic revert
        reports `line`, the line of the enclosing statement.  Operands are
        in [0, UINT_MAX], so a sum or product can only overflow and a
        difference only underflow."""
        t = type(e)  # node classes are never subclassed
        if t is IntLit:
            return _int(e.value)
        if t is Name:
            if e.name not in self.contract.globals:
                return self.var(e.name)
            slot = self.const(e.name)
            self.touch(self.const((self.contract.name, e.name)), slot, e.loc.line)
            return self.temp(f"fr.slots[{slot}]")
        if t is BinOp:
            op, line_src = _TOKENS[e.op], _int(line)
            left, right = self.value(e.left, line), self.value(e.right, line)
            if e.op in ("/", "%"):
                self.emit(f"if {right} == 0: raise _div_zero({line_src})")
            v = self.temp(f"{left} {op} {right}")
            if e.op == "-":
                self.emit(f"if {v} < 0: raise _underflow({line_src})")
            elif e.op in ("+", "*"):
                self.emit(f"if {v} > {_int(UINT_MAX)}: raise _overflow({line_src})")
            return v
        # old(...) and result parse anywhere, but only specifications give
        # them a meaning
        raise VmLoadError(f"{e.loc}: not a program expression")

    def cond(self, c, line):
        """Truth of a program condition, as a temporary; strict: every leaf
        is evaluated, left to right, before the tree is combined."""
        t = type(c)
        if t is Cmp:
            left, right = self.value(c.left, line), self.value(c.right, line)
            return self.temp(f"{left} {_TOKENS[c.op]} {right}")
        if t is BoolOp:
            parts = [self.cond(p, line) for p in c.parts]
            return self.temp((" and " if c.op == "and" else " or ").join(parts))
        if t is NotOp:
            return self.temp(f"not {self.cond(c.operand, line)}")
        raise TypeError(f"not a condition: {c!r}")

    # -- specifications ------------------------------------------------------

    def entry(self, requires):
        """Emit the entry function of a method's `requires` (see above): its
        entry rows, each failing with its (payload text, line), then an
        _acquire of each acc slot.  Returns its name, or None if it would do
        nothing."""
        if not requires.atoms:
            return None
        rows = [a for a in requires.atoms if not isinstance(a, Acc)]

        def emit_body():
            if rows:
                self.emit("if active:")
                self.fn.indent += 1
            for a in rows:
                row = self.const((fmt_atom(a), a.loc.line))
                self.emit(f"if not {self.payload(a)}: raise _row_failed({row}, site)")
            self.fn.indent = 1  # the function's own level
            for a in _acc_atoms(requires):
                self.emit(f"_acquire(fr, {self.acc(a)}, active)")
        return self.function("_e", emit_body, "active, site")[0]

    def acc(self, a):
        """The namespace name of an acc atom's (slot key, slot, line)."""
        return self.const(((self.contract.name, a.slot), a.slot, a.loc.line))

    def payload(self, f):
        """Truth of a check payload or boundary atom, as truth() gives it:
        inline, or, if it holds a predicate instance, its formula's
        generator driven by eval_spec_bool."""
        if not any(type(a) is PredUse for a in bool_leaves(f)):
            return self.truth(f)
        return f"eval_spec_bool(fr, {self.formula(f)[0]}(fr, env))"

    def formula(self, f):
        """Emit the function of a spec formula (see above), which reads
        env, so the promoted locals are stored back first; returns its name
        and whether it is a generator function."""
        if type(f) is BoolOp:
            stop = f.op == "or"  # the part value that decides the whole

            def emit_body():
                for p in f.parts:
                    self.emit(f"if {'' if stop else 'not '}{self.truth(p)}: return {stop}")
                self.emit(f"return {not stop}")
        else:
            def emit_body():
                self.emit(f"return {self.truth(f)}")
        name, fn = self.function("_s", emit_body)
        self.store()
        return name, fn.yields

    def truth(self, f):
        """Truth of a spec formula, as Python source of a condition (a
        comparison, call, `not` or temporary) that the caller evaluates
        once, in the line it emits next.  An acc or comparison charges 1
        check gas before its operands are evaluated."""
        t = type(f)
        if t is Cmp:
            self.charge("check_gas")
            left, right = self.spec_value(f.left), self.spec_value(f.right)
            return f"{left} {_TOKENS[f.op]} {right}"
        if t is Acc:
            self.charge("check_gas")
            return f"fr.vm._hold(fr, {self.const(f.slot)})"
        if t is NotOp:
            return f"not {self.truth(f.operand)}"
        if t is PredUse:
            args = ", ".join(self.spec_value(a) for a in f.args)
            self.fn.yields = True
            return self.temp(f"yield {self.const(f.name)}, [{args}]")
        if t is BoolOp:
            name, gen = self.formula(f)
            self.fn.yields |= gen
            return self.temp(f"yield from {name}(fr, env)") if gen else f"{name}(fr, env)"
        raise TypeError(f"not a spec formula node: {f!r}")

    def spec_value(self, e):
        """Value of a spec expression, as Python source of an atom; a
        division by zero reverts at the operator's line."""
        t = type(e)
        if t is IntLit:
            return _int(e.value)
        if t is Name:
            if e.name in self.contract.globals:
                return f"fr.slots[{self.const(e.name)}]"
            return self.var(e.name)
        if t is Old:
            return f"fr.old[{self.const(e.slot)}]"
        if t is Result:
            return self.temp("0 if fr.result is None else fr.result")
        if t is BinOp:
            left, right = self.spec_value(e.left), self.spec_value(e.right)
            if e.op in ("/", "%"):
                self.emit(f"if {right} == 0: raise _div_zero({_int(e.loc.line)})")
            return self.temp(f"{left} {_TOKENS[e.op]} {right}")
        raise TypeError(f"not a spec expression: {e!r}")


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
    if len(tx.args) != len(code.params):
        raise VmUsageError(f"{tx.contract}.{tx.method} expects {len(code.params)} argument(s)")
    for a in tx.args:
        if type(a) is not int or not 0 <= a <= UINT_MAX:
            raise VmUsageError(f"transaction argument {a!r} is not a uint64")


def run_script(image: VmImage, script, gas_limit=None, ledger: Ledger = None):
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
    vm = Vm(image, ledger)
    outcomes = [vm._exec(tx, gas_limit) for tx in script]
    totals = {"exec_gas": sum(o.exec_gas for o in outcomes),
              "check_gas": sum(o.check_gas for o in outcomes)}
    return outcomes, {"per_tx": [{"index": i, **o.as_dict()} for i, o in enumerate(outcomes)],
                      "totals": totals}


def parse_script(text: str):
    """Transaction script: JSON lines {contract, method, args}, `args` a list
    (empty when absent); other keys are ignored.  Raises ValueError on a line
    of any other shape; check_transaction checks the argument values."""
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
