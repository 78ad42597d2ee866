"""Weaves residual run-time checks into a verified program.

Each residual becomes one Check: a statement just before its statement,
or, at exit, one of its method's `exits` rows (in report order), which the
woven text writes `#! exit <payload> @id kind;`.  `check_map` derives from
the woven program alone where a check blames, its kind and its payload, so
a failed check names only its id.  Only what the verifier left unproven is
checked at exit (vm.load_program compiles each method's call protocol).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .lang import Check, If, Program, While, exit_row_map, map_blocks, stmts_recursive
from .printer import fmt_atom, pretty_print
from .verifier import Status, VerificationReport, program_digest


class WeaveError(Exception):
    pass


@dataclass
class InstrumentedProgram:
    program: Program  # with woven Check statements and exit rows

    @cached_property
    def sidecar(self):  # the program's check_map, a view kept for `bench/`
        return check_map(self.program)

    @property
    def boundary(self):
        """The exit rows by (contract, method), a view kept for `bench/`."""
        return exit_row_map(self.program)

    def to_text(self):
        return pretty_print(self.program)


def weave(program: Program, report: VerificationReport) -> InstrumentedProgram:
    if report.digest != program_digest(program):
        raise WeaveError("stale report: program digest does not match")
    if report.has_static_error:
        bad = [m.name for m in report.methods if m.status is Status.STATIC_ERROR]
        raise WeaveError(f"refusing to weave: static errors in {', '.join(bad)}")
    woven = {x.check_id for c in program.contracts for m in c.methods
             for x in (*m.exits, *(s for _, s in stmts_recursive(m.body) if isinstance(s, Check)))}
    for r in report.all_residuals():
        if r.id in woven:
            raise WeaveError(f"refusing to weave: check id {r.id} is already woven into the program")

    contracts = []
    for c in program.contracts:
        methods = []
        for m in c.methods:
            mrep = report.method(c.name, m.name)
            inserts = {}  # (block_path, index) -> [Check]
            exits = list(m.exits)
            if mrep is not None:
                for r in mrep.residuals:
                    ob = r.obligation
                    check = Check(r.id, ob.atom, ob.kind, ob.loc)
                    if r.insertion.kind == "before":
                        key = (r.insertion.block_path, r.insertion.index)
                        inserts.setdefault(key, []).append(check)
                    else:
                        exits.append(check)

            def insert_checks(path, stmts):
                out = []
                for i, s in enumerate(stmts):
                    out.extend(inserts.get((path, i), ()))
                    out.append(s)
                out.extend(inserts.get((path, len(stmts)), ()))
                return tuple(out)

            methods.append(replace(m, body=map_blocks(m.body, insert_checks), exits=tuple(exits)))
        contracts.append(replace(c, methods=tuple(methods)))
    return InstrumentedProgram(Program(tuple(contracts)))


def check_map(program: Program) -> dict:
    """{id: {line, kind, payload}} for every woven check and exit row: the
    one rule for where a check's failure is blamed, at the line of the
    obligation it guards.  An exit row guards its method's ensures, and
    blames its own line when the method has no ensures line."""
    guarded = []  # (line, check or exit row)
    for c in program.contracts:
        for m in c.methods:
            guarded += [(m.spec.ensures.loc.line or r.loc.line, r) for r in m.exits]
            _guard(m.body, m.loc.line, guarded)
    return {x.check_id: {"line": line, "kind": x.obligation, "payload": fmt_atom(x.payload)}
            for line, x in guarded}


def _guard(block, line, guarded):
    """A check guards the next statement of its block that is not a check,
    or else `line`, the statement holding the block (a `while` re-checking
    its invariant at the end of its body)."""
    for s in reversed(block):
        if isinstance(s, Check):
            guarded.append((line, s))
            continue
        line = s.loc.line
        if isinstance(s, If):
            _guard(s.then, line, guarded)
            _guard(s.orelse, line, guarded)
        elif isinstance(s, While):
            _guard(s.body, line, guarded)


def strip(ip) -> Program:
    """Remove all woven check statements and exit rows; inverse of weave.
    Accepts an InstrumentedProgram or a bare Program; idempotent."""
    program = ip.program if isinstance(ip, InstrumentedProgram) else ip
    contracts = []
    for c in program.contracts:
        methods = [replace(m, body=map_blocks(m.body, _drop_checks), exits=()) for m in c.methods]
        contracts.append(replace(c, methods=tuple(methods)))
    return Program(tuple(contracts))


def _drop_checks(path, stmts):
    return tuple(s for s in stmts if not isinstance(s, Check))


def count_woven_checks(program: Program) -> int:
    n = 0
    for c in program.contracts:
        for m in c.methods:
            n += sum(1 for _, s in stmts_recursive(m.body) if isinstance(s, Check))
    return n
