"""Weaves residual run-time checks into a verified program.

Before-statement residuals become `check` statements immediately preceding
their statement; at-exit residuals become the method's boundary rows, in
report order, which the woven text carries as `#! exit <payload> @id;`
directives.  `build_boundary_table` merges those rows, when a program is
loaded into the VM, with the spec-derived rows (precise precondition atoms
at entry, precise postcondition atoms at exit) that protect verified
methods from callers in other contracts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .lang import Acc, BoundaryEntry, Check, Program, map_blocks, stmts_recursive
from .printer import fmt_atom, pretty_print
from .verifier import Status, VerificationReport, program_digest


class WeaveError(Exception):
    pass


@dataclass
class InstrumentedProgram:
    program: Program  # with woven Check statements
    boundary: dict = field(default_factory=dict)  # (contract, method) -> its `#! exit` rows
    sidecar: dict = field(default_factory=dict)  # id -> {line, kind, payload}

    def to_text(self):
        return pretty_print(self.program, self.boundary)


def build_boundary_table(contract, method, residual_rows=()):
    """The boundary rows a VM evaluates for `method`: its spec's comparison
    and predicate atoms, requires at entry and ensures at exit (none for an
    extern contract), with the non-acc residual rows merged in by payload
    so no atom is evaluated twice.  Every acc atom is settled by ownership
    instead."""
    entries = [] if contract.extern else [
        BoundaryEntry(kind, a) for kind, f in (("entry", method.spec.requires),
                                               ("exit", method.spec.ensures))
        for a in f.atoms if not isinstance(a, Acc)]
    for r in residual_rows:
        if isinstance(r.payload, Acc):
            continue
        for i, e in enumerate(entries):
            if (e.kind == r.kind and e.check_id is None
                    and fmt_atom(e.payload) == fmt_atom(r.payload)):
                entries[i] = replace(e, check_id=r.check_id)
                break
        else:
            entries.append(r)
    return entries


def weave(program: Program, report: VerificationReport) -> InstrumentedProgram:
    if report.digest != program_digest(program):
        raise WeaveError("stale report: program digest does not match")
    if report.has_static_error:
        bad = [m.name for m in report.methods if m.status is Status.STATIC_ERROR]
        raise WeaveError(f"refusing to weave: static errors in {', '.join(bad)}")

    sidecar = {}
    boundary = {}
    contracts = []
    for c in program.contracts:
        methods = []
        for m in c.methods:
            mrep = report.method(c.name, m.name)
            inserts = {}  # (block_path, index) -> [Check]
            if mrep is not None:
                for r in mrep.residuals:
                    sidecar[r.id] = {
                        "line": r.obligation.loc.line,
                        "kind": r.obligation.kind,
                        "payload": r.payload_text,
                    }
                    if r.insertion.kind == "before":
                        key = (r.insertion.block_path, r.insertion.index)
                        inserts.setdefault(key, []).append(
                            Check(r.id, r.obligation.atom, r.obligation.loc))
                    else:
                        boundary.setdefault((c.name, m.name), []).append(
                            BoundaryEntry(r.insertion.kind, r.obligation.atom, r.id))

            def insert_checks(path, stmts):
                out = []
                for i, s in enumerate(stmts):
                    out.extend(inserts.get((path, i), ()))
                    out.append(s)
                out.extend(inserts.get((path, len(stmts)), ()))
                return tuple(out)

            methods.append(replace(m, body=map_blocks(m.body, insert_checks)))
        contracts.append(replace(c, methods=tuple(methods)))
    return InstrumentedProgram(Program(tuple(contracts)), boundary, sidecar)


def strip(ip) -> Program:
    """Remove all woven check statements (and the boundary rows); inverse of
    weave.  Accepts an InstrumentedProgram or a bare Program; idempotent."""
    program = ip.program if isinstance(ip, InstrumentedProgram) else ip
    contracts = []
    for c in program.contracts:
        methods = [replace(m, body=map_blocks(m.body, _drop_checks)) for m in c.methods]
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


def sidecar_json(ip: InstrumentedProgram) -> str:
    return json.dumps(ip.sidecar, indent=2, sort_keys=True)
