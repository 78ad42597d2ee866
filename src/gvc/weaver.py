"""Weaves residual run-time checks into a verified program.

Before-statement residuals become `check` statements immediately preceding
their statement; at-entry/at-exit residuals land in the boundary-check table
together with the spec-derived entries (precise precondition atoms and acc
list at entry, precise postcondition atoms at exit) that protect verified
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
    boundary: dict = field(default_factory=dict)  # (contract, method) -> [BoundaryEntry]
    sidecar: dict = field(default_factory=dict)  # id -> {line, kind, payload}

    @property
    def boundary_residuals(self):
        """The residual-backed rows, per method that has any: what the woven
        text carries; the spec-derived rows are rebuilt from the spec."""
        out = {}
        for key, entries in self.boundary.items():
            rows = [e for e in entries if e.check_id is not None]
            if rows:
                out[key] = rows
        return out

    def to_text(self):
        return pretty_print(self.program, self.boundary_residuals)


def spec_boundary_entries(method):
    """Boundary table rows implied by the method's own specification."""
    entries = []
    for a in method.spec.requires.atoms:
        if isinstance(a, Acc):
            continue
        entries.append(BoundaryEntry("entry", a))
    for a in method.spec.requires.atoms:
        if isinstance(a, Acc):
            entries.append(BoundaryEntry("entry", a))
    for a in method.spec.ensures.atoms:
        if not isinstance(a, Acc):
            entries.append(BoundaryEntry("exit", a))
    return entries


def build_boundary_table(contract, method, residual_entries=()):
    """Spec-derived rows plus residual-backed rows, merged by payload so no
    atom is evaluated twice at a boundary."""
    entries = [] if contract.extern else spec_boundary_entries(method)
    for r in residual_entries:
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
            residual_rows = []
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
                        residual_rows.append(BoundaryEntry(r.insertion.kind, r.obligation.atom, r.id))

            def insert_checks(path, stmts):
                out = []
                for i, s in enumerate(stmts):
                    out.extend(inserts.get((path, i), ()))
                    out.append(s)
                out.extend(inserts.get((path, len(stmts)), ()))
                return tuple(out)

            methods.append(replace(m, body=map_blocks(m.body, insert_checks)))
            entries = build_boundary_table(c, m, residual_rows)
            if entries:
                boundary[(c.name, m.name)] = entries
        contracts.append(replace(c, methods=tuple(methods)))
    return InstrumentedProgram(Program(tuple(contracts)), boundary, sidecar)


def strip(ip) -> Program:
    """Remove all woven check statements (and the boundary table); inverse of
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
