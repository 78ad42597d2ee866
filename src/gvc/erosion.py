"""Spec erosion: systematically weakening specifications toward `?`.

An erosion replaces a formula with `? and <subset of its atoms>`.  Eroding a
program must never make it worse off: a program that verifies keeps
verifying (static gradual guarantee), and any concrete execution that held
all obligations keeps holding them (dynamic gradual guarantee).  Both halves
are checked here over bounded input grids, for all erosions of one program
at once: the work that does not depend on the erosion (merging adversaries,
judging the uneroded program on the grid) happens once per program, and the
erosions' re-verifications share one memo of prover component verdicts,
which `gvc corpus` also shares with the program's own verification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress

from .lang import (
    AssertStmt, Formula, Program, Spec, While, map_blocks, stmts_recursive,
    well_formed_program,
)
from .printer import fmt_formula


@dataclass(frozen=True)
class Erosion:
    label: str  # e.g. "Counter.sell/requires drop acc(Count)"
    program: Program


def _formula_weakenings(f: Formula):
    """Every `? and <subset of atoms>` variant of a formula (excluding the
    formula itself); subsets capped at 2^5 atoms to stay enumerable."""
    seen = {fmt_formula(f)}
    out = []
    atoms = f.atoms[:5]
    for mask in range(2 ** len(atoms) - 1, -1, -1):
        kept = tuple(a for i, a in enumerate(atoms) if mask >> i & 1)
        v = Formula(True, kept + f.atoms[5:], f.loc)
        key = fmt_formula(v)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def erode_program(program: Program):
    """Yield every well-formed single-site erosion of the program."""
    for ci, c in enumerate(program.contracts):
        if c.extern:
            continue
        for mi, m in enumerate(c.methods):
            for where, f in (("requires", m.spec.requires), ("ensures", m.spec.ensures)):
                for weak in _formula_weakenings(f):
                    spec = Spec(weak, m.spec.ensures) if where == "requires" \
                        else Spec(m.spec.requires, weak)
                    nm = replace(m, spec=spec)
                    variant = _with_method(program, ci, mi, nm)
                    if well_formed_program(variant):
                        continue  # erosion broke framing; not a legal program
                    yield Erosion(f"{c.name}.{m.name}/{where} -> {fmt_formula(weak)}", variant)
            for site, s in stmts_recursive(m.body):
                if isinstance(s, While):
                    site_kind, attr, f = "invariant", "invariant", s.invariant
                elif isinstance(s, AssertStmt):
                    site_kind, attr, f = "assert", "formula", s.formula
                else:
                    continue
                block, i = site[:-1], site[-1]
                for weak in _formula_weakenings(f):
                    def swap(path, stmts):
                        if path != block:
                            return stmts
                        return stmts[:i] + (replace(stmts[i], **{attr: weak}),) + stmts[i + 1:]

                    nm = replace(m, body=map_blocks(m.body, swap))
                    variant = _with_method(program, ci, mi, nm)
                    if well_formed_program(variant):
                        continue
                    yield Erosion(
                        f"{c.name}.{m.name}/{site_kind}@{'.'.join(map(str, site))} -> {fmt_formula(weak)}",
                        variant)


def _with_method(program, ci, mi, new_method):
    c = program.contracts[ci]
    methods = c.methods[:mi] + (new_method,) + c.methods[mi + 1:]
    contracts = program.contracts[:ci] + (replace(c, methods=methods),) + program.contracts[ci + 1:]
    return Program(contracts)


# ---------------------------------------------------------------------------
# Guarantee checks


def check_static_monotonic(report, erosions, memo: dict = None):
    """Static gradual guarantee: if a program whose verification report is
    `report` has no static error, none of its `erosions` may introduce one.
    The erosions' verification runs share one memo of component verdicts
    (see verify_program): `memo`, which the caller may have filled by
    verifying the program itself, or by default a fresh one that lives as
    long as this check.  A verdict is a function of its component alone, so
    the memo changes no label.  Returns the list of offending labels."""
    from .verifier import verify_program

    if report.has_static_error:
        return []  # nothing to preserve
    if memo is None:
        memo = {}
    return [e.label for e in erosions if verify_program(e.program, memo).has_static_error]


def check_dynamic_monotonic(program: Program, erosions, bound: int, adversaries: dict = None):
    """Dynamic gradual guarantee on a grid: every point the oracle judges
    AllObligationsHeld on `program` must stay AllObligationsHeld on each of
    its `erosions`.  The program is judged once per point; each erosion only
    on the points where the program held (a flag per point is kept, not the
    points, which are cheap to rebuild).  Returns offending points, erosion
    by erosion, each erosion's in grid order."""
    from .oracle import Oracle
    from .vm import merge_adversaries, transaction_grid, with_own_contracts

    base, unverified = merge_adversaries(program, adversaries)
    before = Oracle(base, unverified)
    held = [before.judge(init, tx).held for _, _, init, tx in transaction_grid(program, bound)]
    bad = []
    for e in erosions:
        after = Oracle(with_own_contracts(base, e.program), unverified)
        for c, m, init, tx in compress(transaction_grid(program, bound), held):
            if not after.judge(init, tx).held:
                bad.append({"erosion": e.label, "method": f"{c.name}.{m.name}",
                            "initial_state": init, "args": list(tx.args)})
    return bad
