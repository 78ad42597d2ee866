"""Spec erosion: systematically weakening specifications toward `?`.

An erosion replaces a formula with `? and <subset of its atoms>`.  Eroding a
program must never make it worse off: a program that verifies keeps
verifying (static gradual guarantee), and any concrete execution that held
all obligations keeps holding them (dynamic gradual guarantee).  Both halves
are checked here over bounded input grids.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .lang import AssertStmt, Formula, If, Program, Spec, While, well_formed_program
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


def _replace_site(body, path, new_formula):
    """path alternates statement index and branch name, ending at a While
    (invariant) or an assert statement."""
    i = path[0]
    out = list(body)
    s = out[i]
    if len(path) == 1:
        if isinstance(s, AssertStmt):
            out[i] = replace(s, formula=new_formula)
        else:
            out[i] = replace(s, invariant=new_formula)
    elif path[1] == "body":
        out[i] = replace(s, body=_replace_site(s.body, path[2:], new_formula))
    elif path[1] == "then":
        out[i] = replace(s, then=_replace_site(s.then, path[2:], new_formula))
    else:
        out[i] = replace(s, orelse=_replace_site(s.orelse, path[2:], new_formula))
    return tuple(out)


def _formula_sites(body, path=()):
    for i, s in enumerate(body):
        if isinstance(s, While):
            yield path + (i,), "invariant", s.invariant
            yield from _formula_sites(s.body, path + (i, "body"))
        elif isinstance(s, If):
            yield from _formula_sites(s.then, path + (i, "then"))
            yield from _formula_sites(s.orelse, path + (i, "else"))
        elif isinstance(s, AssertStmt):
            yield path + (i,), "assert", s.formula


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
            for path, site_kind, f in _formula_sites(m.body):
                for weak in _formula_weakenings(f):
                    nm = replace(m, body=_replace_site(m.body, path, weak))
                    variant = _with_method(program, ci, mi, nm)
                    if well_formed_program(variant):
                        continue
                    yield Erosion(
                        f"{c.name}.{m.name}/{site_kind}@{'.'.join(map(str, path))} -> {fmt_formula(weak)}",
                        variant)


def _with_method(program, ci, mi, new_method):
    c = program.contracts[ci]
    methods = c.methods[:mi] + (new_method,) + c.methods[mi + 1:]
    contracts = program.contracts[:ci] + (replace(c, methods=methods),) + program.contracts[ci + 1:]
    return Program(contracts)


# ---------------------------------------------------------------------------
# Guarantee checks


def check_static_monotonic(program: Program):
    """Static gradual guarantee: if the program has no static error, none of
    its erosions may introduce one.  Returns the list of offending labels."""
    from .verifier import verify_program

    if verify_program(program).has_static_error:
        return []  # nothing to preserve
    bad = []
    for e in erode_program(program):
        if verify_program(e.program).has_static_error:
            bad.append(e.label)
    return bad


def check_dynamic_monotonic(program: Program, erosionv: Erosion, bound: int = 3,
                            adversaries: dict = None):
    """Dynamic gradual guarantee on a grid: every point the oracle judges
    AllObligationsHeld before erosion must stay AllObligationsHeld after.
    Returns offending points."""
    from .oracle import Oracle
    from .vm import merge_adversaries, transaction_grid

    base, unverified = merge_adversaries(program, adversaries)
    eroded, _ = merge_adversaries(erosionv.program, adversaries)
    before, after = Oracle(base, unverified), Oracle(eroded, unverified)

    bad = []
    for c, m, init, tx in transaction_grid(program, bound):
        if before.judge(init, tx).held and not after.judge(init, tx).held:
            bad.append({"erosion": erosionv.label, "method": f"{c.name}.{m.name}",
                        "initial_state": init, "args": list(tx.args)})
    return bad
