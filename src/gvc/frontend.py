"""Front-end passes: type inference for locals, name resolution, and the
convenience entry points that take raw source to a checked Program."""

from __future__ import annotations

import errno
from pathlib import Path

from .lang import (
    Acc, Assign, AssertStmt, BinOp, Call, Check, Cmp, If, Name, Old, PredUse,
    ResolutionError, Return, While, atom_exprs, bool_leaves,
    misplaced_spec_markers, stmts_recursive, well_formed_program,
)
from .lexer import lex
from .parser import ParsedUnit, parse_program


class InferenceError(Exception):
    def __init__(self, loc, message):
        super().__init__(f"{loc}: {message}")
        self.loc = loc


class WellFormednessError(Exception):
    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


def infer_types(unit):
    """Type-check all locals; raises InferenceError.  The value domain is
    uint64-only, so inference reduces to definite-assignment plus the
    condition rule: a bare uint64 expression is not a truth value.  Spec
    atoms in a body (loop invariants, asserts, woven check payloads) obey
    definite assignment too; an invariant sees the names assigned before
    its loop."""
    program = unit.program if isinstance(unit, ParsedUnit) else unit
    for c in program.contracts:
        gnames = set(c.globals)
        for m in c.methods:
            params = {p for p, _ in m.params}
            assigned = set(params)

            def use(e):
                if isinstance(e, Name):
                    if e.name in gnames or e.name in params:
                        return
                    if e.name not in assigned:
                        raise InferenceError(e.loc, f"local {e.name!r} used before assignment")
                elif isinstance(e, BinOp):
                    use(e.left)
                    use(e.right)

            def use_atoms(atoms):
                for a in atoms:
                    if isinstance(a, Cmp):
                        use(a.left)
                        use(a.right)
                    elif isinstance(a, PredUse):
                        for x in a.args:
                            use(x)

            def check_cond(cnd):
                for leaf in bool_leaves(cnd):
                    if not isinstance(leaf, Cmp):
                        loc = getattr(leaf, "loc", m.loc)
                        raise InferenceError(loc, "uint64 expression used as a condition; a comparison is required")
                    use_atoms([leaf])

            def walk(body, assigned_in):
                # returns set of names definitely assigned after the block
                cur = set(assigned_in)
                nonlocal assigned
                for s in body:
                    assigned = cur
                    if isinstance(s, Assign):
                        use(s.expr)
                        if s.target not in gnames:
                            cur.add(s.target)
                    elif isinstance(s, Call):
                        for a in s.args:
                            use(a)
                        if s.target and s.target not in gnames:
                            cur.add(s.target)
                    elif isinstance(s, If):
                        check_cond(s.cond)
                        t = walk(s.then, cur)
                        e = walk(s.orelse, cur) if s.orelse else set(cur)
                        cur = t & e
                    elif isinstance(s, While):
                        check_cond(s.cond)
                        use_atoms(s.invariant.atoms)
                        walk(s.body, cur)  # body may run zero times
                    elif isinstance(s, Return):
                        if s.expr is not None:
                            use(s.expr)
                    elif isinstance(s, AssertStmt):
                        use_atoms(s.formula.atoms)
                    elif isinstance(s, Check):
                        use_atoms([s.payload])
                assigned = cur
                return cur

            walk(m.body, params)


def resolve(unit):
    """Check that every name is declared and used as its declaration
    allows, in source order: predicates, then each method's requires,
    ensures and body, a statement's condition before its blocks.  Raises
    ResolutionError at the first unresolved or ill-used name, and
    WellFormednessError if structural diagnostics remain afterwards.  The
    `#! entry`/`#! exit` rows of a woven text are checked after the specs
    they realize, an entry row as a requires atom, an exit row as an
    ensures atom.  Returns the program itself: a name is a global iff its
    contract declares it, so there is nothing to annotate."""
    program = unit.program if isinstance(unit, ParsedUnit) else unit
    boundary = unit.boundary if isinstance(unit, ParsedUnit) else {}
    by_name = {c.name: c for c in program.contracts}
    if len(by_name) != len(program.contracts):
        dupes = [c.name for c in program.contracts]
        raise ResolutionError(program.contracts[0].loc, f"duplicate contract names in {dupes}")

    for c in program.contracts:
        gnames = set(c.globals)
        preds = {p.name: p for p in c.predicates}

        def check_expr(e, locals_ok, pnames):
            if isinstance(e, Name):
                if not (e.name in gnames or e.name in pnames or locals_ok):
                    raise ResolutionError(e.loc, f"unresolved name {e.name!r} in specification")
            elif isinstance(e, Old):
                if e.slot not in gnames:
                    raise ResolutionError(e.loc, f"old(...) names unknown global {e.slot!r}")
            elif isinstance(e, BinOp):
                check_expr(e.left, locals_ok, pnames)
                check_expr(e.right, locals_ok, pnames)

        def check_atom(a, locals_ok, pnames):
            if isinstance(a, Acc):
                if a.slot not in gnames:
                    raise ResolutionError(a.loc, f"acc(...) names unknown global {a.slot!r}")
            elif isinstance(a, Cmp):
                check_expr(a.left, locals_ok, pnames)
                check_expr(a.right, locals_ok, pnames)
            elif isinstance(a, PredUse):
                p = preds.get(a.name)
                if p is None:
                    raise ResolutionError(a.loc, f"unknown predicate {a.name!r}")
                if len(a.args) != len(p.params):
                    raise ResolutionError(a.loc, f"predicate {a.name} expects {len(p.params)} argument(s), got {len(a.args)}")
                for x in a.args:
                    check_expr(x, locals_ok, pnames)

        def check_stmt(s, pnames):
            if isinstance(s, Assign):
                check_expr(s.expr, True, pnames)
                if s.target in pnames:
                    raise ResolutionError(s.loc, f"assignment to parameter {s.target!r}")
            elif isinstance(s, Call):
                callee_c = by_name.get(s.contract)
                if callee_c is None:
                    raise ResolutionError(s.loc, f"call to unknown contract {s.contract!r}")
                callee_m = callee_c.method(s.method)
                if callee_m is None:
                    raise ResolutionError(s.loc, f"contract {s.contract} has no method {s.method!r}")
                if len(s.args) != len(callee_m.params):
                    raise ResolutionError(s.loc, f"{s.contract}.{s.method} expects {len(callee_m.params)} argument(s), got {len(s.args)}")
                if s.target and not callee_m.returns:
                    raise ResolutionError(s.loc, f"{s.contract}.{s.method} returns nothing; cannot bind its result")
                for a in s.args:
                    check_expr(a, True, pnames)
                if s.target and s.target in gnames:
                    raise ResolutionError(s.loc, "binding a call result to a global is not supported; assign via a local")
            elif isinstance(s, (If, While)):
                for a in bool_leaves(s.cond):
                    if isinstance(a, Cmp):
                        check_atom(a, True, pnames)
                    else:
                        check_expr(a, True, pnames)
                if isinstance(s, While):
                    for a in s.invariant.atoms:
                        check_atom(a, True, pnames)
            elif isinstance(s, Return):
                if s.expr is not None:
                    check_expr(s.expr, True, pnames)
            elif isinstance(s, AssertStmt):
                for a in s.formula.atoms:
                    check_atom(a, True, pnames)
            elif isinstance(s, Check):
                check_atom(s.payload, True, pnames)

        for p in c.predicates:
            # QMark / Acc leaves are left for well-formedness to flag
            for a in bool_leaves(p.body):
                if isinstance(a, (Cmp, PredUse)):
                    check_atom(a, False, set(p.params))
        for m in c.methods:
            pnames = {p for p, _ in m.params}
            for a in m.spec.requires.atoms + m.spec.ensures.atoms:
                check_atom(a, False, pnames)
            for row in boundary.get((c.name, m.name), ()):
                check_atom(row.payload, False, pnames)
                if row.kind == "entry":
                    for d in misplaced_spec_markers(atom_exprs([row.payload])):
                        raise ResolutionError(d.loc, d.message)
            # pre-order: an if or while is checked before its blocks
            for _, s in stmts_recursive(m.body):
                check_stmt(s, pnames)

    diags = well_formed_program(program)
    if diags:
        raise WellFormednessError(diags)
    return program


def load_source(source: str, filename: str = "<mem>"):
    """lex -> parse -> infer -> resolve; returns (Program, boundary map)."""
    unit = parse_program(lex(source, filename), filename)
    infer_types(unit)
    return resolve(unit), dict(unit.boundary)


def read_source(path):
    """The text of a UTF-8 source file.  Raises OSError, naming the file, when
    it cannot be read or does not decode."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise OSError(errno.EILSEQ, f"not UTF-8 text ({e.reason} at offset {e.start})",
                      str(path)) from None


def load_file(path):
    return load_source(read_source(path), str(path))


def corpus_files(root):
    """The programs of a corpus directory, sorted: every `*.gcl` except
    adversary sources and woven outputs."""
    return sorted(p for p in Path(root).glob("*.gcl")
                  if not p.name.endswith((".adversary.gcl", ".woven.gcl")))


def corpus_adversaries(path, program):
    """{extern contract name: adversary source} for the corpus program at
    `path`, read from the `<stem>.adversary.gcl` beside it, if any."""
    adv_path = Path(path).with_name(Path(path).stem + ".adversary.gcl")
    if not adv_path.exists():
        return {}
    text = read_source(adv_path)
    return {c.name: text for c in program.contracts
            if c.extern and f"contract {c.name}" in text}
