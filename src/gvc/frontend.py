"""Front-end passes: type inference for locals, name resolution, and the
convenience entry points that take raw source to a checked Program."""

from __future__ import annotations

import errno
import re
from pathlib import Path

from .lang import (
    Acc, Assign, Call, Cmp, If, Name, Old, PredUse, ResolutionError, SourceError,
    While, bool_leaves, exit_row_map, expr_nodes, stmt_exprs, stmts_recursive,
    well_formed_program,
)
from .lexer import lex
from .parser import parse_program


class InferenceError(SourceError):
    pass


class WellFormednessError(SourceError):
    """Every structural diagnostic of a program, at the first one's loc."""

    def __init__(self, diagnostics):
        first, rest = diagnostics[0], diagnostics[1:]
        super().__init__(first.loc, "; ".join([first.message, *map(str, rest)]))
        self.diagnostics = diagnostics


def infer_types(program):
    """Type-check all locals; raises InferenceError.  The value domain is
    uint64-only, so inference reduces to definite-assignment plus the
    condition rule: a bare uint64 expression is not a truth value.  Spec
    atoms in a body (loop invariants, asserts, woven check payloads) obey
    definite assignment too; an invariant sees the names assigned before
    its loop."""
    for c in program.contracts:
        for m in c.methods:
            _assigned_after(m.body, set(c.globals).union(p for p, _ in m.params))


def _use(nodes, known):
    """Raise InferenceError at the first name among expression `nodes` that
    is not in `known`."""
    for e in nodes:
        if isinstance(e, Name) and e.name not in known:
            raise InferenceError(e.loc, f"local {e.name!r} used before assignment")


def _assigned_after(body, known):
    """The names known after a block: `known` (globals, parameters and the
    locals assigned so far) plus the locals the block definitely assigns.  An
    if/else keeps what both branches assign; a while body may run zero times.
    Raises InferenceError at the first use of a name not known there, and at
    a condition leaf that is not a comparison."""
    known = set(known)
    for s in body:
        if isinstance(s, (If, While)):
            for leaf in bool_leaves(s.cond):
                if not isinstance(leaf, Cmp):
                    raise InferenceError(leaf.loc, "uint64 expression used as a condition; a comparison is required")
                _use(expr_nodes(leaf), known)
            if isinstance(s, If):
                known = _assigned_after(s.then, known) & _assigned_after(s.orelse, known)
            else:
                _use(expr_nodes(*s.invariant.atoms), known)
                _assigned_after(s.body, known)
        else:
            _use(stmt_exprs(s), known)
            if isinstance(s, (Assign, Call)) and s.target:
                known.add(s.target)
    return known


def resolve(program):
    """Check that every name is declared and used as its declaration
    allows, in source order: predicates, then each method's requires,
    ensures and body, a statement's condition before its blocks.  Raises
    ResolutionError at the first unresolved or ill-used name, and
    WellFormednessError if structural diagnostics remain afterwards.  A
    method's `#! exit` rows are checked after the specs they realize, each
    as an ensures atom.  Returns the program itself: a name is a global iff
    its contract declares it, so there is nothing to annotate."""
    by_name = {c.name: c for c in program.contracts}
    if len(by_name) != len(program.contracts):
        dupes = [c.name for c in program.contracts]
        raise ResolutionError(program.contracts[0].loc, f"duplicate contract names in {dupes}")

    for c in program.contracts:
        gnames = set(c.globals)
        preds = {p.name: p for p in c.predicates}

        def check_nodes(nodes, scope):
            # scope: the names a specification may read; None in a body
            for e in nodes:
                if isinstance(e, Name):
                    if scope is not None and e.name not in scope:
                        raise ResolutionError(e.loc, f"unresolved name {e.name!r} in specification")
                elif isinstance(e, Old):
                    if e.slot not in gnames:
                        raise ResolutionError(e.loc, f"old(...) names unknown global {e.slot!r}")
                elif isinstance(e, Acc):
                    if e.slot not in gnames:
                        raise ResolutionError(e.loc, f"acc(...) names unknown global {e.slot!r}")
                elif isinstance(e, PredUse):
                    p = preds.get(e.name)
                    if p is None:
                        raise ResolutionError(e.loc, f"unknown predicate {e.name!r}")
                    if len(e.args) != len(p.params):
                        raise ResolutionError(e.loc, f"predicate {e.name} expects {len(p.params)} argument(s), got {len(e.args)}")

        def check_stmt(s, pnames):
            if isinstance(s, Call):
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
            check_nodes(stmt_exprs(s), None)
            if isinstance(s, Assign) and s.target in pnames:
                raise ResolutionError(s.loc, f"assignment to parameter {s.target!r}")
            if isinstance(s, Call) and s.target and s.target in gnames:
                raise ResolutionError(s.loc, "binding a call result to a global is not supported; assign via a local")

        for p in c.predicates:
            # QMark / Acc leaves are left for well-formedness to flag
            leaves = [a for a in bool_leaves(p.body) if isinstance(a, (Cmp, PredUse))]
            check_nodes(expr_nodes(*leaves), gnames.union(p.params))
        for m in c.methods:
            pnames = {p for p, _ in m.params}
            scope = gnames | pnames
            check_nodes(expr_nodes(*m.spec.requires.atoms, *m.spec.ensures.atoms,
                                   *(row.payload for row in m.exits)), scope)
            # pre-order: an if or while is checked before its blocks
            for _, s in stmts_recursive(m.body):
                check_stmt(s, pnames)

    diags = well_formed_program(program)
    if diags:
        raise WellFormednessError(diags)
    return program


def load_source(source: str, filename: str = "<mem>"):
    """lex -> parse -> infer -> resolve; returns (Program, its exit rows by
    method), the second a view kept for `bench/` (lang.exit_row_map)."""
    program = parse_program(lex(source, filename), filename)
    infer_types(program)
    return resolve(program), exit_row_map(program)


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
    `path`, read from the `<stem>.adversary.gcl` beside it, if any: each
    extern whose contract that source declares, extern or not, at the start
    of a line."""
    adv_path = Path(path).with_name(Path(path).stem + ".adversary.gcl")
    if not adv_path.exists():
        return {}
    text = read_source(adv_path)
    return {c.name: text for c in program.contracts if c.extern
            and re.search(rf"^\s*(?:extern\s+)?contract\s+{c.name}\s*:", text, re.M)}
