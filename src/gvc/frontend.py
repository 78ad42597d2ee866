"""Front-end passes: type inference for locals, name resolution, and the
convenience entry points that take raw source to a checked Program."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .lang import (
    Acc, Assign, AssertStmt, BinOp, Call, Check, Cmp, GAssign, If, Name, Old,
    PredUse, Program, ResolutionError, Return, Spec, While, bool_leaves,
    map_bool, well_formed_program,
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
    condition rule: a bare uint64 expression is not a truth value."""
    program = unit.program if isinstance(unit, ParsedUnit) else unit
    for c in program.contracts:
        gnames = set(c.globals)
        for m in c.methods:
            params = {p for p, _ in m.params}
            assigned = set(params)

            def use(e, where_loc):
                if isinstance(e, Name):
                    if e.name in gnames or e.name in params:
                        return
                    if e.name not in assigned:
                        raise InferenceError(e.loc, f"local {e.name!r} used before assignment")
                elif isinstance(e, BinOp):
                    use(e.left, where_loc)
                    use(e.right, where_loc)

            def check_cond(cnd):
                for leaf in bool_leaves(cnd):
                    if not isinstance(leaf, Cmp):
                        loc = getattr(leaf, "loc", m.loc)
                        raise InferenceError(loc, "uint64 expression used as a condition; a comparison is required")
                    use(leaf.left, leaf.loc)
                    use(leaf.right, leaf.loc)

            def walk(body, assigned_in):
                # returns set of names definitely assigned after the block
                cur = set(assigned_in)
                nonlocal assigned
                for s in body:
                    assigned = cur
                    if isinstance(s, Assign):
                        use(s.expr, s.loc)
                        if s.target not in gnames:
                            cur.add(s.target)
                    elif isinstance(s, Call):
                        for a in s.args:
                            use(a, s.loc)
                        if s.target and s.target not in gnames:
                            cur.add(s.target)
                    elif isinstance(s, If):
                        check_cond(s.cond)
                        t = walk(s.then, cur)
                        e = walk(s.orelse, cur) if s.orelse else set(cur)
                        cur = t & e
                    elif isinstance(s, While):
                        check_cond(s.cond)
                        walk(s.body, cur)  # body may run zero times
                    elif isinstance(s, Return):
                        if s.expr is not None:
                            use(s.expr, s.loc)
                assigned = cur
                return cur

            walk(m.body, params)


def resolve(unit):
    """Bind every name to its declaration and annotate scopes.  Raises
    ResolutionError on unresolved or ill-used names; raises
    WellFormednessError if structural diagnostics remain afterwards."""
    program = unit.program if isinstance(unit, ParsedUnit) else unit
    contracts = []
    by_name = {c.name: c for c in program.contracts}
    if len(by_name) != len(program.contracts):
        dupes = [c.name for c in program.contracts]
        raise ResolutionError(program.contracts[0].loc, f"duplicate contract names in {dupes}")

    for c in program.contracts:
        gnames = set(c.globals)
        preds = {p.name: p for p in c.predicates}

        def res_expr(e, locals_ok, pnames):
            if isinstance(e, Name):
                if e.name in gnames:
                    return replace(e, scope="global")
                if e.name in pnames:
                    return replace(e, scope="param")
                if locals_ok:
                    return replace(e, scope="local")
                raise ResolutionError(e.loc, f"unresolved name {e.name!r} in specification")
            if isinstance(e, Old):
                if e.slot not in gnames:
                    raise ResolutionError(e.loc, f"old(...) names unknown global {e.slot!r}")
                return e
            if isinstance(e, BinOp):
                return replace(e, left=res_expr(e.left, locals_ok, pnames),
                               right=res_expr(e.right, locals_ok, pnames))
            return e

        def res_atom(a, locals_ok, pnames):
            if isinstance(a, Acc):
                if a.slot not in gnames:
                    raise ResolutionError(a.loc, f"acc(...) names unknown global {a.slot!r}")
                return a
            if isinstance(a, Cmp):
                return replace(a, left=res_expr(a.left, locals_ok, pnames),
                               right=res_expr(a.right, locals_ok, pnames))
            if isinstance(a, PredUse):
                p = preds.get(a.name)
                if p is None:
                    raise ResolutionError(a.loc, f"unknown predicate {a.name!r}")
                if len(a.args) != len(p.params):
                    raise ResolutionError(a.loc, f"predicate {a.name} expects {len(p.params)} argument(s), got {len(a.args)}")
                return replace(a, args=tuple(res_expr(x, locals_ok, pnames) for x in a.args))
            return a

        def res_formula(f, locals_ok, pnames):
            return replace(f, atoms=tuple(res_atom(a, locals_ok, pnames) for a in f.atoms))

        def res_cond(cnd, pnames):
            return map_bool(cnd, lambda a: res_atom(a, True, pnames) if isinstance(a, Cmp)
                            else res_expr(a, True, pnames))

        def res_stmt(s, pnames):
            if isinstance(s, Assign):
                e = res_expr(s.expr, True, pnames)
                if s.target in gnames:
                    return GAssign(s.target, e, s.loc)
                if s.target in pnames:
                    raise ResolutionError(s.loc, f"assignment to parameter {s.target!r}")
                return replace(s, expr=e)
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
                args = tuple(res_expr(a, True, pnames) for a in s.args)
                if s.target and s.target in gnames:
                    raise ResolutionError(s.loc, "binding a call result to a global is not supported; assign via a local")
                return replace(s, args=args)
            if isinstance(s, If):
                return replace(s, cond=res_cond(s.cond, pnames),
                               then=tuple(res_stmt(x, pnames) for x in s.then),
                               orelse=tuple(res_stmt(x, pnames) for x in s.orelse))
            if isinstance(s, While):
                return replace(s, cond=res_cond(s.cond, pnames),
                               invariant=res_formula(s.invariant, True, pnames),
                               body=tuple(res_stmt(x, pnames) for x in s.body))
            if isinstance(s, Return):
                return replace(s, expr=res_expr(s.expr, True, pnames) if s.expr is not None else None)
            if isinstance(s, AssertStmt):
                return replace(s, formula=res_formula(s.formula, True, pnames))
            if isinstance(s, Check):
                return replace(s, payload=res_atom(s.payload, True, pnames))
            return s

        def res_pbody(node, pnames):
            # QMark / Acc leaves are left for well-formedness to flag
            return map_bool(node, lambda a: res_atom(a, False, pnames)
                            if isinstance(a, (Cmp, PredUse)) else a)

        new_preds = tuple(replace(p, body=res_pbody(p.body, set(p.params))) for p in c.predicates)
        new_methods = []
        for m in c.methods:
            pnames = {p for p, _ in m.params}
            spec = Spec(res_formula(m.spec.requires, False, pnames),
                        res_formula(m.spec.ensures, False, pnames))
            body = tuple(res_stmt(s, pnames) for s in m.body)
            new_methods.append(replace(m, spec=spec, body=body))
        contracts.append(replace(c, predicates=new_preds, methods=tuple(new_methods)))

    resolved = Program(tuple(contracts))
    diags = well_formed_program(resolved)
    if diags:
        raise WellFormednessError(diags)
    return resolved


def load_source(source: str, filename: str = "<mem>"):
    """lex -> parse -> infer -> resolve; returns (Program, boundary map)."""
    unit = parse_program(lex(source, filename))
    infer_types(unit)
    program = resolve(unit)
    # boundary residual payloads are evaluated dynamically; the VM resolves
    # their names against the frame environment, so no annotation is needed
    return program, dict(unit.boundary)


def load_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return load_source(text, str(path))


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
    text = adv_path.read_text(encoding="utf-8")
    return {c.name: text for c in program.contracts
            if c.extern and f"contract {c.name}" in text}
