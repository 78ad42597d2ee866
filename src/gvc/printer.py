"""Canonical GCL pretty-printer.

Printing then re-parsing yields a structurally identical program, and the
printed form is a fixed point: printing the re-parse reproduces it byte for
byte.  Woven check statements render as `#! check <payload> @id;` and a
method's boundary rows as `#! exit <payload> @id;`.
"""

from __future__ import annotations

from .lang import (
    Acc, Assign, AssertStmt, BinOp, BoolOp, Call, Check, Cmp, Formula, If,
    IntLit, Name, NotOp, Old, PredUse, QMark, Result, Return, While,
)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}


def fmt_expr(e, parent_prec=0, right=False):
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Old):
        return f"old({e.slot})"
    if isinstance(e, Result):
        return "result"
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        s = f"{fmt_expr(e.left, p, False)} {e.op} {fmt_expr(e.right, p, True)}"
        if p < parent_prec or (p == parent_prec and right):
            return f"({s})"
        return s
    raise TypeError(f"not an expression: {e!r}")


def fmt_atom(a):
    if isinstance(a, Cmp):
        return f"{fmt_expr(a.left)} {a.op} {fmt_expr(a.right)}"
    if isinstance(a, Acc):
        return f"acc({a.slot})"
    if isinstance(a, PredUse):
        args = ", ".join(fmt_expr(x) for x in a.args)
        return f"{a.name}({args})"
    if isinstance(a, QMark):
        return "?"
    raise TypeError(f"not an atom: {a!r}")


def fmt_formula(f: Formula):
    parts = (["?"] if f.imprecise else []) + [fmt_atom(a) for a in f.atoms]
    if not parts:
        return "true"
    return " and ".join(parts)


def fmt_cond(c, parent="or"):
    # precedence: or < and < not < leaf
    if isinstance(c, BoolOp):
        sep = f" {c.op} "
        s = sep.join(fmt_cond(p, c.op) for p in c.parts)
        if c.op == "or" and parent in ("and", "not"):
            return f"({s})"
        if parent == "not":
            return f"({s})"
        return s
    if isinstance(c, NotOp):
        return f"not {fmt_cond(c.operand, 'not')}"
    if isinstance(c, (Cmp, PredUse, Acc, QMark)):
        return fmt_atom(c)
    return fmt_expr(c)


def pretty_print(program, boundary=None) -> str:
    """Render a Program as GCL text, with the boundary rows given per
    (contract, method) as `#!` directives."""
    boundary = boundary or {}
    out = []
    for c in program.contracts:
        head = "extern contract" if c.extern else "contract"
        out.append(f"{head} {c.name}:")
        for g in c.globals:
            out.append(f"  #@ global {g};")
        for p in c.predicates:
            params = ", ".join(p.params)
            out.append(f"  #@ predicate {p.name}({params}) = {fmt_cond(p.body)};")
        for m in c.methods:
            params = ", ".join(f"{n}: {t}" for n, t in m.params)
            ret = " -> uint64" if m.returns else ""
            out.append(f"  method {m.name}({params}){ret}:")
            out.append(f"    #@ requires {fmt_formula(m.spec.requires)};")
            out.append(f"    #@ ensures {fmt_formula(m.spec.ensures)};")
            for e in boundary.get((c.name, m.name), []):
                out.append(f"    #! {e.kind} {fmt_atom(e.payload)} @{e.check_id};")
            if m.opaque:
                out.append("    opaque;")
            else:
                _print_block(out, m.body, 2)
    return "\n".join(out) + ("\n" if out else "")


def _print_block(out, body, depth):
    pad = "  " * depth
    for s in body:
        if isinstance(s, Assign):
            out.append(f"{pad}{s.target} := {fmt_expr(s.expr)};")
        elif isinstance(s, Call):
            args = ", ".join(fmt_expr(a) for a in s.args)
            call = f"call {s.contract}.{s.method}({args});"
            out.append(f"{pad}{s.target} := {call}" if s.target else f"{pad}{call}")
        elif isinstance(s, If):
            out.append(f"{pad}if {fmt_cond(s.cond)}:")
            _print_block(out, s.then, depth + 1)
            if s.orelse:
                out.append(f"{pad}else:")
                _print_block(out, s.orelse, depth + 1)
        elif isinstance(s, While):
            out.append(f"{pad}while {fmt_cond(s.cond)}:")
            out.append(f"{pad}  #@ invariant {fmt_formula(s.invariant)};")
            _print_block(out, s.body, depth + 1)
        elif isinstance(s, Return):
            out.append(f"{pad}return {fmt_expr(s.expr)};" if s.expr is not None else f"{pad}return;")
        elif isinstance(s, AssertStmt):
            out.append(f"{pad}#@ assert {fmt_formula(s.formula)};")
        elif isinstance(s, Check):
            out.append(f"{pad}#! check {fmt_atom(s.payload)} @{s.check_id};")
        else:
            raise TypeError(f"not a statement: {s!r}")
