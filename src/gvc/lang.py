"""Core model for GCL: contract/method AST, specification formulas with
imprecision, and the well-formedness rules shared by every pipeline stage.

All node types are immutable; operations here are pure functions.

A source location is a `typing.NamedTuple`, like the lexer's tokens and the
prover's constraints: a flat record that is built many times per load, that
needs only immutability and equality and hashing by value, and that a tuple
gives more cheaply than a dataclass.  Syntax-tree nodes stay frozen
dataclasses, because their equality must respect the node type: as tuples,
`Name("G", loc)` and `Old("G", loc)` would compare equal and hash alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional, Union

UINT_MAX = 2**64 - 1

# how deep predicate instances may nest at run time; the VM and the oracle
# must stop at the same depth to agree
PREDICATE_DEPTH_CAP = 1024

# how deep method calls may nest at run time; the VM and the oracle stop at
# the same depth to agree.  Both run a method call on the Python stack, a few
# interpreter frames per call plus two per `if`/`while` body around its call
# site, so each call is charged by call_charge; the top-level call is charged
# 1.  Entering a frame that takes the charges on the stack past the cap
# reverts, which keeps every chain of calls within about seven interpreter
# frames per unit of the cap, well inside the default recursion limit
CALL_DEPTH_CAP = 64


def call_charge(nest):
    """What a call under `nest` if/while bodies adds to the call depth: its
    block depth, at least 1 and at most half the cap, so that one call from
    any block depth the parser accepts fits under a top-level call.  Calls
    charged the most run under MAX_NESTING bodies at most, so the frames per
    unit of the cap stay bounded."""
    return max(1, min(nest, CALL_DEPTH_CAP // 2))


RELOPS = ("==", "!=", "<=", "<", ">=", ">")

# the kinds of obligation a woven check guards (verifier.Obligation.kind)
OBLIGATION_KINDS = frozenset({"precondition", "postcondition", "loop-invariant",
                              "underflow", "div-zero", "assert", "access"})


class SourceLoc(NamedTuple):
    file: str = "<mem>"
    line: int = 0
    col: int = 0

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col}"


NOLOC = SourceLoc()


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class IntLit:
    value: int
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class Name:
    name: str  # a global iff its contract declares it, else a parameter or local
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class Old:
    slot: str
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class Result:
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    loc: SourceLoc = NOLOC


Expr = Union[IntLit, Name, Old, Result, BinOp]


# ---------------------------------------------------------------------------
# Formula atoms and conditions


@dataclass(frozen=True)
class Cmp:
    op: str
    left: Expr
    right: Expr
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class Acc:
    slot: str
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class PredUse:
    name: str
    args: tuple = ()
    loc: SourceLoc = NOLOC


Atom = Union[Cmp, Acc, PredUse]


@dataclass(frozen=True)
class QMark:
    """Imprecision marker; legal only transiently while parsing predicate
    bodies, where well-formedness then rejects it."""

    loc: SourceLoc = NOLOC


# Boolean combinations: statement conditions use Cmp (or a bare Expr, which
# type inference rejects) as leaves; predicate bodies use Cmp/PredUse/QMark.


@dataclass(frozen=True)
class BoolOp:
    op: str  # "and" | "or"
    parts: tuple
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class NotOp:
    operand: "CondT"
    loc: SourceLoc = NOLOC


CondT = Union[Cmp, BoolOp, NotOp, Expr]


@dataclass(frozen=True)
class Formula:
    imprecise: bool = False
    atoms: tuple = ()
    loc: SourceLoc = NOLOC


TRUE = Formula()
UNKNOWN_FORMULA = Formula(imprecise=True)


@dataclass(frozen=True)
class Spec:
    requires: Formula = TRUE
    ensures: Formula = TRUE


# ---------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class Assign:
    target: str
    expr: Expr
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class If:
    cond: CondT
    then: tuple
    orelse: tuple = ()
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class While:
    cond: CondT
    invariant: Formula
    body: tuple
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class Call:
    contract: str
    method: str
    args: tuple = ()
    target: Optional[str] = None  # result binding
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class Return:
    expr: Expr = None
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class AssertStmt:
    formula: Formula
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class Check:
    """Woven run-time check: a statement `#! check <payload> @id kind;`, or
    one of its method's `exits`, `#! exit <payload> @id kind;`, checked at
    exit.  Produced by the weaver (or read back from woven source), never by
    parsing a plain program; the kind names the obligation it guards."""

    check_id: str
    payload: Atom
    obligation: str  # one of OBLIGATION_KINDS
    loc: SourceLoc = NOLOC


# ---------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class Predicate:
    name: str
    params: tuple  # parameter names, all uint64
    body: CondT  # and/or tree over Cmp / PredUse (QMark rejected by wf)
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class Method:
    name: str
    params: tuple  # of (name, "uint64")
    returns: bool
    spec: Spec
    body: tuple
    exits: tuple = ()  # its `#! exit` rows (Check); empty in a plain source
    opaque: bool = False
    loc: SourceLoc = NOLOC


@dataclass(frozen=True)
class Contract:
    name: str
    globals: tuple = ()
    predicates: tuple = ()
    methods: tuple = ()
    extern: bool = False
    loc: SourceLoc = NOLOC

    def method(self, name):
        for m in self.methods:
            if m.name == name:
                return m
        return None

    def predicate(self, name):
        for p in self.predicates:
            if p.name == name:
                return p
        return None

    @cached_property
    def predicate_reads(self):
        """Per-predicate sets of globals read (see predicate_global_reads),
        computed once per contract from its own declarations."""
        return predicate_global_reads(self)


@dataclass(frozen=True)
class Program:
    contracts: tuple = ()

    def contract(self, name):
        for c in self.contracts:
            if c.name == name:
                return c
        return None


def exit_row_map(program):
    """{(contract, method): [its `#! exit` rows]} for each method with rows:
    the view that load_source and InstrumentedProgram.boundary keep for `bench/`."""
    return {(c.name, m.name): list(m.exits)
            for c in program.contracts for m in c.methods if m.exits}


@dataclass(frozen=True)
class Diagnostic:
    loc: SourceLoc
    message: str

    def __str__(self):
        return f"{self.loc}: {self.message}"


class SourceError(Exception):
    """An error in a source text: `message` at `loc`.  The front end's
    errors (lexing, parsing, inference, resolution and well-formedness) are
    its subclasses."""

    def __init__(self, loc, message):
        super().__init__(f"{loc}: {message}")
        self.loc = loc


class ResolutionError(SourceError):
    pass


# ---------------------------------------------------------------------------
# Traversals shared by every pass


def bool_leaves(node):
    """The leaves of an and/or/not tree, depth-first, left to right."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, BoolOp):
            stack.extend(reversed(n.parts))
        elif isinstance(n, NotOp):
            stack.append(n.operand)
        else:
            out.append(n)
    return out


def expr_nodes(*roots):
    """Every node under the given expressions and atoms, each pre-order,
    left to right: a comparison before its two sides, a predicate instance
    before its arguments, a binary operation before its operands.  An
    acc(...), '?' or expression leaf is its own only node."""
    stack = list(roots)
    stack.reverse()
    while stack:
        node = stack.pop()
        yield node
        t = type(node)  # node classes are never subclassed
        if t is BinOp or t is Cmp:
            stack.append(node.right)
            stack.append(node.left)
        elif t is PredUse:
            stack.extend(reversed(node.args))


def stmt_exprs(s):
    """The nodes of one statement's own expressions and atoms, not of its
    inner blocks: its expression or call arguments, its condition and
    invariant, its asserted formula or its check payload, in source order."""
    if isinstance(s, (Assign, Return)):
        return expr_nodes() if s.expr is None else expr_nodes(s.expr)
    if isinstance(s, Call):
        return expr_nodes(*s.args)
    if isinstance(s, If):
        return expr_nodes(*bool_leaves(s.cond))
    if isinstance(s, While):
        return expr_nodes(*bool_leaves(s.cond), *s.invariant.atoms)
    if isinstance(s, AssertStmt):
        return expr_nodes(*s.formula.atoms)
    return expr_nodes(s.payload)  # a Check


def stmts_recursive(body):
    """Every statement of a body, pre-order, as (site, statement).  A site is
    the statement's block path (i, "then"|"else"|"body", ...) plus its index
    in that block."""

    def walk(block, path):
        for i, s in enumerate(block):
            site = path + (i,)
            yield site, s
            if isinstance(s, If):
                yield from walk(s.then, site + ("then",))
                yield from walk(s.orelse, site + ("else",))
            elif isinstance(s, While):
                yield from walk(s.body, site + ("body",))

    return walk(body, ())


def map_blocks(body, fn):
    """The statement tree rebuilt block by block, inner blocks first: each
    block becomes fn(block path, statements), where the statements already
    carry their rebuilt inner blocks and keep their original indices."""

    def rebuild(block, path):
        out = []
        for i, s in enumerate(block):
            if isinstance(s, If):
                s = replace(s, then=rebuild(s.then, path + (i, "then")),
                            orelse=rebuild(s.orelse, path + (i, "else")))
            elif isinstance(s, While):
                s = replace(s, body=rebuild(s.body, path + (i, "body")))
            out.append(s)
        return fn(path, tuple(out))

    return rebuild(body, ())


# ---------------------------------------------------------------------------
# Formula operations


def normalize_formula(f: Formula) -> Formula:
    """Hoist imprecision to a single leading marker and drop duplicate acc
    atoms; atom order is otherwise preserved.  Idempotent."""
    seen_acc = set()
    atoms = []
    for a in f.atoms:
        if isinstance(a, Acc):
            if a.slot in seen_acc:
                continue
            seen_acc.add(a.slot)
        atoms.append(a)
    return Formula(imprecise=f.imprecise, atoms=tuple(atoms), loc=f.loc)


def atom_reads(atom, global_names, pred_reads=None):
    """Globals read by one atom: those its expressions read (old(G) counts as
    reading G), plus, for a predicate instance, what `pred_reads` says its
    body reads.  acc(...) and '?' read nothing."""
    out = {n.slot if isinstance(n, Old) else n.name for n in expr_nodes(atom)
           if isinstance(n, Old) or (isinstance(n, Name) and n.name in global_names)}
    if pred_reads and isinstance(atom, PredUse):
        out.update(pred_reads.get(atom.name, ()))
    return out


def predicate_global_reads(ctx: Contract):
    """Per-predicate sets of globals read, closed under recursion."""
    gnames = set(ctx.globals)
    reads = {p.name: set() for p in ctx.predicates}
    deps = {}
    for p in ctx.predicates:
        leaves = bool_leaves(p.body)
        for a in leaves:
            reads[p.name] |= atom_reads(a, gnames)
        deps[p.name] = {a.name for a in leaves if isinstance(a, PredUse)}
    changed = True
    while changed:
        changed = False
        for p in ctx.predicates:
            for q in deps[p.name]:
                if q in reads and not reads[q] <= reads[p.name]:
                    reads[p.name] |= reads[q]
                    changed = True
    return reads


def formula_acc_slots(f: Formula):
    return [a.slot for a in f.atoms if isinstance(a, Acc)]


def is_self_framed(f: Formula, ctx: Contract, extra_acc=()):
    """Every global read by a comparison or predicate atom must be covered by
    an acc in the formula itself (or, for postconditions and loop invariants,
    by an acc granted elsewhere via extra_acc)."""
    have = set(formula_acc_slots(f)) | set(extra_acc)
    gnames = set(ctx.globals)
    pred_reads = ctx.predicate_reads
    return all(atom_reads(a, gnames, pred_reads) <= have for a in f.atoms)


# ---------------------------------------------------------------------------
# Well-formedness


def out_of_range_literals(nodes):
    """A diagnostic for each integer literal among expression nodes that is
    not a uint64."""
    for node in nodes:
        if isinstance(node, IntLit) and not 0 <= node.value <= UINT_MAX:
            yield Diagnostic(node.loc, "integer literal out of uint64 range")


def expr_diagnostics(nodes):
    """The diagnostics of expression nodes anywhere but in an ensures: each
    integer literal that is not a uint64, and each old(...) or result."""
    for node in nodes:
        if isinstance(node, IntLit):
            if not 0 <= node.value <= UINT_MAX:
                yield Diagnostic(node.loc, "integer literal out of uint64 range")
        elif isinstance(node, Old):
            yield Diagnostic(node.loc, "old(...) is only allowed in ensures")
        elif isinstance(node, Result):
            yield Diagnostic(node.loc, "result is only allowed in ensures")


def well_formed_program(p: Program):
    """Structural invariants beyond what parsing and resolution enforce.
    Returns diagnostics; the program is well-formed iff the list is empty."""
    diags = []
    check_ids = set()  # one id names one woven check or exit row
    for c in p.contracts:
        if len(set(c.globals)) != len(c.globals):
            diags.append(Diagnostic(c.loc, f"duplicate global declaration in {c.name}"))
        # each name is declared once and means one thing
        seen = set()
        for kind, d, params in ([("predicate", q, q.params) for q in c.predicates]
                                + [("method", m, [n for n, _ in m.params]) for m in c.methods]):
            if (kind, d.name) in seen:
                diags.append(Diagnostic(d.loc, f"duplicate {kind} {d.name} in {c.name}"))
            seen.add((kind, d.name))
            if len(set(params)) != len(params):
                diags.append(Diagnostic(d.loc, f"duplicate parameter name in {kind} {d.name}"))
            for n in params:
                if n in c.globals:
                    diags.append(Diagnostic(d.loc, f"parameter {n} of {kind} {d.name} shadows global {n}"))
        for pred in c.predicates:
            leaves = bool_leaves(pred.body)
            for node in leaves:
                if isinstance(node, QMark):
                    diags.append(Diagnostic(node.loc, f"predicate {pred.name} must be precise: '?' not allowed in its body"))
                elif isinstance(node, Acc):
                    diags.append(Diagnostic(node.loc, f"acc(...) not allowed in predicate {pred.name} body"))
            diags.extend(expr_diagnostics(expr_nodes(*leaves)))
        for m in c.methods:
            req = m.spec.requires
            ens = m.spec.ensures
            if normalize_formula(req) != req or normalize_formula(ens) != ens:
                diags.append(Diagnostic(m.loc, f"specification of {m.name} is not normalized"))
            diags.extend(expr_diagnostics(expr_nodes(*req.atoms)))
            # a `#! exit` row is checked as the ensures atom it realizes
            ens_nodes = list(expr_nodes(*ens.atoms, *(r.payload for r in m.exits)))
            diags.extend(out_of_range_literals(ens_nodes))
            for node in ens_nodes:
                if isinstance(node, Result) and not m.returns:
                    diags.append(Diagnostic(node.loc, f"ensures of {m.name} mentions result but the method returns nothing"))
            if c.extern and not (req.imprecise and not req.atoms and ens.imprecise and not ens.atoms):
                diags.append(Diagnostic(m.loc, f"extern method {c.name}.{m.name} may not declare specifications beyond '?'"))
            if c.extern and m.exits:
                diags.append(Diagnostic(m.exits[0].loc, f"extern method {c.name}.{m.name} may not carry `#! exit` rows"))
            woven = [(r.check_id, r.loc) for r in m.exits]
            if not is_self_framed(req, c):
                diags.append(Diagnostic(req.loc, f"requires of {m.name} is not self-framed"))
            req_acc = formula_acc_slots(req)
            if not is_self_framed(ens, c, extra_acc=req_acc):
                diags.append(Diagnostic(ens.loc, f"ensures of {m.name} is not self-framed"))
            if not m.opaque and not m.body:
                diags.append(Diagnostic(m.loc, f"method {m.name} has an empty body"))
            if m.opaque and not c.extern:
                diags.append(Diagnostic(m.loc, f"only extern methods may be opaque ({m.name})"))
            for _, s in stmts_recursive(m.body):
                if isinstance(s, (If, While)):
                    diags.extend(expr_diagnostics(expr_nodes(*bool_leaves(s.cond))))
                if isinstance(s, (Assign, Return, Call)):
                    if isinstance(s, Return):
                        if m.returns and s.expr is None:
                            diags.append(Diagnostic(s.loc, "return without a value in a method returning uint64"))
                        if not m.returns and s.expr is not None:
                            diags.append(Diagnostic(s.loc, "return with a value in a method returning nothing"))
                    diags.extend(expr_diagnostics(stmt_exprs(s)))
                elif isinstance(s, While):
                    inv = s.invariant
                    if normalize_formula(inv) != inv:
                        diags.append(Diagnostic(s.loc, "loop invariant is not normalized"))
                    diags.extend(expr_diagnostics(expr_nodes(*inv.atoms)))
                    if not is_self_framed(inv, c, extra_acc=req_acc):
                        diags.append(Diagnostic(inv.loc, "loop invariant is not self-framed"))
                elif isinstance(s, AssertStmt):
                    diags.extend(expr_diagnostics(expr_nodes(*s.formula.atoms)))
                    if not is_self_framed(s.formula, c, extra_acc=req_acc):
                        diags.append(Diagnostic(s.loc, "asserted formula is not self-framed"))
                elif isinstance(s, Check):
                    diags.extend(expr_diagnostics(stmt_exprs(s)))
                    woven.append((s.check_id, s.loc))
            for cid, loc in woven:
                if cid in check_ids:
                    diags.append(Diagnostic(loc, f"check id {cid} is woven twice"))
                check_ids.add(cid)
            if m.returns and not m.opaque and not _always_returns(m.body):
                diags.append(Diagnostic(m.loc, f"method {m.name} may fall off the end without returning a value"))
    return diags


def _always_returns(body):
    for s in body:
        if isinstance(s, Return):
            return True
        if isinstance(s, If) and s.orelse and _always_returns(s.then) and _always_returns(s.orelse):
            return True
    return False


# ---------------------------------------------------------------------------
# Misc helpers shared downstream


def assigned_names(body):
    """Every name a body assigns, globals included: assignment targets and
    call result bindings."""
    return {s.target for _, s in stmts_recursive(body)
            if isinstance(s, (Assign, Call)) and s.target}
