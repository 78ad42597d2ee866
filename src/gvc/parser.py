"""Recursive-descent parser for GCL token streams.

Parsing a plain program yields zero Check statements; woven source (with `#!`
directives) round-trips through the same grammar, carrying its `#! exit
<payload> @id;` boundary rows alongside the program.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from .lang import (
    Acc, Assign, AssertStmt, BinOp, BoolOp, BoundaryEntry, Call, Check, Cmp,
    Contract, Formula, If, IntLit, Method, Name, NotOp, Old, PredUse,
    Predicate, Program, QMark, RELOPS, Result, Return, SourceError, SourceLoc,
    Spec, UNKNOWN_FORMULA, While, normalize_formula,
)
from .lexer import Token

# The deepest nesting accepted in a statement, counting the `if`/`while`
# bodies around it and the levels of its expressions, conditions or
# predicate bodies.  Each such body, parenthesis, binary operator of a
# chain, `not`, and `and`/`or` level is one level; the passes after parsing
# walk these trees recursively, and this bound keeps them well inside
# Python's stack.
MAX_NESTING = 100


class ParseError(SourceError):
    pass


@dataclass
class ParsedUnit:
    program: Program
    boundary: dict = field(default_factory=dict)  # (contract, method) -> [BoundaryEntry]


class _Parser:
    def __init__(self, tokens, filename):
        self.toks = list(tokens)
        self.filename = filename
        self.pos = 0
        self.boundary = {}
        self.open = 0  # nesting levels enclosing the current token

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead=0):
        i = self.pos + ahead
        if i < len(self.toks):
            return self.toks[i]
        # a source without tokens ends where it starts
        loc = self.toks[-1].loc if self.toks else SourceLoc(self.filename, 1, 1)
        return Token("EOF", "", loc)

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def at(self, kind, lexeme=None):
        t = self.peek()
        return t.kind == kind and (lexeme is None or t.lexeme == lexeme)

    def at_kw(self, word):
        return self.at("KW", word)

    def expect(self, kind, lexeme=None):
        t = self.peek()
        if t.kind != kind or (lexeme is not None and t.lexeme != lexeme):
            want = lexeme or kind
            raise ParseError(t.loc, f"expected {want!r}, found {t.lexeme or t.kind!r}")
        return self.next()

    def expect_kw(self, word):
        return self.expect("KW", word)

    def expect_sym(self, sym):
        return self.expect("SYM", sym)

    def expect_ident(self):
        t = self.peek()
        if t.kind != "IDENT":
            raise ParseError(t.loc, f"expected identifier, found {t.lexeme or t.kind!r}")
        return self.next()

    def parse_list(self, item):
        """`( item, item, ... )`, possibly empty; returns the items."""
        self.expect_sym("(")
        items = []
        if not self.at("SYM", ")"):
            items.append(item())
            while self.at("SYM", ","):
                self.next()
                items.append(item())
        self.expect_sym(")")
        return tuple(items)

    # -- program structure -------------------------------------------------

    def parse_program(self):
        contracts = []
        while not self.at("EOF"):
            contracts.append(self.parse_contract())
        if not contracts:
            t = self.peek()
            raise ParseError(t.loc, "expected at least one contract")
        return ParsedUnit(Program(tuple(contracts)), self.boundary)

    def parse_contract(self):
        extern = False
        loc = self.peek().loc
        if self.at_kw("extern"):
            self.next()
            extern = True
        self.expect_kw("contract")
        name = self.expect_ident().lexeme
        self.expect_sym(":")
        self.expect("INDENT")
        globals_, predicates, methods = [], [], []
        while not self.at("DEDENT") and not self.at("EOF"):
            if self.at("SPEC"):
                marker = self.peek(1)
                if marker.kind == "KW" and marker.lexeme == "global":
                    self.next(); self.next()
                    globals_.append(self.expect_ident().lexeme)
                    self.expect_sym(";")
                    continue
                if marker.kind == "KW" and marker.lexeme == "predicate":
                    predicates.append(self.parse_predicate())
                    continue
                raise ParseError(marker.loc, "expected 'global' or 'predicate' after '#@' at contract level")
            if self.at_kw("method"):
                methods.append(self.parse_method(name))
                continue
            t = self.peek()
            raise ParseError(t.loc, f"expected contract item, found {t.lexeme or t.kind!r}")
        self.expect("DEDENT")
        return Contract(name, tuple(globals_), tuple(predicates), tuple(methods), extern, loc)

    def parse_predicate(self):
        loc = self.expect("SPEC").loc
        self.expect_kw("predicate")
        name = self.expect_ident().lexeme
        params = self.parse_list(lambda: self.expect_ident().lexeme)
        self.expect_sym("=")
        body, _ = self.parse_bool(self.parse_pred_leaf)
        self.expect_sym(";")
        return Predicate(name, params, body, loc)

    def parse_method(self, contract_name):
        loc = self.expect_kw("method").loc
        name = self.expect_ident().lexeme
        params = self.parse_list(self.parse_param)
        returns = False
        if self.at("SYM", "->"):
            self.next()
            self.expect_kw("uint64")
            returns = True
        self.expect_sym(":")
        self.expect("INDENT")
        requires, ensures = None, None
        while self.at("SPEC") and self.peek(1).lexeme in ("requires", "ensures"):
            self.next()
            which = self.next().lexeme
            f = self.parse_formula()
            self.expect_sym(";")
            if which == "requires":
                requires = f if requires is None else _conjoin(requires, f)
            else:
                ensures = f if ensures is None else _conjoin(ensures, f)
        residuals = []
        while self.at("BANG") and self.peek(1).lexeme == "exit":
            self.next(); self.next()
            payload, _ = self.parse_formula_term()
            self.expect_sym("@")
            cid = self.expect_ident().lexeme
            self.expect_sym(";")
            residuals.append(BoundaryEntry("exit", payload, cid))
        if residuals:
            self.boundary[(contract_name, name)] = residuals
        opaque = False
        body = []
        if self.at_kw("opaque"):
            self.next()
            self.expect_sym(";")
            opaque = True
        else:
            while not self.at("DEDENT") and not self.at("EOF"):
                body.append(self.parse_stmt())
            if not body:
                raise ParseError(loc, f"method {name} requires a body")
        self.expect("DEDENT")
        spec = Spec(
            requires=normalize_formula(requires) if requires is not None else UNKNOWN_FORMULA,
            ensures=normalize_formula(ensures) if ensures is not None else UNKNOWN_FORMULA,
        )
        return Method(name, params, returns, spec, tuple(body), opaque, loc)

    def parse_param(self):
        name = self.expect_ident().lexeme
        self.expect_sym(":")
        self.expect_kw("uint64")
        return (name, "uint64")

    # -- statements --------------------------------------------------------

    def parse_block(self):
        self.expect("INDENT")
        stmts = self.parse_body()
        self.expect("DEDENT")
        return tuple(stmts)

    def parse_body(self):
        """The statements of an `if`/`while` body, one nesting level inside
        the enclosing statement."""
        with self._inside(self.peek()):
            stmts = []
            while not self.at("DEDENT") and not self.at("EOF"):
                stmts.append(self.parse_stmt())
        return stmts

    def parse_stmt(self):
        t = self.peek()
        if t.kind == "SPEC":
            marker = self.peek(1)
            if marker.lexeme == "assert":
                self.next(); self.next()
                f = self.parse_formula()
                self.expect_sym(";")
                return AssertStmt(normalize_formula(f), t.loc)
            raise ParseError(marker.loc, f"unexpected specification {marker.lexeme!r} in statement position")
        if t.kind == "BANG":
            marker = self.peek(1)
            if marker.lexeme != "check":
                raise ParseError(marker.loc, "expected 'check' after '#!' in statement position")
            self.next(); self.next()
            payload, _ = self.parse_formula_term()
            self.expect_sym("@")
            cid = self.expect_ident().lexeme
            self.expect_sym(";")
            return Check(cid, payload, t.loc)
        if t.kind == "KW" and t.lexeme == "if":
            self.next()
            cond, _ = self.parse_cond()
            self.expect_sym(":")
            then = self.parse_block()
            orelse = ()
            if self.at_kw("else"):
                self.next()
                self.expect_sym(":")
                orelse = self.parse_block()
            return If(cond, then, orelse, t.loc)
        if t.kind == "KW" and t.lexeme == "while":
            self.next()
            cond, _ = self.parse_cond()
            self.expect_sym(":")
            self.expect("INDENT")
            inv = None
            while self.at("SPEC") and self.peek(1).lexeme == "invariant":
                self.next(); self.next()
                f = self.parse_formula()
                self.expect_sym(";")
                inv = f if inv is None else _conjoin(inv, f)
            body = self.parse_body()
            self.expect("DEDENT")
            if not body:
                raise ParseError(t.loc, "while loop requires a body")
            invariant = normalize_formula(inv) if inv is not None else UNKNOWN_FORMULA
            return While(cond, invariant, tuple(body), t.loc)
        if t.kind == "KW" and t.lexeme == "return":
            self.next()
            expr = None
            if not self.at("SYM", ";"):
                expr, _ = self.parse_expr()
            self.expect_sym(";")
            return Return(expr, t.loc)
        if t.kind == "KW" and t.lexeme == "call":
            self.next()
            contract, method, args = self.parse_call_tail()
            self.expect_sym(";")
            return Call(contract, method, args, None, t.loc)
        if t.kind == "IDENT":
            target = self.next().lexeme
            self.expect_sym(":=")
            if self.at_kw("call"):
                self.next()
                contract, method, args = self.parse_call_tail()
                self.expect_sym(";")
                return Call(contract, method, args, target, t.loc)
            expr, _ = self.parse_expr()
            self.expect_sym(";")
            return Assign(target, expr, t.loc)
        raise ParseError(t.loc, f"expected statement, found {t.lexeme or t.kind!r}")

    def parse_call_tail(self):
        contract = self.expect_ident().lexeme
        self.expect_sym(".")
        method = self.expect_ident().lexeme
        return contract, method, tuple(a for a, _ in self.parse_list(self.parse_expr))

    # -- nesting -----------------------------------------------------------
    # The rules for expressions, conditions, predicate bodies and formula
    # atoms return (node, height), the height counting the nesting levels
    # on the node's deepest path.  Every (node, height) returned satisfies
    # open + height <= MAX_NESTING.  The recursive rules enter one another
    # directly (the helpers below are context managers) so that each level
    # costs the parser few Python frames.

    def _level(self, tok, height):
        """The height of a node one level above `height`; ParseError at
        `tok` when that takes the nesting past MAX_NESTING."""
        if self.open + height >= MAX_NESTING:
            raise ParseError(tok.loc, f"nesting deeper than {MAX_NESTING} levels")
        return height + 1

    @contextmanager
    def _inside(self, tok):
        """The body parses one level inside `tok`: a '(', a 'not', or the
        first token of an `if`/`while` body."""
        self._level(tok, 0)
        self.open += 1
        try:
            yield
        finally:
            self.open -= 1

    @contextmanager
    def _second_reading(self, saved, err):
        """The body re-reads an ambiguous '(' leaf from token `saved` after
        the first reading failed with `err`; if it fails too, the error
        that got further is raised (the second's on a tie)."""
        self.pos = saved
        try:
            yield
        except ParseError as e:
            if (err.loc.line, err.loc.col) > (e.loc.line, e.loc.col):
                raise err from None
            raise

    # -- conditions and predicate bodies -----------------------------------

    def parse_cond(self):
        return self.parse_bool(self.parse_cond_leaf)

    def parse_bool(self, leaf, op="or"):
        """An `op`-separated chain of the next tighter rule, where `or` binds
        looser than `and`, which binds looser than `not`."""
        loc = self.peek().loc
        parts, ops, height = [], [], 0
        while True:
            part, h = self.parse_bool(leaf, "and") if op == "or" else self._parse_not(leaf)
            parts.append(part)
            height = max(height, h)
            if not self.at_kw(op):
                break
            ops.append(self.next())
        if not ops:
            return parts[0], height
        return BoolOp(op, tuple(parts), loc), self._level(ops[0], height)

    def _parse_not(self, leaf):
        if self.at_kw("not"):
            tok = self.next()
            with self._inside(tok):
                operand, height = self._parse_not(leaf)
            return NotOp(operand, tok.loc), height + 1
        return leaf()

    def parse_cond_leaf(self):
        """A comparison (or a bare expression, which inference rejects), or
        a parenthesized condition.  Only a leaf starting with '(' can be
        either, so only such a leaf backtracks."""
        saved, tok = self.pos, self.peek()
        try:
            lhs, height = self.parse_expr()
            if self.peek().lexeme in RELOPS:
                op = self.next().lexeme
                rhs, h = self.parse_expr()
                return Cmp(op, lhs, rhs, lhs.loc), max(height, h)
            return lhs, height  # bare expression; type inference rejects it
        except ParseError as e:
            if not (tok.kind == "SYM" and tok.lexeme == "("):
                raise
            err = e
        with self._second_reading(saved, err):
            with self._inside(self.next()):
                c, height = self.parse_bool(self.parse_cond_leaf)
            self.expect_sym(")")
            return c, height + 1

    def parse_pred_leaf(self):
        """'?', a formula term, or a parenthesized body; a leaf starting
        with '(' is read as the latter first."""
        saved, tok = self.pos, self.peek()
        if tok.kind == "SYM" and tok.lexeme == "?":
            self.next()
            return QMark(tok.loc), 0
        if not (tok.kind == "SYM" and tok.lexeme == "("):
            return self.parse_formula_term()
        try:
            with self._inside(self.next()):
                c, height = self.parse_bool(self.parse_pred_leaf)
            self.expect_sym(")")
            return c, height + 1
        except ParseError as e:
            err = e
        with self._second_reading(saved, err):
            return self.parse_formula_term()

    # -- formulas ----------------------------------------------------------

    def parse_formula(self):
        loc = self.peek().loc
        imprecise = False
        atoms = []
        while True:
            t = self.peek()
            if t.kind == "SYM" and t.lexeme == "?":
                self.next()
                imprecise = True
            elif t.kind == "KW" and t.lexeme == "true":
                self.next()
            else:
                atoms.append(self.parse_formula_term()[0])
            if self.at_kw("and"):
                self.next()
                continue
            break
        return Formula(imprecise, tuple(atoms), loc)

    def parse_formula_term(self):
        t = self.peek()
        if t.kind == "IDENT" and t.lexeme == "acc" and self.peek(1).lexeme == "(":
            self.next(); self.next()
            slot = self.expect_ident().lexeme
            self.expect_sym(")")
            return Acc(slot, t.loc), 0
        if t.kind == "IDENT" and self.peek(1).lexeme == "(":
            name = self.next().lexeme
            args = self.parse_list(self.parse_expr)
            return PredUse(name, tuple(a for a, _ in args), t.loc), max((h for _, h in args), default=0)
        left, height = self.parse_expr()
        op = self.peek()
        if op.lexeme not in RELOPS:
            raise ParseError(op.loc, "expected comparison, acc(...), or predicate instance")
        self.next()
        right, h = self.parse_expr()
        return Cmp(op.lexeme, left, right, t.loc), max(height, h)

    # -- expressions -------------------------------------------------------

    def parse_expr(self):
        left, height = self.parse_mul()
        while self.peek().lexeme in ("+", "-") and self.peek().kind == "SYM":
            tok = self.next()
            right, h = self.parse_mul()
            left, height = BinOp(tok.lexeme, left, right, left.loc), self._level(tok, max(height, h))
        return left, height

    def parse_mul(self):
        left, height = self.parse_unary()
        while self.peek().lexeme in ("*", "/", "%") and self.peek().kind == "SYM":
            tok = self.next()
            right, h = self.parse_unary()
            left, height = BinOp(tok.lexeme, left, right, left.loc), self._level(tok, max(height, h))
        return left, height

    def parse_unary(self):
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return IntLit(int(t.lexeme), t.loc), 0
        if t.kind == "KW" and t.lexeme == "old":
            self.next()
            self.expect_sym("(")
            slot = self.expect_ident().lexeme
            self.expect_sym(")")
            return Old(slot, t.loc), 0
        if t.kind == "KW" and t.lexeme == "result":
            self.next()
            return Result(t.loc), 0
        if t.kind == "IDENT":
            self.next()
            return Name(t.lexeme, t.loc), 0
        if t.kind == "SYM" and t.lexeme == "(":
            self.next()
            with self._inside(t):
                e, height = self.parse_expr()
            self.expect_sym(")")
            return e, height + 1
        raise ParseError(t.loc, f"expected expression, found {t.lexeme or t.kind!r}")


def _conjoin(f1: Formula, f2: Formula) -> Formula:
    return Formula(f1.imprecise or f2.imprecise, f1.atoms + f2.atoms, f1.loc)


def parse_program(tokens, filename: str = "<mem>") -> ParsedUnit:
    """Parse the tokens of the source `filename` (which names its end when
    there are no tokens)."""
    return _Parser(tokens, filename).parse_program()
