"""Indentation-sensitive lexer for GCL source.

Produces a flat token stream with synthetic INDENT/DEDENT tokens.  `#@`
introduces a specification fragment and `#!` a woven-check directive; both are
tokenized like ordinary code after the marker.  Any other `#` comment is
dropped.  Tabs are rejected outright.

A token is a `typing.NamedTuple`, as is its `SourceLoc`: one is built for
every lexeme, and a tuple gives the immutability and value equality a token
needs for less than a frozen dataclass costs (see `lang`).
"""

from __future__ import annotations

from typing import NamedTuple

from .lang import SourceError, SourceLoc

KEYWORDS = {
    "contract", "extern", "method", "opaque", "if", "else", "while",
    "return", "call", "and", "or", "not", "uint64", "global", "predicate",
    "requires", "ensures", "invariant", "assert", "check", "entry", "exit",
    "old", "result", "true",
}

# only these start or continue an integer literal: str.isdigit would admit
# '²', which int() rejects, and '٣', which int() reads as 3
_DIGITS = frozenset("0123456789")

# each one or two characters long; _lex_line looks up the two-character
# slice first, so the longest match wins
SYMBOLS = frozenset({
    ":=", "->", "==", "!=", "<=", ">=", "<", ">", "=", "+", "-", "*", "/",
    "%", "(", ")", ",", ";", ":", "?", ".", "@",
})


class Token(NamedTuple):
    kind: str  # KW | IDENT | INT | SYM | SPEC | BANG | INDENT | DEDENT | EOF
    lexeme: str
    loc: SourceLoc


class LexError(SourceError):
    pass


def lex(source: str, filename: str = "<mem>"):
    tokens = []
    indents = [0]
    lines = source.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        if "\t" in raw:
            col = raw.index("\t") + 1
            raise LexError(SourceLoc(filename, lineno, col), "tab character in source")
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#") and not (
            stripped.startswith("#@") or stripped.startswith("#!")
        ):
            continue  # plain comment line
        indent = len(raw) - len(raw.lstrip(" "))
        loc0 = SourceLoc(filename, lineno, indent + 1)
        if indent > indents[-1]:
            indents.append(indent)
            tokens.append(Token("INDENT", "", loc0))
        else:
            while indent < indents[-1]:
                indents.pop()
                tokens.append(Token("DEDENT", "", loc0))
            if indent != indents[-1]:
                raise LexError(loc0, "inconsistent dedent")
        _lex_line(raw, lineno, filename, tokens)
    end = SourceLoc(filename, len(lines) + 1, 1)
    while len(indents) > 1:
        indents.pop()
        tokens.append(Token("DEDENT", "", end))
    return tokens


def _lex_line(raw, lineno, filename, tokens):
    i = len(raw) - len(raw.lstrip(" "))
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch == " ":
            i += 1
            continue
        loc = SourceLoc(filename, lineno, i + 1)
        if ch == "#":
            if raw.startswith("#@", i):
                tokens.append(Token("SPEC", "#@", loc))
                i += 2
                continue
            if raw.startswith("#!", i):
                tokens.append(Token("BANG", "#!", loc))
                i += 2
                continue
            return  # trailing comment: rest of line ignored
        if ch in _DIGITS:
            j = i
            while j < n and raw[j] in _DIGITS:
                j += 1
            tokens.append(Token("INT", raw[i:j], loc))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (raw[j].isalnum() or raw[j] == "_"):
                j += 1
            word = raw[i:j]
            tokens.append(Token("KW" if word in KEYWORDS else "IDENT", word, loc))
            i = j
            continue
        sym = raw[i:i + 2]
        if sym not in SYMBOLS:
            if ch not in SYMBOLS:
                raise LexError(loc, f"unexpected character {ch!r}")
            sym = ch
        tokens.append(Token("SYM", sym, loc))
        i += len(sym)
