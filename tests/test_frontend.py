"""Lexing, parsing, type inference, and name resolution."""

import pytest

from gvc.frontend import InferenceError, WellFormednessError, infer_types, load_source, resolve
from gvc.lang import Assign, Call, Check, If, ResolutionError, SourceError, While
from gvc.lexer import LexError, lex
from gvc.parser import ParseError, parse_program


class TestLexer:
    def test_spec_comment_line(self):
        toks = [t for t in lex("#@ global Count;\n", "t") if t.kind not in ("INDENT", "DEDENT")]
        assert [t.kind for t in toks] == ["SPEC", "KW", "IDENT", "SYM"]
        assert toks[2].lexeme == "Count"

    def test_empty_file(self):
        assert lex("", "t") == []

    def test_tab_indentation_rejected(self):
        with pytest.raises(LexError):
            lex("contract C:\n\tmethod m():\n", "t")

    def test_plain_comments_skipped(self):
        toks = lex("# just a note\n", "t")
        assert toks == []

    def test_locations(self):
        toks = lex("contract C:\n", "t")
        assert toks[0].loc.line == 1 and toks[0].loc.col == 1

    def test_symbols_take_the_longest_match(self):
        toks = lex("a:=b<=c<d!=e->f:g;", "t")
        assert [t.lexeme for t in toks if t.kind == "SYM"] == [":=", "<=", "<", "!=", "->", ":", ";"]
        assert [t.loc.col for t in toks if t.kind == "SYM"] == [2, 5, 8, 10, 13, 16, 18]

    @pytest.mark.parametrize("source, col", [("x ! y", 3), ("x !", 3), ("x $= y", 3), ("x =!", 4)])
    def test_unexpected_character_at_its_column(self, source, col):
        with pytest.raises(LexError) as e:
            lex(source, "t")
        assert e.value.loc.col == col
        assert str(e.value) == f"t:1:{col}: unexpected character {source[col - 1]!r}"


class TestParser:
    def test_sell_structure(self, sell_program):
        assert len(sell_program.contracts) == 1
        c = sell_program.contracts[0]
        assert c.globals == ("Count",)
        assert len(c.methods) == 1
        m = c.methods[0]
        assert len(m.body) == 2
        assert m.spec.requires.imprecise
        assert not m.spec.ensures.imprecise

    def test_missing_spec_defaults_to_unknown(self):
        src = (
            "contract C:\n"
            "  method m(x: uint64):\n"
            "    y := x;\n"
        )
        program, _ = load_source(src, "t.gcl")
        spec = program.contracts[0].methods[0].spec
        assert spec.requires.imprecise and spec.requires.atoms == ()
        assert spec.ensures.imprecise and spec.ensures.atoms == ()

    def test_multiple_requires_lines_conjoin(self):
        src = (
            "contract C:\n"
            "  method m(x: uint64):\n"
            "    #@ requires x >= 1;\n"
            "    #@ requires x <= 9;\n"
            "    #@ ensures ?;\n"
            "    y := x;\n"
        )
        program, _ = load_source(src, "t.gcl")
        assert len(program.contracts[0].methods[0].spec.requires.atoms) == 2

    def test_while_invariant_inside_body(self):
        src = (
            "contract C:\n"
            "  method m(n: uint64):\n"
            "    #@ requires ?;\n"
            "    #@ ensures ?;\n"
            "    i := 0;\n"
            "    while i < n:\n"
            "      #@ invariant ? and i <= n;\n"
            "      i := i + 1;\n"
        )
        program, _ = load_source(src, "t.gcl")
        loop = program.contracts[0].methods[0].body[1]
        assert isinstance(loop, While)
        assert loop.invariant.imprecise and len(loop.invariant.atoms) == 1

    def test_boundary_directives(self):
        src = (
            "contract C:\n"
            "  #@ global G;\n"
            "  method m():\n"
            "    #@ requires ? and acc(G);\n"
            "    #@ ensures ?;\n"
            "    #! exit G >= 1 @c3 postcondition;\n"
            "    G := 1;\n"
        )
        program, _ = load_source(src, "t.gcl")
        [row] = program.contract("C").method("m").exits
        assert isinstance(row, Check)
        assert (row.check_id, row.obligation) == ("c3", "postcondition")
        # located at its payload, as the extern and duplicate-id diagnostics
        # report it
        assert row.loc == row.payload.loc and (row.loc.line, row.loc.col) == (6, 13)

    def test_parse_error_has_location(self):
        with pytest.raises(ParseError):
            load_source("contract C\n", "t.gcl")

    def test_parenthesized_body_error_at_its_real_location(self):
        # both readings of the '(' leaf fail; the one that got further wins
        src = (
            "contract C:\n"
            "  #@ predicate p(n) = (n >= 1 and n + > 2);\n"
            "  method m(x: uint64):\n"
            "    #@ requires ? and p(x);\n"
            "    y := x;\n"
        )
        with pytest.raises(ParseError, match=r"^t\.gcl:2:39: expected expression, found '>'$"):
            load_source(src, "t.gcl")


class TestInference:
    def test_use_before_assignment(self):
        src = (
            "contract C:\n"
            "  method m():\n"
            "    #@ requires ?;\n"
            "    #@ ensures ?;\n"
            "    y := z;\n"
        )
        with pytest.raises(InferenceError):
            load_source(src, "t.gcl")

    def test_branch_assignment_not_definite(self):
        src = (
            "contract C:\n"
            "  method m(x: uint64):\n"
            "    #@ requires ?;\n"
            "    #@ ensures ?;\n"
            "    if x >= 1:\n"
            "      y := 1;\n"
            "    z := y;\n"
        )
        with pytest.raises(InferenceError):
            load_source(src, "t.gcl")

    def test_bare_expression_condition_rejected(self):
        src = (
            "contract C:\n"
            "  method m(x: uint64):\n"
            "    #@ requires ?;\n"
            "    #@ ensures ?;\n"
            "    if x:\n"
            "      y := 1;\n"
        )
        with pytest.raises(InferenceError) as e:
            load_source(src, "t.gcl")
        assert "condition" in str(e.value)


LITERAL_SITES = (
    "contract C:\n"
    "  #@ global G;\n"
    "  #@ predicate small(a) = a <= {predicate};\n"
    "  method m(x: uint64) -> uint64:\n"
    "    #@ requires acc(G) and G <= {requires};\n"
    "    #@ ensures acc(G) and G <= {ensures};\n"
    "    #! exit G <= {exit} @c0 postcondition;\n"
    "    #! check x <= {check} @c1 precondition;\n"
    "    y := x + {assign};\n"
    "    call C.n({call});\n"
    "    if x < {if}:\n"
    "      y := 0;\n"
    "    while y < {while}:\n"
    "      #@ invariant ? and y <= {invariant};\n"
    "      y := y + 1;\n"
    "    #@ assert ? and x <= {assert};\n"
    "    return {return};\n"
    "  method n(a: uint64):\n"
    "    #@ requires ?;\n"
    "    #@ ensures ?;\n"
    "    return;\n"
)
SITE_NAMES = ("predicate", "requires", "ensures", "exit", "check", "assign", "call",
              "if", "while", "invariant", "assert", "return")


class TestLiteralRange:
    def test_largest_uint64_is_accepted_everywhere(self):
        load_source(LITERAL_SITES.format(**dict.fromkeys(SITE_NAMES, 2**64 - 1)), "t.gcl")

    @pytest.mark.parametrize("site", SITE_NAMES)
    def test_literal_past_uint64_is_rejected_at_its_location(self, site):
        # every expression a program holds, spec or code, takes uint64
        # literals only; an exit row is checked as the ensures atom it realizes
        src = LITERAL_SITES.format(**{**dict.fromkeys(SITE_NAMES, 1), site: 2**64})
        line = next(i for i, text in enumerate(src.splitlines(), 1) if str(2**64) in text)
        col = src.splitlines()[line - 1].index(str(2**64)) + 1
        with pytest.raises(WellFormednessError) as e:
            load_source(src, "t.gcl")
        assert str(e.value) == f"t.gcl:{line}:{col}: integer literal out of uint64 range"


@pytest.mark.parametrize("payload, message", [
    ("old(G) <= 5", "old(...) is only allowed in ensures"),
    ("result <= 5", "result is only allowed in ensures"),
], ids=["old", "result"])
def test_spec_marker_in_a_check_payload_is_rejected(payload, message):
    src = ("contract C:\n  #@ global G;\n  method m(x: uint64) -> uint64:\n"
           "    #@ requires acc(G);\n    #@ ensures ?;\n"
           f"    #! check {payload} @c0 assert;\n    return x;\n")
    with pytest.raises(WellFormednessError) as e:
        load_source(src, "t.gcl")
    assert str(e.value) == f"t.gcl:6:14: {message}"


def test_exit_row_on_an_extern_method_is_rejected():
    src = ("contract C:\n  method m():\n    #@ requires ?;\n    #@ ensures ?;\n    call Feed.ping();\n"
           "extern contract Feed:\n  method ping():\n    #! exit 1 <= 2 @c0 postcondition;\n    opaque;\n")
    with pytest.raises(WellFormednessError) as e:
        load_source(src, "t.gcl")
    assert str(e.value) == "t.gcl:8:13: extern method Feed.ping may not carry `#! exit` rows"


@pytest.mark.parametrize("first, kind", [("check", "assert"), ("exit", "postcondition")],
                         ids=["check", "exit"])
def test_one_id_names_one_woven_check(first, kind):
    src = ("contract C:\n  #@ global G;\n  method m():\n    #@ requires acc(G);\n"
           f"    #@ ensures acc(G);\n    #! {first} G >= 1 @c0 {kind};\n    G := 1;\n"
           "    #! check G >= 2 @c0 assert;\n    G := 2;\n")
    with pytest.raises(WellFormednessError) as e:
        load_source(src, "t.gcl")
    assert str(e.value) == "t.gcl:8:5: check id c0 is woven twice"


class TestResolution:
    def test_resolve_returns_the_parsed_program(self, sell_path):
        program = parse_program(lex(sell_path.read_text(encoding="utf-8"), str(sell_path)))
        infer_types(program)
        assert resolve(program) is program
        body = program.contracts[0].methods[0].body
        assert isinstance(body[1], Assign) and body[1].target == "Count"

    @pytest.mark.parametrize("body, expected", [
        # predicates come before every method
        ("  #@ predicate p(n) = n >= Zed;\n"
         "  method m(x: uint64):\n"
         "    #@ requires mystery >= 1;\n"
         "    y := 1;\n",
         "3:28: unresolved name 'Zed' in specification"),
        # requires, then ensures, then the body; left operand first
        ("  method m(x: uint64):\n"
         "    #@ requires Foo >= Bar;\n"
         "    #@ ensures old(Nope) >= 0;\n"
         "    x := 1;\n",
         "4:17: unresolved name 'Foo' in specification"),
        ("  method m(x: uint64):\n"
         "    #@ requires acc(G);\n"
         "    #@ ensures old(Nope) >= 0;\n"
         "    x := 1;\n",
         "5:16: old(...) names unknown global 'Nope'"),
        # a condition before the blocks it guards
        ("  method m(x: uint64):\n"
         "    if old(Nope) >= 1:\n"
         "      x := 1;\n",
         "4:8: old(...) names unknown global 'Nope'"),
        # a loop's condition, then its invariant, then its body
        ("  method m(x: uint64):\n"
         "    while G > 0:\n"
         "      #@ invariant acc(H);\n"
         "      x := 1;\n",
         "5:20: acc(...) names unknown global 'H'"),
        # an assignment's expression before its target
        ("  method m(x: uint64):\n"
         "    x := old(Nope);\n",
         "4:10: old(...) names unknown global 'Nope'"),
        # a call's callee and arity before its arguments and binding
        ("  method m(x: uint64):\n"
         "    G := call C.nope(old(Nope));\n",
         "4:5: contract C has no method 'nope'"),
        ("  method r() -> uint64:\n"
         "    return 1;\n"
         "  method m(x: uint64):\n"
         "    G := call C.r(old(Nope));\n",
         "6:5: C.r expects 0 argument(s), got 1"),
        ("  method r(a: uint64) -> uint64:\n"
         "    return a;\n"
         "  method m(x: uint64):\n"
         "    G := call C.r(old(Nope));\n",
         "6:19: old(...) names unknown global 'Nope'"),
        # an earlier statement before a later one, nested blocks included
        ("  method m(x: uint64):\n"
         "    if x > 0:\n"
         "      #@ assert unknown(x);\n"
         "    x := 1;\n",
         "5:17: unknown predicate 'unknown'"),
        # resolution errors before well-formedness diagnostics
        ("  method m(x: uint64):\n"
         "    G := 1;\n"
         "  method m(x: uint64):\n"
         "    x := 1;\n",
         "6:5: assignment to parameter 'x'"),
    ])
    def test_first_resolution_error_is_reported(self, body, expected):
        src = "contract C:\n  #@ global G;\n" + body
        with pytest.raises(ResolutionError) as e:
            load_source(src, "t.gcl")
        assert str(e.value) == "t.gcl:" + expected

    def test_unknown_name_in_spec(self):
        src = (
            "contract C:\n"
            "  method m():\n"
            "    #@ requires mystery >= 1;\n"
            "    #@ ensures ?;\n"
            "    y := 1;\n"
        )
        with pytest.raises(ResolutionError):
            load_source(src, "t.gcl")

    def test_assignment_to_parameter(self):
        src = (
            "contract C:\n"
            "  method m(x: uint64):\n"
            "    #@ requires ?;\n"
            "    #@ ensures ?;\n"
            "    x := 1;\n"
        )
        with pytest.raises(ResolutionError):
            load_source(src, "t.gcl")

    def test_call_arity_checked(self):
        src = (
            "contract C:\n"
            "  method a(x: uint64):\n"
            "    #@ requires ?;\n"
            "    #@ ensures ?;\n"
            "    y := x;\n"
            "  method b():\n"
            "    #@ requires ?;\n"
            "    #@ ensures ?;\n"
            "    call C.a(1, 2);\n"
        )
        with pytest.raises(ResolutionError):
            load_source(src, "t.gcl")

    def test_extern_spec_must_be_unknown(self):
        src = (
            "contract C:\n"
            "  method m():\n"
            "    #@ requires ?;\n"
            "    #@ ensures ?;\n"
            "    call X.go();\n"
            "\n"
            "extern contract X:\n"
            "  method go():\n"
            "    #@ requires 1 >= 0;\n"
            "    opaque;\n"
        )
        with pytest.raises(WellFormednessError):
            load_source(src, "t.gcl")


ONE_METHOD = "contract C:\n  #@ global G;\n  method m(x: uint64):\n    #@ requires ?;\n    #@ ensures ?;\n"


@pytest.mark.parametrize("source, error, message", [
    ("contract C:\n\tmethod m():\n", LexError, "e.gcl:2:1: tab character in source"),
    (ONE_METHOD + "    y := x +;\n", ParseError, "e.gcl:6:13: expected expression, found ';'"),
    (ONE_METHOD + "    y := z;\n", InferenceError, "e.gcl:6:10: local 'z' used before assignment"),
    (ONE_METHOD + "    call D.f();\n", ResolutionError, "e.gcl:6:5: call to unknown contract 'D'"),
    ("contract C:\n  #@ global G;\n  #@ global G;\n  method m(x: uint64, x: uint64):\n"
     "    #@ requires ?;\n    #@ ensures ?;\n    y := x;\n", WellFormednessError,
     "e.gcl:1:1: duplicate global declaration in C; e.gcl:4:3: duplicate parameter name in method m"),
], ids=["lex", "parse", "inference", "resolution", "well-formedness"])
def test_each_front_end_error_is_a_source_error(source, error, message):
    # each keeps its own name, and its message starts with its loc
    with pytest.raises(error) as e:
        load_source(source, "e.gcl")
    assert isinstance(e.value, SourceError)
    assert str(e.value) == message
    assert message.startswith(f"{e.value.loc}: ")
