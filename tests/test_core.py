"""Core model: formulas, framing, normalization, well-formedness."""

import pytest
from hypothesis import given, strategies as st

from gvc.frontend import corpus_files, load_file, load_source, WellFormednessError
from gvc.lang import (
    Acc, Cmp, Contract, Formula, IntLit, Name, Old, PredUse, SourceLoc, UINT_MAX,
    atom_reads, is_self_framed, normalize_formula, well_formed_program,
)
from gvc.printer import pretty_print

from conftest import CORPUS


def _formula(text_atoms, imprecise=False):
    return Formula(imprecise, tuple(text_atoms))


COUNTER = Contract("Counter", globals=("Count",))


def test_nodes_of_different_types_never_compare_equal():
    # nodes are dataclasses, not tuples: with the same fields, a global read,
    # its old value and its permission stay three different nodes
    loc = SourceLoc("t", 1, 1)
    nodes = [Name("G", loc), Old("G", loc), Acc("G", loc)]
    assert all(a != b for i, a in enumerate(nodes) for b in nodes[i + 1:])
    assert len(set(nodes)) == 3 and Name("G", loc) == Name("G", SourceLoc("t", 1, 1))


class TestSelfFraming:
    def test_imprecise_with_acc_is_framed(self):
        f = _formula([Cmp(">=", Name("quantity"), IntLit(0)), Acc("Count")], imprecise=True)
        assert is_self_framed(f, COUNTER)

    def test_unframed_global_read(self):
        f = _formula([Cmp(">=", Name("Count"), IntLit(0))])
        assert not is_self_framed(f, COUNTER)

    def test_acc_frames_the_read(self):
        f = _formula([Acc("Count"), Cmp(">=", Name("Count"), IntLit(0))])
        assert is_self_framed(f, COUNTER)

    def test_extra_acc_frames_postconditions(self):
        # a postcondition may rely on permissions from the precondition
        f = _formula([Cmp(">=", Name("Count"), IntLit(0))])
        assert is_self_framed(f, COUNTER, extra_acc=("Count",))


class TestAtomReads:
    def test_acc_and_read(self):
        assert atom_reads(Acc("Count"), {"Count"}) == set()
        assert atom_reads(Cmp(">=", Name("Count"), IntLit(0)), {"Count"}) == {"Count"}

    def test_locals_only(self):
        assert atom_reads(Cmp(">=", Name("x"), IntLit(1)), {"Count"}) == set()

    def test_old_reads_count(self):
        assert atom_reads(Cmp("==", Name("B"), Old("A")), {"A", "B"}) == {"A", "B"}

    def test_predicate_instance_reads_its_body(self):
        atom = PredUse("atleast", (Name("Fee"),))
        assert atom_reads(atom, {"Count", "Fee"}, {"atleast": {"Count"}}) == {"Count", "Fee"}


# small atom pool for property tests
_ATOMS = [
    Cmp(">=", Name("x"), IntLit(0)),
    Cmp("<=", Name("x"), Name("y")),
    Cmp("==", Name("Count"), IntLit(3)),
    Acc("Count"),
    Acc("Extra"),
]


@st.composite
def formulas(draw):
    atoms = draw(st.lists(st.sampled_from(_ATOMS), max_size=6))
    return Formula(draw(st.booleans()), tuple(atoms))


@given(formulas())
def test_normalize_idempotent(f):
    once = normalize_formula(f)
    assert normalize_formula(once) == once


@given(formulas())
def test_normalize_dedupes_acc(f):
    slots = [a.slot for a in normalize_formula(f).atoms if isinstance(a, Acc)]
    assert len(slots) == len(set(slots))


class TestWellFormedness:
    def test_sell_is_well_formed(self, sell_program):
        assert well_formed_program(sell_program) == []

    def test_result_without_return(self):
        src = (
            "contract C:\n"
            "  method m(x: uint64):\n"
            "    #@ requires ?;\n"
            "    #@ ensures result >= 0;\n"
            "    y := x;\n"
        )
        with pytest.raises(WellFormednessError) as e:
            load_source(src, "t.gcl")
        assert len(e.value.diagnostics) == 1

    def test_imprecision_in_predicate_body(self):
        src = (
            "contract C:\n"
            "  #@ global G;\n"
            "  #@ predicate p(n) = ?;\n"
            "  method m() -> uint64:\n"
            "    #@ requires ?;\n"
            "    #@ ensures ?;\n"
            "    return 0;\n"
        )
        with pytest.raises(WellFormednessError) as e:
            load_source(src, "t.gcl")
        assert len(e.value.diagnostics) == 1

    @pytest.mark.parametrize("body", ["G >= old(G) + n", "result >= n"])
    def test_spec_marker_in_predicate_body(self, body):
        # evaluating such a body has no method frame to read old(...) or
        # result from, so it must be rejected before verification
        src = (
            "contract C:\n"
            "  #@ global G;\n"
            f"  #@ predicate grew(n) = {body};\n"
            "  method bump(n: uint64):\n"
            "    #@ requires acc(G);\n"
            "    #@ ensures acc(G) and grew(n);\n"
            "    G := G + n;\n"
        )
        with pytest.raises(WellFormednessError) as e:
            load_source(src, "t.gcl")
        assert [d.loc.line for d in e.value.diagnostics] == [3]

    def test_literal_out_of_range(self):
        src = (
            "contract C:\n"
            "  method m() -> uint64:\n"
            "    #@ requires ?;\n"
            "    #@ ensures ?;\n"
            f"    return {UINT_MAX + 1};\n"
        )
        with pytest.raises(WellFormednessError):
            load_source(src, "t.gcl")

    def test_corpus_formulas_all_framed(self):
        for path in corpus_files(CORPUS):
            program, _ = load_file(path)
            assert well_formed_program(program) == [], path.name


def test_pretty_print_fixed_point_on_corpus():
    for path in corpus_files(CORPUS):
        program, _ = load_file(path)
        text = pretty_print(program)
        reparsed, _ = load_source(text, path.name)
        assert pretty_print(reparsed) == text, path.name
