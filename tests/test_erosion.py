"""Spec erosion and the two gradual guarantees."""

from gvc.erosion import (
    check_dynamic_monotonic, check_static_monotonic, erode_program,
)
from gvc.frontend import corpus_adversaries, load_file
from gvc.lang import well_formed_program
from gvc.verifier import verify_program

from conftest import CORPUS


class TestGenerator:
    def test_all_erosions_well_formed(self, sell_program):
        for e in erode_program(sell_program):
            assert well_formed_program(e.program) == [], e.label

    def test_all_eroded_specs_imprecise(self, sell_program):
        # every erosion replaces exactly one formula with `? and <subset>`
        for e in erode_program(sell_program):
            specs = []
            for c in e.program.contracts:
                for m in c.methods:
                    specs.append(m.spec.requires.imprecise
                                 or m.spec.ensures.imprecise)
            assert any(specs), e.label

    def test_sell_erosion_labels(self, sell_program):
        labels = sorted(e.label for e in erode_program(sell_program))
        # requires variants that drop acc(Count) unframe the postcondition
        # and are rejected, leaving exactly three legal weakenings
        assert labels == [
            "Counter.sell/ensures -> ?",
            "Counter.sell/ensures -> ? and Count >= 0",
            "Counter.sell/requires -> ? and acc(Count)",
        ]

    def test_erosions_distinct(self):
        program, _ = load_file(CORPUS / "bounded.gcl")
        labels = [e.label for e in erode_program(program)]
        assert len(labels) == len(set(labels))
        assert len(labels) >= 10


class TestStaticGuarantee:
    def test_sell(self, sell_program):
        assert check_static_monotonic(verify_program(sell_program),
                                      erode_program(sell_program)) == []

    def test_precise_corpus_members(self):
        for name in ("sell_precise.gcl", "bounded.gcl", "guarded_loop.gcl"):
            program, _ = load_file(CORPUS / name)
            assert check_static_monotonic(verify_program(program),
                                          erode_program(program)) == [], name


class TestDynamicGuarantee:
    def test_sell(self, sell_program):
        for e in erode_program(sell_program):
            assert check_dynamic_monotonic(sell_program, e, bound=3) == [], e.label

    def test_reentrant_bank(self):
        path = CORPUS / "bank.gcl"
        program, _ = load_file(path)
        adv = corpus_adversaries(path, program)
        for e in erode_program(program):
            bad = check_dynamic_monotonic(program, e, bound=2, adversaries=adv)
            assert bad == [], e.label
