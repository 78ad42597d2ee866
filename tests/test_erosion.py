"""Spec erosion and the two gradual guarantees."""

import sys

from gvc.erosion import (
    Erosion, check_dynamic_monotonic, check_static_monotonic, erode_program,
)
from gvc.frontend import corpus_adversaries, corpus_files, load_file, load_source
from gvc.lang import well_formed_program
from gvc.oracle import Oracle
from gvc.verifier import verify_program
from gvc.vm import load_program, merge_adversaries, transaction_grid, with_own_contracts
from gvc.weaver import weave

from conftest import CORPUS, FIXTURES, ROOT

sys.path.insert(0, str(ROOT / "scripts"))
import cost_curve  # noqa: E402


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

    def test_memo_shared_with_the_program_changes_no_label(self):
        # gvc corpus verifies a program and its erosions with one memo; two
        # strengthenings give the check labels to find
        stronger = {"sell_precise.gcl": [("Count >= 0", "Count >= 1")],
                    "bounded.gcl": [("Reading <= hi", "Reading <= lo")]}
        found = []
        for path in corpus_files(CORPUS) + corpus_files(FIXTURES):
            program, _ = load_file(path)
            erosions = list(erode_program(program)) + strengthened(path, stronger.get(path.name, []))
            memo = {}
            report = verify_program(program, memo)
            assert report.as_dict() == verify_program(program).as_dict(), path.name
            fresh = [] if report.has_static_error else [
                e.label for e in erosions if verify_program(e.program).has_static_error]
            assert check_static_monotonic(report, erosions, memo) == fresh, path.name
            assert check_static_monotonic(report, erosions) == fresh, path.name
            found += fresh
        assert sorted(found) == sorted(e.label for name, edits in stronger.items()
                                       for e in strengthened(CORPUS / name, edits))


class TestDynamicGuarantee:
    def test_sell(self, sell_program):
        erosions = list(erode_program(sell_program))
        assert check_dynamic_monotonic(sell_program, erosions, bound=3) == []

    def test_reentrant_bank(self):
        path = CORPUS / "bank.gcl"
        program, _ = load_file(path)
        adv = corpus_adversaries(path, program)
        erosions = list(erode_program(program))
        assert check_dynamic_monotonic(program, erosions, bound=2, adversaries=adv) == []


def corpus_with_erosions():
    for path in corpus_files(CORPUS):
        program, _ = load_file(path)
        yield path, program, corpus_adversaries(path, program), list(erode_program(program))


def strengthened(path, edits):
    """"Erosions" of the corpus program at `path` that strengthen its specs:
    one per (old, new) source edit, so the dynamic check has points to find."""
    text = path.read_text(encoding="utf-8")
    out = []
    for old, new in edits:
        assert old in text
        out.append(Erosion(f"strengthen {old!r} -> {new!r}",
                           load_source(text.replace(old, new), str(path))[0]))
    return out


def per_erosion(program, erosions, bound, adversaries):
    """The dynamic guarantee's definition, erosion by erosion: two fresh
    oracles per erosion, each built from its own merged program."""
    bad = []
    for e in erosions:
        base, unverified = merge_adversaries(program, adversaries)
        eroded, _ = merge_adversaries(e.program, adversaries)
        before, after = Oracle(base, unverified), Oracle(eroded, unverified)
        for c, m, init, tx in transaction_grid(program, bound):
            if before.judge(init, tx).held and not after.judge(init, tx).held:
                bad.append({"erosion": e.label, "method": f"{c.name}.{m.name}",
                            "initial_state": init, "args": list(tx.args)})
    return bad


class TestErosionFamily:
    """Checking a program's erosions as one family gives each erosion the
    check it would get alone."""

    def test_batch_matches_per_erosion_definition(self):
        for path, program, adv, erosions in corpus_with_erosions():
            assert (check_dynamic_monotonic(program, erosions, bound=2, adversaries=adv)
                    == per_erosion(program, erosions, 2, adv)), path.name

    def test_batch_still_finds_violations(self):
        cases = [
            ("sell.gcl", [("quantity >= 0", "quantity <= 1"), ("Count >= 0", "Count >= 2")]),
            ("bank.gcl", [("amount >= 1", "amount >= 2"),
                          ("ensures ? and acc(Balance)", "ensures ? and acc(Balance) and Balance == 0")]),
        ]
        for name, edits in cases:
            path = CORPUS / name
            program, _ = load_file(path)
            adv = corpus_adversaries(path, program)
            family = list(erode_program(program)) + strengthened(path, edits)
            got = check_dynamic_monotonic(program, family, bound=2, adversaries=adv)
            assert got == per_erosion(program, family, 2, adv), name
            # every strengthening has offending points, and only they do
            assert {b["erosion"] for b in got} == {e.label for e in family[-len(edits):]}, name

    def test_swapped_program_equals_merged(self):
        for path, program, adv, erosions in corpus_with_erosions():
            merged, _ = merge_adversaries(program, adv)
            # enumerate_equivalence's oracle program: the source contracts
            # swapped into the loaded woven image's program
            image = load_program(weave(program, verify_program(program)), adv)
            assert with_own_contracts(image.program, program) == merged, path
            for e in erosions:
                assert with_own_contracts(merged, e.program) == \
                    merge_adversaries(e.program, adv)[0], e.label

    def test_shared_memo_reports_match_fresh_runs(self):
        reused = 0
        for path, program, adv, erosions in corpus_with_erosions():
            memo = ReuseCountingMemo()
            for memo.erosion, e in enumerate(erosions):
                shared, fresh = verify_program(e.program, memo), verify_program(e.program)
                assert shared.has_static_error == fresh.has_static_error, e.label
                assert list(shared.all_residuals()) == list(fresh.all_residuals()), e.label
                assert shared.to_json() == fresh.to_json(), e.label
            reused += memo.reused
        # erosions of one program take verdicts from one another
        assert reused > 0


def test_cost_curve_of_the_corpus(capsys):
    # the bound-2 grid of the corpus and its erosions: check gas summed
    # where each precise program commits, erosion against precise program
    assert cost_curve.main([str(CORPUS)]) == 0
    tail = capsys.readouterr().out.splitlines()[-2:]
    assert tail == ["erosions: 28 cheaper, 14 dearer, 112 equal",
                    "grid: 173 programs and erosions, 4305 cases, 2749 commits, "
                    "check gas 11520, exec gas 9844"]


class ReuseCountingMemo(dict):
    """A component-verdict memo that counts lookups answered by a verdict an
    earlier erosion (`erosion`, set by the caller) stored."""

    def __init__(self):
        super().__init__()
        self.erosion, self.stored_by, self.reused = None, {}, 0

    def get(self, key, default=None):
        if key in self and self.stored_by[key] != self.erosion:
            self.reused += 1
        return super().get(key, default)

    def __setitem__(self, key, verdict):
        self.stored_by[key] = self.erosion
        super().__setitem__(key, verdict)
