"""Static verification: residuals, statuses, and report shape."""

import gc
import json
import os
import subprocess
import sys

import pytest

from gvc.frontend import load_file, load_source
from gvc.oracle import enumerate_equivalence
from gvc.printer import fmt_atom
from gvc.verifier import Insertion, Status, SymState, program_digest, verify_program
from gvc.weaver import weave

from conftest import CORPUS, FIXTURES, ROOT, nif_source


class TestSellGolden:
    def test_status(self, sell_report):
        [m] = sell_report.methods
        assert m.status is Status.VERIFIED_WITH_RESIDUALS

    def test_exactly_one_residual(self, sell_report):
        [r] = list(sell_report.all_residuals())
        assert r.payload_text == "scratch >= quantity"

    def test_residual_precedes_global_write(self, sell_report):
        # insertion point: top-level block, immediately before statement 1
        [r] = list(sell_report.all_residuals())
        assert r.insertion.kind == "before"
        assert r.insertion.block_path == ()
        assert r.insertion.index == 1

    def test_postcondition_discharged(self, sell_report):
        kinds = [r.obligation.kind for r in sell_report.all_residuals()]
        assert "postcondition" not in kinds


def test_every_old_of_a_method_names_one_value():
    # G is not held at entry, so old(G) has no value there; both atoms read
    # one fresh value, and the first one's residual check settles the second
    src = ("contract C:\n  #@ global G;\n  method m():\n    #@ requires ?;\n"
           "    #@ ensures ? and acc(G) and old(G) <= 5 and old(G) <= 6;\n    G := 1;\n")
    report = verify_program(load_source(src, "t.gcl")[0])
    assert [r.payload_text for r in report.all_residuals()] == ["acc(G)", "old(G) <= 5"]


def test_precise_sell_no_residuals():
    program, _ = load_file(CORPUS / "sell_precise.gcl")
    report = verify_program(program)
    [m] = report.methods
    assert m.status is Status.VERIFIED
    assert not m.residuals


def test_strong_postcondition_static_error():
    program, _ = load_file(FIXTURES / "sell_strong.gcl")
    report = verify_program(program)
    [m] = report.methods
    assert m.status is Status.STATIC_ERROR
    [(ob, reason)] = m.diagnostics
    assert ob.kind == "postcondition"


def test_unprovable_precise_precondition_at_call_site():
    src = (
        "contract C:\n"
        "  method need(x: uint64):\n"
        "    #@ requires x >= 1;\n"
        "    #@ ensures ?;\n"
        "    y := x;\n"
        "  method go():\n"
        "    #@ requires ?;\n"
        "    #@ ensures ?;\n"
        "    call C.need(0);\n"
    )
    program, _ = load_source(src, "t.gcl")
    report = verify_program(program)
    # caller is imprecise, so the impossible precondition becomes a residual
    # check that always fails at run time rather than a static error
    m = report.method("C", "go")
    assert m.status is Status.VERIFIED_WITH_RESIDUALS


@pytest.mark.parametrize("asserted, status", [("1", Status.STATIC_ERROR),
                                              ("6", Status.VERIFIED)])
def test_callee_old_is_the_value_at_the_call(asserted, status):
    # G is 5 when inc is called, so inc's `old(G) + 1` is 6, not the 1 that
    # twice's entry value 0 would give
    src = (
        "contract C:\n"
        "  #@ global G;\n"
        "  method inc():\n"
        "    #@ requires acc(G);\n"
        "    #@ ensures acc(G) and G == old(G) + 1;\n"
        "    G := G + 1;\n"
        "  method twice():\n"
        "    #@ requires acc(G) and G == 0;\n"
        "    #@ ensures acc(G);\n"
        "    G := G + 5;\n"
        "    call C.inc();\n"
        f"    #@ assert G == {asserted};\n"
    )
    m = verify_program(load_source(src, "t.gcl")[0]).method("C", "twice")
    assert m.status is status and not m.residuals
    if status is Status.STATIC_ERROR:
        assert [(ob.kind, why) for ob, why in m.diagnostics] == [("assert", "violated")]


# m holds G == 0 and H and calls a callee whose `ensures ?` leaves the
# state imprecise, so a havocked G leaves the assert to run time
KEEPS_G = (
    "contract C:\n"
    "  #@ global G;\n"
    "  #@ global H;\n"
    "  method m():\n"
    "    #@ requires acc(G) and acc(H) and G == 0;\n"
    "    #@ ensures acc(G);\n"
    "    call {callee}();\n"
    "    #@ assert G == 0;\n"
    "  method n():\n"
    "    #@ requires {requires};\n"
    "    #@ ensures ?;\n"
    "    y := 1;\n"
    "\n"
    "contract D:\n"
    "  #@ global G;\n"
    "  method f():\n"
    "    #@ requires ?;\n"
    "    #@ ensures ?;\n"
    "    G := 5;\n"
    "\n"
    "extern contract E:\n"
    "  method f():\n"
    "    opaque;\n"
)


@pytest.mark.parametrize("callee, requires, havocked", [
    ("C.n", "?", True),
    ("C.n", "true", False),
    ("C.n", "acc(H)", False),
    ("D.f", "?", False),
    ("E.f", "?", False),
], ids=["same-imprecise", "same-precise", "same-precise-other-slot", "foreign", "extern"])
def test_a_call_changes_held_values_only_through_an_imprecise_same_contract_callee(
        callee, requires, havocked):
    # the run-time protocol lets a frame take a slot only when it is free
    # or its direct caller's, so only C.n entered imprecisely can take G
    program, _ = load_source(KEEPS_G.format(callee=callee, requires=requires), "t.gcl")
    report = verify_program(program)
    m = report.method("C", "m")
    assert [r.obligation.kind for r in m.residuals] == (["assert"] if havocked else [])
    assert enumerate_equivalence(program, weave(program, report), bound=2)["disagreements"] == []


def test_facts_are_dropped_at_every_call():
    # set0 is precise and takes H itself: keeping big(1) across the call
    # would prove the final assert, which fails whenever m runs
    program, _ = load_file(FIXTURES / "facts_across_call.gcl")
    m = verify_program(program).method("Pf", "m")
    assert m.status is Status.STATIC_ERROR
    [(ob, reason)] = m.diagnostics
    assert (ob.kind, fmt_atom(ob.atom), ob.loc.line, reason) == ("assert", "big(1)", 8, "unprovable")


class TestResidualKinds:
    def _kinds(self, name):
        program, _ = load_file(CORPUS / name)
        return sorted(r.obligation.kind for r in verify_program(program).all_residuals())

    def test_underflow_residual(self):
        assert self._kinds("sell.gcl") == ["underflow"]

    def test_div_zero_residuals(self):
        assert self._kinds("divmod.gcl") == ["div-zero"]

    def test_assert_residual(self):
        assert self._kinds("assertions.gcl") == ["assert"]

    def test_havoc_forces_residual(self):
        # only a same-contract callee entered imprecisely may take a slot
        # its caller holds: after it, the caller's assert is left to run
        # time; an extern callee, and what re-enters through it, may not
        program, _ = load_file(CORPUS / "borrowed_call.gcl")
        [r] = verify_program(program).method("Borrow", "m").residuals
        assert (r.obligation.kind, r.payload_text) == ("assert", "G == 0")
        assert self._kinds("extern_havoc.gcl") == []
        assert self._kinds("bank.gcl") == []

    def test_loop_residual_after_havoc(self):
        assert self._kinds("loop.gcl") == ["underflow"]

    def test_exit_residual(self):
        program, _ = load_file(CORPUS / "branching.gcl")
        [r] = list(verify_program(program).all_residuals())
        assert r.obligation.kind == "postcondition"
        assert r.insertion.kind == "exit"

    def test_precise_loop_discharges(self):
        program, _ = load_file(CORPUS / "guarded_loop.gcl")
        assert not list(verify_program(program).all_residuals())

    @pytest.mark.parametrize("imprecision", ["", "? and "], ids=["precise", "imprecise"])
    def test_loop_condition_reads_globals_the_invariant_grants(self, imprecision):
        # inside the loop `G > 5` proves `G >= 1`; after it, `not G > 5`
        # proves the postcondition
        src = (
            "contract C:\n"
            "  #@ global G;\n"
            "  method m():\n"
            f"    #@ requires {imprecision}acc(G);\n"
            f"    #@ ensures {imprecision}acc(G) and G <= 5;\n"
            "    while G > 5:\n"
            "      #@ invariant acc(G);\n"
            "      G := G - 1;\n"
        )
        program, _ = load_source(src, "t.gcl")
        report = verify_program(program)
        [m] = report.methods
        assert m.status is Status.VERIFIED and not m.residuals
        assert enumerate_equivalence(program, weave(program, report))["disagreements"] == []


NEED = ("  method need(n: uint64):\n    #@ requires n >= 1;\n    #@ ensures true;\n"
        "    y := n;\n")

# One small method C.m per obligation: (obligation kind, requires, ensures,
# body, the reason a precise spec fails with, the insertion of the one
# residual an imprecise spec gets).  A disproved obligation fails as
# `violated`, any other unproved one as `unprovable`; the imprecise variant
# puts `? and` in front of both specs.
DISCHARGE = {
    "access": ("access", "true", "true", "    G := 1;\n", "unprovable", ("before", (), 0)),
    "underflow": ("underflow", "x == 0", "true", "    y := x - 1;\n", "violated",
                  ("before", (), 0)),
    "div-zero": ("div-zero", "x == 0", "true", "    y := 5 / x;\n", "violated",
                 ("before", (), 0)),
    "precondition": ("precondition", "x == 0", "true", "    call C.need(x);\n", "violated",
                     ("before", (), 0)),
    "postcondition": ("postcondition", "acc(G)", "acc(G) and G >= 1", "    G := 0;\n",
                      "violated", ("exit", (), 0)),
    "loop-invariant": ("loop-invariant", "acc(G) and G == 0", "acc(G)",
                       "    while G > 0:\n      #@ invariant acc(G) and G >= 1;\n"
                       "      G := G + 1;\n", "violated", ("before", (), 0)),
    "assert": ("assert", "acc(G) and G == 0", "acc(G)", "    y := 1;\n    #@ assert G >= 1;\n",
               "violated", ("before", (), 1)),
    "nonlinear-assert": ("assert", "x == 2", "true", "    #@ assert x * x >= 1;\n",
                         "unprovable", ("before", (), 0)),
    "predicate-instance": ("postcondition", "true", "pos(x)", "    y := x;\n", "unprovable",
                           ("exit", (), 0)),
}


def _discharge_method(case, imprecise):
    _, requires, ensures, body, _, _ = DISCHARGE[case]
    if imprecise:
        requires, ensures = f"? and {requires}", f"? and {ensures}"
    src = ("contract C:\n  #@ global G;\n  #@ predicate pos(n) = n >= 1;\n"
           f"  method m(x: uint64):\n    #@ requires {requires};\n"
           f"    #@ ensures {ensures};\n{body}{NEED}")
    report = verify_program(load_source(src, "t.gcl")[0])
    assert report.method("C", "need").status is Status.VERIFIED
    return report.method("C", "m")


@pytest.mark.parametrize("case", list(DISCHARGE))
def test_precise_unproved_obligation_is_a_static_error(case):
    kind, _, _, _, reason, _ = DISCHARGE[case]
    m = _discharge_method(case, imprecise=False)
    assert m.status is Status.STATIC_ERROR and not m.residuals
    assert [(ob.kind, why) for ob, why in m.diagnostics] == [(kind, reason)]


@pytest.mark.parametrize("case", list(DISCHARGE))
def test_imprecise_unproved_obligation_is_one_residual(case):
    kind, _, _, _, _, insertion = DISCHARGE[case]
    m = _discharge_method(case, imprecise=True)
    assert m.status is Status.VERIFIED_WITH_RESIDUALS and not m.diagnostics
    assert [(r.obligation.kind, r.insertion) for r in m.residuals] == [
        (kind, Insertion(*insertion))]


class TestReport:
    def test_digest_matches_program(self, sell_program, sell_report):
        assert sell_report.digest == program_digest(sell_program)

    def test_json_round_trip(self, sell_report):
        doc = json.loads(sell_report.to_json())
        assert doc["digest"] == sell_report.digest
        [m] = doc["methods"]
        assert m["status"] == "verified-with-residuals"
        [r] = m["residuals"]
        assert r["payload_text"] == "scratch >= quantity"
        assert r["insertion"] == {"kind": "before", "path": [], "index": 1}

    def test_prover_stats_counted(self, sell_report):
        stats = sell_report.prover.as_dict()
        assert stats["queries"] >= 1
        assert stats["queries"] == (stats["proved"] + stats["disproved"]
                                    + stats["unknown"])

    def test_check_ids_globally_unique(self):
        program, _ = load_file(CORPUS / "divmod.gcl")
        report = verify_program(program)
        ids = [r.id for r in report.all_residuals()]
        assert len(ids) == len(set(ids))
        assert all(i.startswith("c") for i in ids)


def test_verification_deterministic(sell_program):
    a = verify_program(sell_program).to_json()
    b = verify_program(sell_program).to_json()
    assert a == b


PREDICATE_FREE_D = """\
contract D:
  #@ global G;
  method m():
    #@ requires acc(G);
    #@ ensures acc(G);
    G := 0;
"""

ATLEAST_D = """\
contract D:
  #@ global G;
  #@ predicate atleast(n) = G >= n;
  method m():
    #@ requires acc(G) and atleast(1);
    #@ ensures acc(G) and atleast(1);
    G := 0;
"""


def test_verdict_independent_of_process_history():
    # each round frees a contract just before allocating the next one, so a
    # cache keyed by object identity hands the predicate-free D's (empty)
    # predicate reads to the atleast D, whose write to G then fails to
    # invalidate the atleast(1) fact and the postcondition is wrongly proved
    wrong = 0
    for _ in range(500):
        program, _ = load_source(PREDICATE_FREE_D)
        verify_program(program)
        del program
        program, _ = load_source(ATLEAST_D)
        wrong += not verify_program(program).has_static_error
        del program
    assert wrong == 0


def test_verification_leaves_no_cyclic_garbage():
    # symbolic states, path conditions included, are freed as soon as the
    # run drops them, not kept alive in reference cycles until the cyclic
    # collector runs
    program, _ = load_source(nif_source(4))
    gc.collect()
    gc.disable()
    try:
        verify_program(program)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_last_branch_takes_the_state(monkeypatch):
    # each `if` hands its state to the last satisfiable alternative of its
    # else side: 2^4 paths through nif(4) make 15 clones, one per `if` arm
    # taken on the then side, and verify as before
    clones = []
    real = SymState.clone
    monkeypatch.setattr(SymState, "clone", lambda s: clones.append(s) or real(s))
    program, _ = load_source(nif_source(4))
    report = verify_program(program).as_dict()
    assert len(clones) == 15
    assert report["prover"] == {"queries": 15, "proved": 7, "disproved": 0, "unknown": 8}
    assert [(m["status"], len(m["residuals"])) for m in report["methods"]] == [
        ("verified-with-residuals", 4)]


REPORT_OF = """
import sys
from gvc.frontend import load_source
from gvc.verifier import verify_program
print(verify_program(load_source(sys.stdin.read())[0]).to_json())
"""


def test_prover_memo_independent_of_process_history():
    # the prover's component memo lives for one verify_program call: an n-if
    # program and a corpus program give the same report, prover counts
    # included, in either order in one process and in a fresh process each
    sources = {"nif6": nif_source(6), "branching": (CORPUS / "branching.gcl").read_text()}

    def report(name):
        return verify_program(load_source(sources[name])[0]).to_json()

    first = {name: report(name) for name in ("nif6", "branching")}
    second = {name: report(name) for name in ("branching", "nif6")}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = {name: subprocess.run([sys.executable, "-c", REPORT_OF], input=text, env=env,
                                  capture_output=True, text=True, timeout=120,
                                  check=True).stdout.rstrip("\n")
             for name, text in sources.items()}
    assert first == second == fresh
    assert json.loads(first["nif6"])["prover"]["queries"] == 2 ** 6 - 1
