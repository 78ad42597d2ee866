"""Reference oracle: trace judgments and VM equivalence enumeration."""

import ast
from pathlib import Path

import pytest

from gvc.frontend import corpus_adversaries, load_file, load_source
from gvc.lang import UINT_MAX
from gvc.oracle import (
    ALL_HELD, FIRST_VIOLATION, Oracle, Site, _oracle_desc,
    enumerate_equivalence, vm_site,
)
from gvc.verifier import NONLINEAR, MethodVerifier, Status, verify_program
from gvc.vm import (
    ARITHMETIC_PANIC, CHECK_FAILURE, Ledger, Transaction, Vm, load_program, merge_adversaries,
    transaction_grid,
)
from gvc.weaver import weave

from conftest import CORPUS, FIXTURES, FOREIGN_PRECISE, LEFTOVER_SLOTS, OWNERSHIP_PREMISE


def tx(contract, method, *args):
    return Transaction(contract, method, tuple(args))


class TestTraceJudgments:
    def test_sell_in_stock_holds(self, sell_program):
        j = Oracle(sell_program).judge({"Counter": {"Count": 10}}, tx("Counter", "sell", 3))
        assert j.verdict == ALL_HELD
        assert j.storage == {"Counter": {"Count": 7}}

    def test_oversell_is_underflow_at_subtraction(self, sell_program):
        j = Oracle(sell_program).judge({"Counter": {"Count": 10}}, tx("Counter", "sell", 12))
        assert j.verdict == FIRST_VIOLATION
        assert j.site == Site("underflow", 7)

    def test_input_storage_not_mutated(self, sell_program):
        storage = {"Counter": {"Count": 10}}
        Oracle(sell_program).judge(storage, tx("Counter", "sell", 3))
        assert storage == {"Counter": {"Count": 10}}

    def test_reentrancy_is_access_violation(self):
        path = CORPUS / "bank.gcl"
        program, _ = load_file(path)
        merged, unverified = merge_adversaries(
            program, corpus_adversaries(path, program))
        j = Oracle(merged, unverified).judge({"Bank": {"Balance": 10}}, tx("Bank", "withdraw", 4))
        assert j.verdict == FIRST_VIOLATION
        assert j.site.kind == "access"

    @pytest.mark.parametrize("name", OWNERSHIP_PREMISE)
    def test_a_frame_borrows_only_from_its_direct_caller(self, name):
        # the verifier keeps w's G across any call but one to a
        # same-contract callee entered imprecisely; that is sound only if q,
        # two calls below w, cannot take G
        source, adversary = OWNERSHIP_PREMISE[name]
        program, _ = load_source(source, f"{name}.gcl")
        merged, unverified = merge_adversaries(program, adversary and {"A": adversary})
        j = Oracle(merged, unverified).judge({"W": {"G": 1}}, tx("W", "w", 2))
        if name == "borrow-from-caller":
            assert j.verdict == ALL_HELD and j.storage["W"] == {"G": 2}
        else:
            assert j.verdict == FIRST_VIOLATION
            assert j.site == Site("access", 10 if name == "through-extern" else 14)

    @pytest.mark.parametrize("name", LEFTOVER_SLOTS)
    def test_where_the_slots_a_frame_holds_at_exit_go(self, name):
        # judged on the source (see conftest.LEFTOVER_SLOTS): a refused
        # take is an access violation at m's write
        source, adversary, method, g = LEFTOVER_SLOTS[name]
        program, _ = load_source(source, f"{name}.gcl")
        merged, unverified = merge_adversaries(program, adversary and {"Feed": adversary})
        j = Oracle(merged, unverified).judge({"C": {"G": 0}}, tx("C", method))
        if g is None:
            assert (j.verdict, j.site) == (FIRST_VIOLATION, Site("access", 8))
        else:
            assert (j.verdict, j.site, j.storage["C"]) == (ALL_HELD, None, {"G": g})

    def test_precise_precondition_violation_at_spec_line(self):
        program, _ = load_file(CORPUS / "sell_precise.gcl")
        j = Oracle(program).judge({"Counter": {"Count": 2}}, tx("Counter", "sell", 5))
        assert j.verdict == FIRST_VIOLATION
        assert j.site.kind == "precondition"


class TestEquivalence:
    def _grid(self, name, bound=8):
        path = CORPUS / name
        program, _ = load_file(path)
        woven = weave(program, verify_program(program))
        return enumerate_equivalence(program, woven, bound=bound,
                                     adversaries=corpus_adversaries(path, program))

    def test_sell_grid_agrees(self):
        report = self._grid("sell.gcl")
        assert report["cases"] == 81
        assert report["disagreements"] == []

    def test_precise_sell_grid_agrees(self):
        report = self._grid("sell_precise.gcl")
        assert report["cases"] == 81
        assert report["disagreements"] == []

    def test_reentrant_bank_grid_agrees(self):
        report = self._grid("bank.gcl", bound=4)
        assert report["disagreements"] == []

    def test_disagreement_record(self):
        # sell.gcl's woven program run against sell_precise.gcl: its woven
        # check reverts where the oracle blames the precondition
        precise, _ = load_file(CORPUS / "sell_precise.gcl")
        sell, _ = load_file(CORPUS / "sell.gcl")
        report = enumerate_equivalence(precise, weave(sell, verify_program(sell)), bound=2)
        assert report["cases"] == 9 and len(report["disagreements"]) == 3
        assert report["disagreements"][0] == {
            "initial_state": {"Counter": {"Count": 0}},
            "method": "Counter.sell",
            "args": [1],
            "vm_outcome": {"outcome": "reverted", "exec_gas": 1, "check_gas": 3,
                           "revert_reason": "CheckFailure", "check_id": "c0",
                           "site": {"kind": "underflow", "line": 7}},
            "oracle_verdict": {"verdict": "FirstViolation", "kind": "precondition",
                               "line": 4, "payload": "quantity <= Count"},
        }

    def test_wrong_postcondition_proof_disagrees(self, monkeypatch):
        # a verifier that takes every linear postcondition as proved in an
        # imprecise state: branching.gcl's `Level >= 1` gets no exit row, so
        # set(0) commits with Level 0 where the oracle blames the ensures,
        # once per initial Level
        discharge = MethodVerifier.discharge

        def trusting(self, state, obligation, constraints, insertion):
            if (state.imprecise and obligation.kind == "postcondition"
                    and constraints is not NONLINEAR):
                return
            discharge(self, state, obligation, constraints, insertion)

        monkeypatch.setattr(MethodVerifier, "discharge", trusting)
        report = self._grid("branching.gcl")
        assert len(report["disagreements"]) == 9
        assert all(d["vm_outcome"]["outcome"] == "committed"
                   and d["oracle_verdict"]["kind"] == "postcondition"
                   for d in report["disagreements"])

    def test_unknown_only_spec_always_commits(self):
        src = (
            "contract C:\n"
            "  #@ global G;\n"
            "  method keep(x: uint64):\n"
            "    #@ requires ? and acc(G);\n"
            "    #@ ensures ?;\n"
            "    G := x;\n"
        )
        program, _ = load_source(src, "keep.gcl")
        woven = weave(program, verify_program(program))
        report = enumerate_equivalence(program, woven, bound=3)
        assert report["cases"] == 16
        assert report["disagreements"] == []


class TestForeignCalls:
    """A call from another contract crosses the callee's boundary: the
    caller never reasons about a foreign contract's specs."""

    def test_same_name_globals_grid_agrees(self):
        # Shop's own Count >= 1 says nothing about Vault's Count
        program, _ = load_file(FIXTURES / "same_name.gcl")
        woven = weave(program, verify_program(program))
        report = enumerate_equivalence(program, woven, bound=2)
        assert report["cases"] == 18
        assert report["disagreements"] == []

    def test_foreign_predicate_woven_text_reloads(self):
        program, _ = load_file(FIXTURES / "cross_pred.gcl")
        ip = weave(program, verify_program(program))
        load_program(ip)
        reloaded, boundary = load_source(ip.to_text(), "cross_pred.woven.gcl")
        load_program((reloaded, boundary))
        assert not verify_program(reloaded).has_static_error

    def test_precise_caller_checks_foreign_precondition_at_run_time(self):
        program, _ = load_source(FOREIGN_PRECISE, "foreign.gcl")
        report = verify_program(program)
        assert [m.status for m in report.methods] == [Status.VERIFIED] * 2
        woven = weave(program, report)
        image = load_program(woven)
        out = Vm(image, Ledger(image.program, {"Vault": {"Count": 0}})).exec_transaction(
            tx("Shop", "buy"))
        assert out.reason == CHECK_FAILURE
        assert out.detail["kind"] == "precondition" and out.detail["line"] == 12
        judgment = Oracle(program).judge({"Vault": {"Count": 0}}, tx("Shop", "buy"))
        assert vm_site(out, image.checks) == judgment.site == Site("precondition", 12)
        assert enumerate_equivalence(program, woven, bound=2)["disagreements"] == []



# Run-time edges that no corpus program reaches.  Each case is a source, the
# adversary source for its extern contract A (or None), the grid bound and
# the oracle site kind some grid point must end in ("held": every point
# commits).  W_CALLS_A: W.w holds G across a call to A, whose adversary
# (CALLS_Q) re-enters W.q.
W_CALLS_A = (
    "contract W:\n"
    "  #@ global G;\n"
    "  method w(x: uint64):\n"
    "    #@ requires ? and acc(G);\n"
    "    #@ ensures ? and acc(G);\n"
    "    call A.notify(x);\n"
)
EXTERN_A = "\nextern contract A:\n  method notify(x: uint64):\n    opaque;\n"
CALLS_Q = "contract A:\n  method notify(x: uint64):\n    call W.q(x);\n"
CALLS_A = (
    "contract W:\n"
    "  method w(x: uint64):\n"
    "    #@ requires ?;\n"
    "    #@ ensures ?;\n"
    "    call A.notify(x);\n" + EXTERN_A
)


def q_method(spec, body):
    """W_CALLS_A plus a method q with `requires ?`, then extern A."""
    return (W_CALLS_A + "  method q(x: uint64):\n    #@ requires ?;\n"
            f"    #@ ensures {spec};\n" + body + EXTERN_A)


EDGES = {
    "self-recursion": (
        "contract C:\n  method spin(x: uint64):\n    #@ requires ?;\n"
        "    #@ ensures ?;\n    call C.spin(x);\n", None, 1, "call-depth"),
    "recursive-predicate": (
        "contract C:\n  #@ predicate p(x) = x >= 0 and p(x);\n"
        "  method m(x: uint64):\n    #@ requires ? and p(x);\n"
        "    #@ ensures ?;\n    y := x;\n", None, 1, "predicate-depth"),
    "overflow": (
        "contract C:\n  #@ global G;\n  method m(x: uint64):\n"
        "    #@ requires ? and acc(G);\n    #@ ensures ?;\n"
        "    G := x * 9223372036854775808;\n", None, 2, "overflow"),
    "loop-invariant": (
        "contract C:\n  #@ global G;\n  method m(n: uint64):\n"
        "    #@ requires ? and acc(G);\n    #@ ensures ?;\n    i := 0;\n"
        "    while i < n:\n      #@ invariant ? and acc(G) and i <= 1;\n"
        "      i := i + 1;\n", None, 3, "loop-invariant"),
    # G is a global, so the shift reads it through a closure
    "global-plus-literal-overflow": (
        "contract C:\n  #@ global G;\n  method m(x: uint64):\n"
        "    #@ requires ? and acc(G);\n    #@ ensures ?;\n"
        "    G := G + 18446744073709551615;\n", None, 1, "overflow"),
    # y is a local, so the shift reads it from the environment; the
    # verifier emits no overflow obligation, so no woven check pre-empts
    # the revert
    "local-plus-literal-overflow": (
        "contract C:\n  method m(x: uint64):\n    #@ requires ?;\n    #@ ensures ?;\n"
        "    y := 18446744073709551615;\n    z := y + 1;\n", None, 1, "overflow"),
    "return-in-loop": (
        "contract C:\n  method m(n: uint64) -> uint64:\n    #@ requires ?;\n"
        "    #@ ensures ?;\n    i := 0;\n    while i < n:\n      #@ invariant ?;\n"
        "      return i;\n    return n;\n", None, 2, "held"),
    # p's body negates a predicate instance
    "not-predicate": (
        "contract C:\n  #@ predicate q(n) = n >= 1;\n  #@ predicate p(n) = not q(n);\n"
        "  method m(x: uint64):\n    #@ requires ? and p(x);\n"
        "    #@ ensures ?;\n    y := x;\n", None, 1, "precondition"),
    "spec-div-zero": (
        "contract C:\n  #@ global G;\n  method m(x: uint64):\n"
        "    #@ requires ? and acc(G) and G / x >= 0;\n    #@ ensures ?;\n"
        "    G := x;\n", None, 2, "div-zero"),
    # the adversary re-enters q while w holds G
    "write-while-held": (q_method("?", "    G := x;\n"), CALLS_Q, 1, "access"),
    "internal-call-acc": (
        q_method("?", "    call W.r(x);\n  method r(x: uint64):\n"
                 "    #@ requires acc(G);\n    #@ ensures acc(G);\n    G := x;\n"),
        CALLS_Q, 1, "access"),
    "ensures-acc": (q_method("? and acc(G)", "    y := x;\n"), CALLS_Q, 1, "access"),
    "invariant-acc": (
        q_method("?", "    i := 0;\n    while i < x:\n"
                 "      #@ invariant ? and acc(G);\n      i := i + 1;\n"),
        CALLS_Q, 1, "access"),
    "assert-acc": (q_method("?", "    #@ assert ? and acc(G);\n"), CALLS_Q, 1, "access"),
    # poke borrows its precise caller's G and hands it back at exit
    "borrow-from-caller": (
        "contract W:\n  #@ global G;\n  method w(x: uint64):\n"
        "    #@ requires acc(G);\n    #@ ensures acc(G);\n"
        "    call W.poke(x);\n    G := G + 1;\n  method poke(x: uint64):\n"
        "    #@ requires ?;\n    #@ ensures ?;\n    G := x;\n", None, 1, "held"),
    # the adversary calls q, whose failing precondition blames q's requires
    # line: an unverified caller's call site is not blamed
    "extern-caller-precondition": (
        "contract W:\n  method w(x: uint64):\n    #@ requires ?;\n    #@ ensures ?;\n"
        "    call A.notify(x);\n  method q(x: uint64):\n    #@ requires ? and x >= 2;\n"
        "    #@ ensures ?;\n    y := x;\n" + EXTERN_A, CALLS_Q, 2, "precondition"),
    "adversary-arithmetic": (
        CALLS_A, "contract A:\n  #@ global N;\n  method notify(x: uint64):\n"
        "    N := N - x;\n    N := x / N;\n", 2, "underflow"),
    # the re-entered adversary reads (x = 0) or writes N, which its outer
    # frame borrowed
    "adversary-own-slot": (
        CALLS_A, "contract A:\n  #@ global N;\n  #@ global Hits;\n"
        "  method notify(x: uint64):\n    if x == 0:\n      y := N;\n"
        "    else:\n      N := x;\n    if Hits == 0:\n      Hits := 1;\n"
        "      call W.w(x);\n", 1, "access"),
}


@pytest.mark.parametrize("name", EDGES)
def test_vm_agrees_with_oracle_at_run_time_edge(name, monkeypatch):
    source, adversary, bound, kind = EDGES[name]
    program, _ = load_source(source, f"{name}.gcl")
    woven = weave(program, verify_program(program))
    kinds = set()
    judge = Oracle.judge

    def recording_judge(self, storage, t):
        j = judge(self, storage, t)
        kinds.add("held" if j.held else j.site.kind)
        return j

    monkeypatch.setattr(Oracle, "judge", recording_judge)
    report = enumerate_equivalence(program, woven, bound=bound,
                                   adversaries=adversary and {"A": adversary})
    assert report["disagreements"] == []
    assert kind in kinds


# A's global Calls, which only the adversary declares, counts its calls;
# the second call on one ledger underflows, so a count left over from an
# earlier grid case reverts a case the oracle judges held
COUNTS_CALLS = (
    "contract A:\n  #@ global Calls;\n  method notify(x: uint64):\n"
    "    Calls := Calls + 1;\n    y := 1 - Calls;\n"
)


def test_equivalence_resets_adversary_globals_between_cases():
    program, _ = load_source(CALLS_A, "calls_a.gcl")
    woven = weave(program, verify_program(program))
    image = load_program(woven, {"A": COUNTS_CALLS})
    ledger = Ledger(image.program)
    vm = Vm(image, ledger)
    assert vm.exec_transaction(tx("W", "w", 0)).committed
    assert ledger.slots["A"] == {"Calls": 1}
    assert vm.exec_transaction(tx("W", "w", 0)).reason == ARITHMETIC_PANIC
    report = enumerate_equivalence(program, woven, bound=2, adversaries={"A": COUNTS_CALLS})
    assert report == {"cases": 3, "disagreements": []}


def test_grid_bound_past_uint64_is_rejected():
    # no grid case goes through Ledger's validation, so the grid checks
    # its own bound
    program, _ = load_file(CORPUS / "sell.gcl")
    with pytest.raises(ValueError, match="grid bound 18446744073709551616 is not a uint64"):
        next(transaction_grid(program, UINT_MAX + 1))
    with pytest.raises(ValueError, match="is not a uint64"):
        enumerate_equivalence(program, weave(program, verify_program(program)),
                              bound=UINT_MAX + 1)


def test_oracle_module_is_independent():
    # the oracle must not consult the verifier, weaver, or VM for judgments
    src = (Path(__file__).parent.parent / "src" / "gvc" / "oracle.py").read_text()
    tree = ast.parse(src)
    banned = {"verifier", "weaver", "linear"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = (node.module or "").rsplit(".", 1)[-1]
            assert mod not in banned, f"oracle imports {mod}"


# one method per revert site; the line numbers below are this text's
SITES = (
    "contract C:\n"
    "  #@ global G;\n"
    "  #@ predicate spin(n) = spin(n + 1);\n"
    "  method take(x: uint64):\n"
    "    #@ requires ? and acc(G);\n"
    "    #@ ensures ? and acc(G);\n"
    "    G := G - x;\n"
    "  method pre(x: uint64):\n"
    "    #@ requires acc(G) and G >= 1;\n"
    "    #@ ensures acc(G);\n"
    "    G := G - 1;\n"
    "  method post(x: uint64):\n"
    "    #@ requires ? and acc(G);\n"
    "    #@ ensures ? and acc(G) and G >= 5;\n"
    "    G := x;\n"
    "  method add(x: uint64):\n"
    "    #@ requires ? and acc(G);\n"
    "    #@ ensures ?;\n"
    "    G := G + x;\n"
    "  method div(x: uint64):\n"
    "    #@ requires ? and acc(G);\n"
    "    #@ ensures ?;\n"
    "    G := G / x;\n"
    "  method down(n: uint64):\n"
    "    #@ requires ?;\n"
    "    #@ ensures ?;\n"
    "    call C.down(n);\n"
    "  method go(x: uint64):\n"
    "    #@ requires ? and spin(x);\n"
    "    #@ ensures ?;\n"
    "    y := x;\n"
)


@pytest.mark.parametrize("woven, init, t, gas_limit, reason, site", [
    (True, 0, tx("C", "take", 1), None, "CheckFailure", Site("underflow", 7)),
    (True, 0, tx("C", "pre", 0), None, "CheckFailure", Site("precondition", 9)),
    (True, 0, tx("C", "post", 1), None, "CheckFailure", Site("postcondition", 14)),
    (False, 2**64 - 1, tx("C", "add", 1), None, "ArithmeticPanic", Site("overflow", 19)),
    (False, 0, tx("C", "take", 1), None, "ArithmeticPanic", Site("underflow", 7)),
    (False, 0, tx("C", "div", 0), None, "ArithmeticPanic", Site("div-zero", 23)),
    (False, 0, tx("C", "take", 0), 0, "GasExhausted", Site("GasExhausted", 0)),
    (True, 0, tx("C", "down", 0), None, "CallDepthExceeded", Site("call-depth", 0)),
    (True, 0, tx("C", "go", 0), None, "PredicateDepthExceeded", Site("predicate-depth", 0)),
], ids=["woven-check", "entry-row", "exit-row", "overflow", "underflow", "div-zero",
        "gas", "call-depth", "predicate-depth"])
def test_vm_site_of_each_revert_reason(woven, init, t, gas_limit, reason, site):
    program, boundary = load_source(SITES, "sites.gcl")
    ip = weave(program, verify_program(program)) if woven else None
    image = load_program(ip or (program, boundary))
    out = Vm(image, Ledger(image.program, {"C": {"G": init}})).exec_transaction(t, gas_limit)
    assert out.reason == reason
    assert vm_site(out, ip.sidecar if ip else {}) == site


def test_vm_site_of_an_ownership_revert():
    path = CORPUS / "bank.gcl"
    program, _ = load_file(path)
    ip = weave(program, verify_program(program))
    image = load_program(ip, corpus_adversaries(path, program))
    out = Vm(image, Ledger(image.program, {"Bank": {"Balance": 10}})).exec_transaction(
        tx("Bank", "withdraw", 4))
    assert out.reason == "OwnershipFailure"
    assert vm_site(out, ip.sidecar) == Site("access", 4)


def method_m(requires, ensures, body):
    """Contract C's method m(x): one global G, then `body`; the first body
    line is line 6."""
    return ("contract C:\n  #@ global G;\n  method m(x: uint64):\n"
            f"    #@ requires {requires};\n    #@ ensures {ensures};\n" + body)


# one program per site kind: (source, initial G, argument of C.m, site and
# payload of the oracle's first violation); frontend_diff and disagreement
# records read the payload text
PAYLOADS = {
    "precondition": (method_m("acc(G) and x <= G", "acc(G)", "    G := G - x;\n"),
                     1, 2, Site("precondition", 4), "x <= G"),
    "precondition-at-call": (
        "contract C:\n  #@ predicate big(n) = n >= 5;\n  method m(x: uint64):\n"
        "    #@ requires true;\n    #@ ensures true;\n    call C.n(x + 1);\n"
        "  method n(x: uint64):\n    #@ requires big(x);\n    #@ ensures true;\n"
        "    y := x;\n", 0, 1, Site("precondition", 6), "big(x)"),
    "postcondition": (method_m("? and acc(G)", "? and acc(G) and G >= old(G) + x",
                               "    G := G - 1;\n"),
                      1, 2, Site("postcondition", 5), "G >= old(G) + x"),
    "assert": (method_m("?", "?", "    #@ assert ? and x + 1 >= 3;\n"),
               0, 1, Site("assert", 6), "x + 1 >= 3"),
    "loop-invariant": (method_m("?", "?", "    i := 0;\n    while i < x:\n"
                                "      #@ invariant ? and i <= 1;\n      i := i + 1;\n"),
                       0, 3, Site("loop-invariant", 7), "i <= 1"),
    "access-acc": (method_m("true", "acc(G)", "    y := x;\n"), 0, 1, Site("access", 5), "acc(G)"),
    "access-read": (method_m("true", "true", "    y := G + x;\n"), 0, 1, Site("access", 6), "G"),
    "access-write": (method_m("true", "true", "    G := x;\n"), 0, 1, Site("access", 6), "G"),
    "underflow": (method_m("?", "?", "    y := x - 5;\n"), 0, 1, Site("underflow", 6), "1 - 5"),
    "overflow": (method_m("?", "?", "    y := x * 9223372036854775808;\n"),
                 0, 2, Site("overflow", 6), "2 * 9223372036854775808"),
    "div-zero": (method_m("?", "?", "    y := 7 % x;\n"), 0, 0, Site("div-zero", 6), "7 % 0"),
    "spec-div-zero": (method_m("? and 7 / x >= 0", "?", "    y := x;\n"),
                      0, 0, Site("div-zero", 4), "division by zero in spec"),
    "call-depth": (method_m("?", "?", "    call C.m(x);\n"), 0, 0, Site("call-depth", 0), "C.m"),
    "predicate-depth": (
        "contract C:\n  #@ global G;\n  #@ predicate spin(n) = spin(n + 1);\n"
        "  method m(x: uint64):\n    #@ requires ? and spin(x);\n    #@ ensures ?;\n"
        "    y := x;\n", 0, 0, Site("predicate-depth", 0), "spin"),
}


@pytest.mark.parametrize("name", PAYLOADS)
def test_violation_site_and_payload_text(name):
    source, g, x, site, payload = PAYLOADS[name]
    program, _ = load_source(source, f"{name}.gcl")
    j = Oracle(program).judge({"C": {"G": g}}, tx("C", "m", x))
    assert (j.verdict, j.site) == (FIRST_VIOLATION, site)
    assert j.payload == payload
    assert _oracle_desc(j) == {"verdict": FIRST_VIOLATION, "kind": site.kind,
                               "line": site.line, "payload": payload}


def test_held_judgment_has_no_payload(sell_program):
    j = Oracle(sell_program).judge({"Counter": {"Count": 10}}, tx("Counter", "sell", 3))
    assert j.held and j.site is None and j.payload is None
