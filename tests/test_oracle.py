"""Reference oracle: trace judgments and VM equivalence enumeration."""

import ast
from pathlib import Path

from gvc.frontend import corpus_adversaries, load_file, load_source
from gvc.oracle import (
    ALL_HELD, FIRST_VIOLATION, Site, dynamic_verify_trace,
    enumerate_equivalence, vm_site,
)
from gvc.verifier import Status, verify_program
from gvc.vm import CHECK_FAILURE, Ledger, Transaction, Vm, load_program, merge_adversaries
from gvc.weaver import weave

from conftest import CORPUS, FIXTURES


def tx(contract, method, *args):
    return Transaction(contract, method, tuple(args))


class TestTraceJudgments:
    def test_sell_in_stock_holds(self, sell_program):
        j = dynamic_verify_trace(sell_program, {"Counter": {"Count": 10}},
                                 tx("Counter", "sell", 3))
        assert j.verdict == ALL_HELD
        assert j.storage == {"Counter": {"Count": 7}}

    def test_oversell_is_underflow_at_subtraction(self, sell_program):
        j = dynamic_verify_trace(sell_program, {"Counter": {"Count": 10}},
                                 tx("Counter", "sell", 12))
        assert j.verdict == FIRST_VIOLATION
        assert j.site == Site("underflow", 7)

    def test_input_storage_not_mutated(self, sell_program):
        storage = {"Counter": {"Count": 10}}
        dynamic_verify_trace(sell_program, storage, tx("Counter", "sell", 3))
        assert storage == {"Counter": {"Count": 10}}

    def test_reentrancy_is_access_violation(self):
        path = CORPUS / "bank.gcl"
        program, _ = load_file(path)
        merged, unverified = merge_adversaries(
            program, corpus_adversaries(path, program))
        j = dynamic_verify_trace(merged, {"Bank": {"Balance": 10}},
                                 tx("Bank", "withdraw", 4), unverified)
        assert j.verdict == FIRST_VIOLATION
        assert j.site.kind == "access"

    def test_precise_precondition_violation_at_spec_line(self):
        program, _ = load_file(CORPUS / "sell_precise.gcl")
        j = dynamic_verify_trace(program, {"Counter": {"Count": 2}},
                                 tx("Counter", "sell", 5))
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


# a precise caller of a foreign method that requires Count >= 1 (line 12 is
# the call)
FOREIGN_PRECISE = (
    "contract Vault:\n"
    "  #@ global Count;\n"
    "  method take():\n"
    "    #@ requires acc(Count) and Count >= 1;\n"
    "    #@ ensures acc(Count);\n"
    "    Count := Count - 1;\n"
    "\n"
    "contract Shop:\n"
    "  method buy():\n"
    "    #@ requires true;\n"
    "    #@ ensures true;\n"
    "    call Vault.take();\n"
)


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
        judgment = dynamic_verify_trace(program, {"Vault": {"Count": 0}}, tx("Shop", "buy"))
        assert vm_site(out, image.sidecar) == judgment.site == Site("precondition", 12)
        assert enumerate_equivalence(program, woven, bound=2)["disagreements"] == []


def test_oracle_module_is_independent():
    # the oracle must not consult the verifier, weaver, or VM for judgments
    src = (Path(__file__).parent.parent / "src" / "gvc" / "oracle.py").read_text()
    tree = ast.parse(src)
    banned = {"verifier", "weaver", "linear"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = (node.module or "").rsplit(".", 1)[-1]
            assert mod not in banned, f"oracle imports {mod}"
