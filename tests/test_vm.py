"""Transaction VM: execution, gas accounting, permissions, atomicity."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import gvc.vm
from gvc.frontend import (
    WellFormednessError, corpus_adversaries, corpus_files, load_file, load_source,
)
from gvc.lang import Old, Program
from gvc.oracle import enumerate_equivalence
from gvc.parser import MAX_NESTING
from gvc.verifier import verify_program
from gvc.vm import (
    ARITHMETIC_PANIC, CHECK_FAILURE, GAS_EXHAUSTED, OWNERSHIP_FAILURE,
    PREDICATE_DEPTH, Ledger, Transaction, Vm, VmLoadError,
    VmUsageError, load_program, parse_script, run_script, transaction_grid,
)
from gvc.weaver import weave

from conftest import CORPUS, ROOT


def make_image(name, adversaries=None):
    path = CORPUS / name
    program, _ = load_file(path)
    ip = weave(program, verify_program(program))
    if adversaries is None:
        adversaries = corpus_adversaries(path, program)
    return load_program(ip, adversaries)


def sell_ledger(image, count=10):
    return Ledger(image.program, {"Counter": {"Count": count}})


def tx(contract, method, *args):
    return Transaction(contract, method, tuple(args))


class TestSellScript:
    def test_three_sales_commit(self):
        image = make_image("sell.gcl")
        led = sell_ledger(image)
        counts = []
        for _ in range(3):
            [out], _ = run_script(image, [tx("Counter", "sell", 3)], ledger=led)
            assert out.status == "committed"
            counts.append(led.read("Counter", "Count"))
        assert counts == [7, 4, 1]

    def test_oversell_reverts_via_residual(self):
        image = make_image("sell.gcl")
        led = sell_ledger(image)
        outs, _ = run_script(image, [tx("Counter", "sell", 3),
                                     tx("Counter", "sell", 12)], ledger=led)
        assert outs[0].committed and not outs[1].committed
        assert outs[1].reason == CHECK_FAILURE
        assert outs[1].detail["check_id"] == "c0"
        assert outs[1].detail["line"] == 7
        assert led.read("Counter", "Count") == 7

    def test_empty_script(self):
        image = make_image("sell.gcl")
        outs, report = run_script(image, [])
        assert outs == []
        assert report["totals"] == {"exec_gas": 0, "check_gas": 0}

    def test_parse_script(self):
        txs = parse_script((CORPUS / "sell.txs.jsonl").read_text())
        assert txs == [tx("Counter", "sell", 3)] * 3


class TestGas:
    def test_imprecise_sell_gas(self):
        # exec: two assignments.  check: entry comparison + entry acc +
        # woven residual + exit postcondition atom.
        image = make_image("sell.gcl")
        outs, report = run_script(image, [tx("Counter", "sell", 3)] * 3,
                                  ledger=sell_ledger(image))
        assert all(o.exec_gas == 2 and o.check_gas == 4 for o in outs)
        assert report["totals"] == {"exec_gas": 6, "check_gas": 12}

    def test_precise_sell_gas(self):
        # no woven check: entry comparison + entry acc + exit atom.
        image = make_image("sell_precise.gcl")
        outs, report = run_script(image, [tx("Counter", "sell", 3)] * 3,
                                  ledger=sell_ledger(image))
        assert all(o.exec_gas == 2 and o.check_gas == 3 for o in outs)
        assert report["totals"] == {"exec_gas": 6, "check_gas": 9}

    def test_predicate_gas_short_circuits(self):
        # even(4): five comparisons plus three predicate-call atoms; the
        # boundary row for acc(Value) adds one more check unit.
        image = make_image("pred.gcl")
        [out], _ = run_script(image, [tx("Parity", "bump", 4)])
        assert out.committed
        assert out.exec_gas == 1
        assert out.check_gas == 9

    def test_gas_limit_exhausts(self):
        image = make_image("sell.gcl")
        [out], _ = run_script(image, [tx("Counter", "sell", 3)],
                              gas_limit=3, ledger=sell_ledger(image))
        assert out.reason == GAS_EXHAUSTED


class TestAtomicity:
    def test_division_by_zero_caught_by_residual(self):
        image = make_image("divmod.gcl")
        led = Ledger(image.program, {"Divider": {"Pool": 8}})
        vm = Vm(image, led)
        out = vm.exec_transaction(tx("Divider", "split", 0))
        assert out.reason == CHECK_FAILURE
        assert led.read("Divider", "Pool") == 8

    def test_overflow_panic_restores_ledger(self):
        # addition overflow carries no static obligation; it panics at run
        # time and the partial write to G is rolled back
        src = (
            "contract C:\n"
            "  #@ global G;\n"
            "  method add(x: uint64):\n"
            "    #@ requires ? and acc(G);\n"
            "    #@ ensures ?;\n"
            "    G := G + 1;\n"
            "    G := G + x;\n"
        )
        program, _ = load_source(src, "add.gcl")
        image = load_program(weave(program, verify_program(program)))
        led = Ledger(image.program)
        vm = Vm(image, led)
        out = vm.exec_transaction(tx("C", "add", 2 ** 64 - 1))
        assert out.reason == ARITHMETIC_PANIC
        assert out.detail["kind"] == "overflow"
        assert led.read("C", "G") == 0

    def test_permissions_cleared_after_tx(self):
        image = make_image("sell.gcl")
        vm = Vm(image, sell_ledger(image))
        vm.exec_transaction(tx("Counter", "sell", 3))
        assert vm.perm == {}

    def test_repeat_runs_identical(self):
        script = [tx("Counter", "sell", 3), tx("Counter", "sell", 12),
                  tx("Counter", "sell", 1)]

        def once():
            image = make_image("sell.gcl")
            led = sell_ledger(image)
            outs, report = run_script(image, script, ledger=led)
            return [o.as_dict() for o in outs], report, led.as_dict()

        assert once() == once()


class _CountingLedger(Ledger):
    """A ledger that counts the slots its last transaction wrote (the
    entries of its undo log)."""

    written = 0

    def end(self, undo):
        self.written = len(self.journal)
        super().end(undo)


class TestJournal:
    @pytest.mark.parametrize("path", corpus_files(CORPUS), ids=lambda p: p.stem)
    def test_reverts_leave_the_ledger_byte_identical(self, path):
        # every case of the bound-2 grid, run once without a gas limit and
        # once under every limit below the gas a committed run used, so
        # GasExhausted lands at every statement (mid-loop included)
        program, _ = load_file(path)
        image = load_program(weave(program, verify_program(program)),
                             corpus_adversaries(path, program))

        def run(init, t, limit):
            led = _CountingLedger(image.program, init)
            before = json.dumps(led.as_dict())
            out = Vm(image, led).exec_transaction(t, gas_limit=limit)
            if not out.committed:
                assert json.dumps(led.as_dict()) == before, (t, limit, out.reason)
            return out, led.written

        undone = 0  # reverted transactions that had written a slot
        for _, _, init, t in transaction_grid(program, 2):
            out, written = run(init, t, None)
            undone += not out.committed and written > 0
            for cut in range(out.exec_gas + out.check_gas) if out.committed else ():
                out, written = run(init, t, cut)
                assert out.reason == GAS_EXHAUSTED
                undone += written > 0
        if path.stem in ("loop", "bank", "transfer", "ledger_pair", "calls"):
            assert undone > 0

    def test_undo_log_holds_one_entry_per_written_slot(self):
        # a loop that writes Total once per iteration, cut mid-loop
        image = make_image("loop.gcl")
        led = _CountingLedger(image.program, {"Summer": {"Total": 7}})
        before = json.dumps(led.as_dict())
        out = Vm(image, led).exec_transaction(tx("Summer", "accumulate", 1000), gas_limit=500)
        assert out.reason == GAS_EXHAUSTED
        assert json.dumps(led.as_dict()) == before
        assert led.written == 1

    def test_transactions_never_deep_copy(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("exec_transaction deep-copied the ledger")

        image = make_image("sell.gcl")
        led = sell_ledger(image)
        vm = Vm(image, led)
        monkeypatch.setattr(gvc.vm.copy, "deepcopy", boom)
        outs = [vm.exec_transaction(tx("Counter", "sell", n)) for n in (3, 12, 1)]
        assert [o.committed for o in outs] == [True, False, True]
        assert led.slots == {"Counter": {"Count": 6}}

    def test_transactions_never_compile(self, monkeypatch):
        # load_program compiles every body, boundary row, woven check and
        # predicate; a transaction only runs the closures
        loaded = []
        for path in corpus_files(CORPUS):
            program, _ = load_file(path)
            loaded.append((path, program, load_program(weave(program, verify_program(program)),
                                                       corpus_adversaries(path, program))))

        def boom(*args, **kwargs):
            raise AssertionError("a transaction compiled code")

        for name in ("_rows", "_block", "_stmt", "_operand", "_spec_operand", "_formula",
                     "_spec_test", "_predicates"):
            monkeypatch.setattr(gvc.vm, name, boom)
        check_gas = {}
        for path, program, image in loaded:
            script = path.with_name(path.stem + ".txs.jsonl")
            if script.exists():
                outs, _ = run_script(image, parse_script(script.read_text(encoding="utf-8")))
                check_gas[script.name] = sum(o.check_gas for o in outs)
            for _, _, init, t in transaction_grid(program, 1):
                out = Vm(image, Ledger(image.program, init)).exec_transaction(t)
                check_gas[path.name] = check_gas.get(path.name, 0) + out.check_gas
        assert sorted(n for n in check_gas if n.endswith(".txs.jsonl")) == [
            "bank.txs.jsonl", "sell.txs.jsonl", "sell_precise.txs.jsonl"]
        assert check_gas["pred.gcl"] > 0 and check_gas["sell.txs.jsonl"] > 0


SHAPE = ("contract C:\n  #@ global G;\n{preds}  method m(x: uint64):\n"
         "    #@ requires ? and acc(G) and {req};\n    #@ ensures ? and acc(G);\n    G := x;\n")
EVEN = "  #@ predicate ev(n) = n == 0 or (n >= 2 and ev(n - 2));\n"


def pre(payload, line):
    return CHECK_FAILURE, {"check_id": None, "kind": "precondition", "payload": payload,
                           "line": line}


# payload shapes: (source, [(args, exec_gas, check_gas, (reason, detail) of a
# revert or None)]).  Check gas is 1 per acc, comparison and predicate call,
# charged before the operands; and/or short-circuit.
SPEC_SHAPES = {
    "not": (SHAPE.format(preds="  #@ predicate nz(n) = not n == 0;\n", req="nz(x)"),
            [((0,), 0, 2, pre("nz(x)", 5)), ((3,), 1, 3, None)]),
    "nested-or-and": (
        SHAPE.format(preds="  #@ predicate mid(n) = n == 1 or (n >= 2 and (n <= 4 or n == 9));\n",
                     req="mid(x)"),
        [((0,), 0, 3, pre("mid(x)", 5)), ((1,), 1, 3, None), ((3,), 1, 5, None),
         ((5,), 0, 5, pre("mid(x)", 5)), ((9,), 1, 6, None)]),
    "instance-first": (
        SHAPE.format(preds=EVEN + "  #@ predicate p(n) = ev(n) and n <= 6;\n", req="p(x)"),
        [((3,), 0, 7, pre("p(x)", 6)), ((4,), 1, 11, None), ((8,), 0, 16, pre("p(x)", 6))]),
    "instance-last": (
        SHAPE.format(preds=EVEN + "  #@ predicate p(n) = n <= 6 and ev(n);\n", req="p(x)"),
        [((3,), 0, 8, pre("p(x)", 6)), ((4,), 1, 11, None), ((8,), 0, 2, pre("p(x)", 6))]),
    "non-recursive": (
        SHAPE.format(preds="  #@ predicate small(n) = n <= 3;\n", req="small(x)"),
        [((2,), 1, 3, None), ((5,), 0, 2, pre("small(x)", 5))]),
    # the assert's residual is woven as `#! check x / y >= 1 @c0;`
    "check-div-zero": (
        "contract C:\n  #@ global G;\n  method m(x: uint64, y: uint64):\n"
        "    #@ requires ? and acc(G);\n    #@ ensures ? and acc(G);\n"
        "    #@ assert ? and x / y >= 1;\n    G := x;\n",
        [((1, 0), 0, 2, (ARITHMETIC_PANIC, {"kind": "div-zero", "line": 6})),
         ((2, 1), 1, 2, None),
         ((0, 1), 0, 2, (CHECK_FAILURE, {"check_id": "c0", "payload": "x / y >= 1", "line": 6}))]),
    "exit-div-zero": (
        "contract C:\n  #@ global G;\n  method m(x: uint64):\n"
        "    #@ requires ? and acc(G);\n    #@ ensures ? and acc(G) and G / x >= 1;\n"
        "    G := x;\n",
        [((0,), 1, 2, (ARITHMETIC_PANIC, {"kind": "div-zero", "line": 5})), ((1,), 1, 2, None)]),
}


@pytest.mark.parametrize("name", SPEC_SHAPES)
def test_spec_payload_gas_and_reverts_are_pinned(name):
    source, cases = SPEC_SHAPES[name]
    program, _ = load_source(source, f"{name}.gcl")
    woven = weave(program, verify_program(program))
    image = load_program(woven)
    for args, exec_gas, check_gas, revert in cases:
        out = Vm(image, Ledger(image.program)).exec_transaction(tx("C", "m", *args))
        assert (out.exec_gas, out.check_gas) == (exec_gas, check_gas), args
        assert (out.reason, out.detail) == (revert or (None, {})), args
    assert enumerate_equivalence(program, woven, bound=2)["disagreements"] == []


DOWN = """contract C:
  method down(n: uint64):
    #@ requires ?;
    #@ ensures ?;
    if n > 0:
      call C.down(n - 1);
"""

DOWN_AT_THE_CAP = '''
import json, sys
from gvc.frontend import load_source
from gvc.lang import CALL_DEPTH_CAP
from gvc.oracle import Oracle, vm_site
from gvc.verifier import verify_program
from gvc.vm import Transaction, load_program, run_script
from gvc.weaver import weave

limit = sys.getrecursionlimit()
program, _ = load_source(sys.stdin.read(), "down.gcl")
ip = weave(program, verify_program(program))
image = load_program(ip)
rows = []
# down(n) enters n + 1 frames; argv[1] may list other n
for n in json.loads(sys.argv[1]) if len(sys.argv) > 1 else (CALL_DEPTH_CAP - 1, CALL_DEPTH_CAP, 5000):
    tx = Transaction("C", "down", (n,))
    [out], _ = run_script(image, [tx])
    j = Oracle(program).judge({}, tx)
    rows.append([out.status, out.reason, None if out.committed else vm_site(out, ip.sidecar).kind,
                 j.verdict, j.site and j.site.kind])
print(json.dumps({"rows": rows, "limit": [limit, sys.getrecursionlimit()]}))
'''


def test_call_depth_cap_shared_with_the_oracle():
    # the deepest chain of calls that commits has CALL_DEPTH_CAP frames; one
    # frame more reverts CallDepthExceeded in the VM, which the oracle
    # blames on the same site, and neither touches the recursion limit
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", DOWN_AT_THE_CAP], input=DOWN, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    over = ["reverted", "CallDepthExceeded", "call-depth", "FirstViolation", "call-depth"]
    assert got["rows"] == [["committed", None, None, "AllObligationsHeld", None], over, over]
    assert got["limit"][0] == got["limit"][1]


def nested_down(depth):
    """DOWN with its recursive call under `depth` nested `if` bodies."""
    body = "".join(f"{'  ' * (2 + k)}if n > 0:\n" for k in range(depth))
    return DOWN.split("    if n > 0:")[0] + body + f"{'  ' * (2 + depth)}call C.down(n - 1);\n"


@pytest.mark.parametrize("depth, ns", [
    # each call under seven nested bodies is charged 7: down(9) is charged
    # 1 + 9 * 7 = CALL_DEPTH_CAP, down(10) and down(60) more
    (7, [9, 10, 60]),
    # a call is charged at most CALL_DEPTH_CAP // 2, so one call from under
    # the deepest nesting the parser accepts (the call's argument list is
    # one level more) still runs, and a second one reverts
    (MAX_NESTING - 1, [1, 2]),
])
def test_call_depth_charges_the_call_site_block_depth(depth, ns):
    # the first n commits and the others stop at the cap with a revert in
    # the VM and the same site in the oracle, not a RecursionError, and
    # neither touches the recursion limit
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", DOWN_AT_THE_CAP, json.dumps(ns)],
                         input=nested_down(depth), env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    over = ["reverted", "CallDepthExceeded", "call-depth", "FirstViolation", "call-depth"]
    assert got["rows"] == [["committed", None, None, "AllObligationsHeld", None]] + \
        [over] * (len(ns) - 1)
    assert got["limit"][0] == got["limit"][1]


class TestFailureModes:
    def test_odd_step_rejected_at_boundary(self):
        image = make_image("pred.gcl")
        [out], _ = run_script(image, [tx("Parity", "bump", 3)])
        assert out.reason == CHECK_FAILURE
        assert out.detail["kind"] == "precondition"

    def test_predicate_depth_cap(self):
        src = (
            "contract C:\n"
            "  #@ predicate spin(n) = spin(n + 1);\n"
            "  method go(x: uint64):\n"
            "    #@ requires ? and spin(x);\n"
            "    #@ ensures ?;\n"
            "    y := x;\n"
        )
        program, _ = load_source(src, "spin.gcl")
        image = load_program(weave(program, verify_program(program)))
        [out], _ = run_script(image, [tx("C", "go", 0)])
        assert out.reason == PREDICATE_DEPTH

    def test_spec_expression_in_a_built_body_is_rejected_at_load(self):
        # load_program runs the front end's checks on a program built
        # without the parser too
        program, _ = load_source("contract C:\n  #@ global G;\n  method m(x: uint64):\n"
                                 "    #@ requires ?;\n    #@ ensures ?;\n    y := x;\n", "b.gcl")
        [c] = program.contracts
        [m] = c.methods
        [s] = m.body
        body = (dataclasses.replace(s, expr=Old("G", s.expr.loc)),)
        built = Program((dataclasses.replace(c, methods=(dataclasses.replace(m, body=body),)),))
        with pytest.raises(WellFormednessError, match="b.gcl:6:10: old"):
            load_program((built, {}))

    def test_usage_errors(self):
        image = make_image("sell.gcl")
        vm = Vm(image, sell_ledger(image))
        with pytest.raises(VmUsageError):
            vm.exec_transaction(tx("Nope", "sell", 3))
        with pytest.raises(VmUsageError):
            vm.exec_transaction(tx("Counter", "nope", 3))
        with pytest.raises(VmUsageError):
            vm.exec_transaction(tx("Counter", "sell", 3, 4))
        with pytest.raises(VmUsageError):
            vm.exec_transaction(tx("Counter", "sell", -1))

    @pytest.mark.parametrize("bad, message", [
        (tx("Counter", "nope"), "transaction 1: unknown method Counter.nope"),
        (tx("Counter", "sell", True), "transaction 1: transaction argument True is not a uint64"),
    ], ids=["unknown-method", "bool-arg"])
    def test_bad_transaction_after_valid_ones_runs_none(self, bad, message):
        image = make_image("sell.gcl")
        led = Ledger(image.program, {"Counter": {"Count": 5}})
        with pytest.raises(VmUsageError) as e:
            run_script(image, [tx("Counter", "sell", 1), bad], ledger=led)
        assert str(e.value) == message
        assert led.as_dict() == {"Counter": {"Count": 5}}

    @pytest.mark.parametrize("init", [
        [], {"Counter": 5}, {"Ghost": {"X": 1}}, {"Counter": {"Stock": 1}},
        {"Counter": {"Count": -5}}, {"Counter": {"Count": 2**64}},
        {"Counter": {"Count": True}}, {"Counter": {"Count": "7"}},
    ])
    def test_ledger_init_validated(self, init):
        image = make_image("sell.gcl")
        with pytest.raises(VmUsageError):
            Ledger(image.program, init)


class TestAssignmentOwnership:
    SOURCE = ("contract C:\n  #@ global G;\n  #@ global H;\n  method m(x: uint64):\n"
              "    #@ requires {requires};\n    #@ ensures ?;\n    G := {expr};\n")

    def test_self_reading_write_acquires_at_the_read(self):
        # the read of G lazily acquires it and the write needs no second
        # test; loaded unwoven, so no woven acc(G) check acquires G first
        image = load_program(load_source(self.SOURCE.format(requires="? and acc(H)",
                                                            expr="G + x"), "self.gcl"))
        led = Ledger(image.program, {"C": {"G": 5}})
        vm = Vm(image, led)
        out = vm.exec_transaction(tx("C", "m", 3))
        assert (out.status, out.exec_gas, out.check_gas) == ("committed", 1, 1)
        assert led.as_dict() == {"C": {"G": 8, "H": 0}}
        assert vm.perm == {}

    def test_write_without_a_read_of_its_target_is_tested(self):
        # G := H + 1 reads only H, which the frame owns; it does not verify,
        # so it is loaded unwoven
        image = load_program(load_source(self.SOURCE.format(requires="acc(H)", expr="H + 1"),
                                         "other.gcl"))
        led = Ledger(image.program)
        out = Vm(image, led).exec_transaction(tx("C", "m", 0))
        assert (out.reason, out.detail) == (
            OWNERSHIP_FAILURE, {"slot": "G", "kind": "access", "line": 7, "contract": "C"})
        assert led.as_dict() == {"C": {"G": 0, "H": 0}}


class TestReentrancy:
    def _bank(self, protected=True):
        image = make_image("bank.gcl")
        led = Ledger(image.program, {"Bank": {"Balance": 10}})
        return Vm(image, led, protected), led

    def test_protected_attack_reverts(self):
        vm, led = self._bank()
        out = vm.exec_transaction(tx("Bank", "withdraw", 4))
        assert out.reason == OWNERSHIP_FAILURE
        assert out.detail["slot"] == "Balance"
        assert out.detail["line"] == 4
        assert led.read("Bank", "Balance") == 10

    def test_unprotected_attack_double_spends(self):
        vm, led = self._bank(protected=False)
        out = vm.exec_transaction(tx("Bank", "withdraw", 4))
        assert out.committed
        assert led.read("Bank", "Balance") == 2  # honest result is 6

    def test_adversary_declaring_its_contract_twice_is_rejected(self):
        # which block would run is not for the loader to guess
        adversary = (CORPUS / "bank.adversary.gcl").read_text(encoding="utf-8")
        twice = "contract Attacker:\n  method notify(amount: uint64):\n    x := amount;\n\n" + adversary
        with pytest.raises(VmLoadError, match="adversary source defines contract Attacker twice"):
            make_image("bank.gcl", {"Attacker": twice})
