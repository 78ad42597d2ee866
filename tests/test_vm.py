"""Transaction VM: execution, gas accounting, permissions, atomicity."""

import builtins
import collections
import dataclasses
import dis
import inspect
import itertools
import json
import os
import subprocess
import sys

import pytest

import gvc.frontend
import gvc.vm
from gvc.frontend import corpus_adversaries, corpus_files, load_file, load_source
from gvc.lang import Acc, Check, Old, Program, stmts_recursive
from gvc.oracle import enumerate_equivalence
from gvc.parser import MAX_NESTING
from gvc.verifier import verify_program
from gvc.vm import (
    ARITHMETIC_PANIC, CHECK_FAILURE, GAS_EXHAUSTED, OWNERSHIP_FAILURE,
    PREDICATE_DEPTH, Ledger, Transaction, Vm, VmLoadError,
    VmUsageError, load_program, parse_script, run_script, transaction_grid,
)
from gvc.weaver import weave

from conftest import CORPUS, FOREIGN_PRECISE, OWNERSHIP_PREMISE, ROOT


def make_image(name, adversaries=None, protected=True):
    path = CORPUS / name
    program, _ = load_file(path)
    ip = weave(program, verify_program(program))
    if adversaries is None:
        adversaries = corpus_adversaries(path, program)
    return load_program(ip, adversaries, protected)


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
        assert outs[1].detail == {"check_id": "c0"}
        assert led.read("Counter", "Count") == 7

    def test_empty_script(self):
        image = make_image("sell.gcl")
        outs, report = run_script(image, [])
        assert outs == []
        assert report["totals"] == {"exec_gas": 0, "check_gas": 0}

    def test_parse_script(self):
        txs = parse_script((CORPUS / "sell.txs.jsonl").read_text())
        assert txs == [tx("Counter", "sell", 3)] * 3

    def test_script_validates_each_transaction_once(self, monkeypatch):
        image = make_image("sell.gcl")
        checked = []
        check = gvc.vm.check_transaction

        def counting_check(image, t):
            checked.append(t)
            check(image, t)

        monkeypatch.setattr(gvc.vm, "check_transaction", counting_check)
        script = [tx("Counter", "sell", 1), tx("Counter", "sell", 9), tx("Counter", "sell", 2)]
        outs, _ = run_script(image, script, ledger=sell_ledger(image))
        assert [o.committed for o in outs] == [True, True, False]
        assert checked == script


class TestGas:
    def test_imprecise_sell_gas(self):
        # exec: two assignments.  check: entry comparison + entry acc +
        # woven residual; the proven exit atom is not re-checked.
        image = make_image("sell.gcl")
        outs, report = run_script(image, [tx("Counter", "sell", 3)] * 3,
                                  ledger=sell_ledger(image))
        assert all(o.exec_gas == 2 and o.check_gas == 3 for o in outs)
        assert report["totals"] == {"exec_gas": 6, "check_gas": 9}

    def test_precise_sell_gas(self):
        # no woven check and no exit row: entry comparison + entry acc.
        image = make_image("sell_precise.gcl")
        outs, report = run_script(image, [tx("Counter", "sell", 3)] * 3,
                                  ledger=sell_ledger(image))
        assert all(o.exec_gas == 2 and o.check_gas == 2 for o in outs)
        assert report["totals"] == {"exec_gas": 6, "check_gas": 6}

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


# two contracts with globals, one without and an extern: every global of
# each is a grid coordinate, and only the non-extern methods are run
GRID_PROGRAM = (
    "contract A:\n  #@ global G;\n  #@ global H;\n  method f(x: uint64, y: uint64):\n"
    "    #@ requires ?;\n    #@ ensures ?;\n    z := x;\n"
    "  method g():\n    #@ requires ?;\n    #@ ensures ?;\n    z := 0;\n"
    "contract B:\n  method h(x: uint64):\n    #@ requires ?;\n    #@ ensures ?;\n"
    "    call E.poke(x);\n"
    "contract D:\n  #@ global K;\n  method k(x: uint64):\n    #@ requires ?;\n"
    "    #@ ensures ?;\n    z := x;\n"
    "\nextern contract E:\n  method poke(x: uint64):\n    opaque;\n"
)


class TestTransactionGrid:
    def test_cases_are_the_product_of_globals_and_arguments(self):
        program, _ = load_source(GRID_PROGRAM, "grid.gcl")
        slots = [(c.name, g) for c in program.contracts for g in c.globals]
        expected = []
        for c in program.contracts:
            if c.extern:
                continue
            for m in c.methods:
                for point in itertools.product(range(3), repeat=len(slots) + len(m.params)):
                    init = {}
                    for (cname, g), v in zip(slots, point):
                        init.setdefault(cname, {})[g] = v
                    expected.append((c.name, m.name, init,
                                     Transaction(c.name, m.name, point[len(slots):])))
        got = [(c.name, m.name, init, t) for c, m, init, t in transaction_grid(program, 2)]
        # 3 globals: 3^5 cases for f(x, y), 3^3 for g(), 3^4 for h(x) and k(x)
        assert collections.Counter((c, m) for c, m, _, _ in got) == {
            ("A", "f"): 243, ("A", "g"): 27, ("B", "h"): 81, ("D", "k"): 81}
        assert got == expected
        assert all(type(t.args) is tuple for _, _, _, t in got)

    def test_each_case_has_fresh_storage(self):
        program, _ = load_source(GRID_PROGRAM, "grid.gcl")
        cases = transaction_grid(program, 1)
        _, _, first, _ = next(cases)
        first["A"]["G"] = 7
        first["D"].clear()
        _, _, second, t = next(cases)
        assert second == {"A": {"G": 0, "H": 0}, "D": {"K": 0}}
        assert t == tx("A", "f", 0, 1)


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
        # load_program generates and compiles every body, woven check,
        # entry, exit and predicate; a transaction only runs what it
        # compiled, and neither compile() nor exec() is called
        loaded = []
        for path in corpus_files(CORPUS):
            program, _ = load_file(path)
            loaded.append((path, program, load_program(weave(program, verify_program(program)),
                                                       corpus_adversaries(path, program))))

        def boom(*args, **kwargs):
            raise AssertionError("a transaction compiled code")

        for name in ("_Emitter", "_predicates"):
            monkeypatch.setattr(gvc.vm, name, boom)
        monkeypatch.setattr(builtins, "compile", boom)
        monkeypatch.setattr(builtins, "exec", boom)
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


# names that are Python keywords, builtins or the emitter's own: contract
# `env`, globals `fr` and `slots`, predicate `exec(lambda)`, parameters `def`
# and `None`, local `__import__`
CAPTURE = """contract env:
  #@ global fr;
  #@ global slots;
  #@ predicate exec(lambda) = lambda <= 1 or exec(lambda - 2);
  method m(def: uint64, None: uint64):
    #@ requires ? and acc(fr) and exec(def);
    #@ ensures ? and acc(fr) and acc(slots);
    __import__ := def + None;
    #@ assert ? and __import__ <= fr;
    while __import__ > 0 and slots < 5:
      #@ invariant ?;
      slots := slots + 1;
      __import__ := __import__ - 1;
    if not (fr == 0):
      fr := slots / fr + None % fr;
    else:
      fr := fr - None;
"""
# U+2E2F is alphabetic to str.isalpha, so the lexer takes it in names, but
# no Python identifier holds it
VT = "\u2e2f"
NOT_PYTHON = (f"contract C{VT}:\n  #@ global G{VT};\n  method m{VT}(x{VT}: uint64):\n"
              f"    #@ requires ? and acc(G{VT});\n    #@ ensures ? and acc(G{VT});\n"
              f"    {VT} := x{VT} * 2;\n    #@ assert ? and {VT} >= G{VT};\n"
              f"    G{VT} := {VT} - G{VT};\n")

# the prefixes of generated function names: blocks _b<i>, spec formulas
# _s<i>, and each method's entry _e<i> and exit _x<i>
FUNCTIONS = ("_b", "_s", "_e", "_x")
# every name a generated function may use besides the numbered namespace
# constants _k<i> and generated functions
VOCABULARY = {"meter", "limit", "exec_gas", "check_gas", "perm", "get", "id",
              "journal", "slots", "vm", "call", "result", "old", "copy", "_hold", "_touch",
              "_gas_exhausted", "_overflow", "_underflow", "_div_zero", "_check_failed",
              "_row_failed", "_acquire", "_hand_back", "eval_spec_bool"}


def generated_functions(image):
    """Every generated function of a loaded image: each method's block,
    spec formula, entry and exit functions and each contract's predicate
    functions, by namespace and name."""
    namespaces = [code.body.__globals__ for code in image.code.values()]
    namespaces += [body.__globals__ for code in image.code.values()
                   for _, body, _ in code.predicates.values()]
    return {(id(ns), name): f for ns in namespaces for name, f in ns.items()
            if name[:2] in FUNCTIONS and name[2:].isdigit()}


class TestGeneratedCode:
    @pytest.mark.parametrize("text, bound, cases", [(CAPTURE, 2, 81), (NOT_PYTHON, 3, 16)],
                             ids=["python-names", "not-python-names"])
    def test_program_names_are_never_code(self, text, bound, cases):
        program, _ = load_source(text, "names.gcl")
        woven = weave(program, verify_program(program))
        eq = enumerate_equivalence(program, woven, bound=bound)
        assert (eq["cases"], eq["disagreements"]) == (cases, [])

    def test_generated_code_names_only_its_vocabulary(self):
        # a program identifier, slot key, check id or payload text reaches
        # generated code only as a namespace constant, never as source
        texts = (CAPTURE, NOT_PYTHON, *(source for source, _ in SPEC_SHAPES.values()))
        images = [load_program(weave(p, verify_program(p)))
                  for p in (load_source(t, "names.gcl")[0] for t in texts)]
        for path in corpus_files(CORPUS):
            program, _ = load_file(path)
            images.append(load_program(weave(program, verify_program(program)),
                                       corpus_adversaries(path, program)))
        kinds = set()
        for image in images:
            functions = generated_functions(image).values()
            assert len(functions) >= len(image.code)
            assert {f for code in image.code.values() for f in (code.entry, code.exit)
                    if f is not None} <= set(functions)
            for f in functions:
                code = f.__code__
                kinds.add((f.__name__[:2], inspect.isgeneratorfunction(f)))
                numbered = {n for n in code.co_names
                            if n[:2] in ("_k", *FUNCTIONS) and n[2:].isdigit()}
                assert set(code.co_names) - numbered <= VOCABULARY, f.__name__
                assert not any(isinstance(c, str) for c in code.co_consts), f.__name__
        assert kinds == {("_b", False), ("_s", False), ("_s", True), ("_e", False), ("_x", False)}

    def test_a_failed_check_names_only_its_id(self):
        # every woven check and non-acc exit row compiles to
        # `_check_failed(<its id constant>)`, and no check's payload text is
        # a string constant of a method's namespace: the image's check map
        # alone says what a check checks and where it blames
        kinds = collections.Counter()
        for path in corpus_files(CORPUS):
            program, _ = load_file(path)
            image = load_program(weave(program, verify_program(program)),
                                 corpus_adversaries(path, program))
            woven = collections.Counter()
            for c in image.program.contracts:
                for m in c.methods:
                    for _, s in stmts_recursive(m.body):
                        if isinstance(s, Check):
                            woven[s.check_id] += 1
                            kinds["check"] += 1
                    for r in m.exits:
                        if not isinstance(r.payload, Acc):
                            woven[r.check_id] += 1
                            kinds["exit"] += 1
            raised = collections.Counter()
            for f in generated_functions(image).values():
                ins = list(dis.get_instructions(f))
                for call, arg in zip(ins, ins[1:]):
                    if call.opname == "LOAD_GLOBAL" and call.argval == "_check_failed":
                        assert arg.opname == "LOAD_GLOBAL", (path.name, f.__name__)
                        raised[f.__globals__[arg.argval]] += 1
            assert raised == woven, path.name
            payloads = {rec["payload"] for rec in image.checks.values()}
            for code in image.code.values():
                ns = code.body.__globals__
                assert not payloads & {v for v in ns.values() if isinstance(v, str)}, path.name
        assert kinds["check"] > 0 and kinds["exit"] > 0

    def test_unprotected_image_compiles_no_protocol(self):
        # unprotected, no method has an entry or exit function, and no
        # generated function tests or moves a permission or evaluates a
        # check, where the protected images name every one of these
        protocol = {"perm", "_touch", "_check_failed", "_row_failed", "_acquire", "_hand_back",
                    "eval_spec_bool"}
        named = set()
        for path in corpus_files(CORPUS):
            program, _ = load_file(path)
            woven = weave(program, verify_program(program))
            adversaries = corpus_adversaries(path, program)
            image = load_program(woven, adversaries, protected=False)
            assert all(code.entry is None and code.exit is None
                       for code in image.code.values()), path.name
            for f in generated_functions(image).values():
                assert not protocol & set(f.__code__.co_names), (path.name, f.__name__)
            named |= {n for f in generated_functions(load_program(woven, adversaries)).values()
                      for n in f.__code__.co_names}
        assert protocol <= named


SHAPE = ("contract C:\n  #@ global G;\n{preds}  method m(x: uint64):\n"
         "    #@ requires ? and acc(G) and {req};\n    #@ ensures ? and acc(G);\n    G := x;\n")
EVEN = "  #@ predicate ev(n) = n == 0 or (n >= 2 and ev(n - 2));\n"


def post(check_id):
    return CHECK_FAILURE, {"check_id": check_id}


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
    # the assert's residual is woven as `#! check x / y >= 1 @c0 assert;`
    "check-div-zero": (
        "contract C:\n  #@ global G;\n  method m(x: uint64, y: uint64):\n"
        "    #@ requires ? and acc(G);\n    #@ ensures ? and acc(G);\n"
        "    #@ assert ? and x / y >= 1;\n    G := x;\n",
        [((1, 0), 0, 2, (ARITHMETIC_PANIC, {"kind": "div-zero", "line": 6})),
         ((2, 1), 1, 2, None),
         ((0, 1), 0, 2, (CHECK_FAILURE, {"check_id": "c0"}))]),
    "exit-div-zero": (
        "contract C:\n  #@ global G;\n  method m(x: uint64):\n"
        "    #@ requires ? and acc(G);\n    #@ ensures ? and acc(G) and G / x >= 1;\n"
        "    G := x;\n",
        [((0,), 1, 2, (ARITHMETIC_PANIC, {"kind": "div-zero", "line": 5})), ((1,), 1, 2, None)]),
    # a body of asserts only runs no statement
    "assert-only": (
        "contract C:\n  method m(x: uint64):\n    #@ requires ? and x <= 5;\n"
        "    #@ ensures ?;\n    #@ assert x <= 5;\n",
        [((3,), 0, 1, None), ((7,), 0, 1, pre("x <= 5", 3))]),
    # the write's residual is woven as `#! check acc(G) @c0 access;`
    "check-acc": (
        "contract C:\n  #@ global G;\n  method m(x: uint64):\n    #@ requires ?;\n"
        "    #@ ensures ?;\n    G := x;\n",
        [((0,), 1, 1, None), ((3,), 1, 1, None)]),
    "exit-old-result": (
        "contract C:\n  #@ global G;\n  method m(x: uint64) -> uint64:\n"
        "    #@ requires acc(G);\n"
        "    #@ ensures acc(G) and G == old(G) + x and result == old(G) + 1;\n"
        "    y := G;\n    G := y + x;\n    return y + 1;\n",
        [((0,), 3, 1, None), ((4,), 3, 1, None)]),
    # an unproven ensures reading old(...) and result is woven as
    # `#! exit result >= old(G) + 1 @c0 postcondition;` and always runs
    "exit-old-result-residual": (
        "contract C:\n  #@ global G;\n  method m(x: uint64) -> uint64:\n"
        "    #@ requires ? and acc(G);\n    #@ ensures acc(G) and result >= old(G) + 1;\n"
        "    y := G;\n    G := y + x;\n    return y + x;\n",
        [((0,), 3, 2, post("c0")), ((4,), 3, 2, None)]),
    # the argument is evaluated before the predicate call is charged
    "instance-div-zero": (
        SHAPE.format(preds="  #@ predicate p(n) = n <= 5;\n", req="p(10 / x)"),
        [((0,), 0, 0, (ARITHMETIC_PANIC, {"kind": "div-zero", "line": 5})),
         ((1,), 0, 2, pre("p(10 / x)", 5)), ((2,), 1, 3, None)]),
    # the call and the comparison are charged before the body's operands
    "body-div-zero": (
        SHAPE.format(preds="  #@ predicate q(n, d) = n / d <= 5;\n", req="q(10, x)"),
        [((0,), 0, 2, (ARITHMETIC_PANIC, {"kind": "div-zero", "line": 3})),
         ((1,), 0, 2, pre("q(10, x)", 5)), ((2,), 1, 3, None)]),
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


CROSS = """contract V:
  #@ global G;
  method take(x: uint64):
    #@ requires acc(G) and G >= x and x <= 9;
    #@ ensures acc(G) and G + x >= x;
    G := G - x;

contract S:
  method buy(x: uint64):
    #@ requires ?;
    #@ ensures ?;
    call V.take(x);
"""
# the residual of inner's `G >= 4` is woven as `#! exit G >= 4 @c0 postcondition;`
SAME = """contract C:
  #@ global G;
  method outer(x: uint64):
    #@ requires ? and acc(G);
    #@ ensures ? and acc(G);
    call C.inner(3);
    G := G + x;
  method inner(x: uint64):
    #@ requires ? and acc(G) and x <= 5;
    #@ ensures ? and acc(G) and G >= 4;
    G := G + x;
"""
# outer's {callee} ends by handing G back, and outer then writes it
HANDED_BACK = """contract C:
  #@ global G;
  method outer(x: uint64):
    #@ requires acc(G);
    #@ ensures acc(G);
    call C.{callee}(x);
    G := x;
  method inner(x: uint64):
    #@ requires acc(G);
    #@ ensures acc(G);
    G := x + 1;
  method peek(x: uint64):
    #@ requires ?;
    #@ ensures ?;
    y := G + x;
"""
# inner's ensures does not return G, so Vm.call frees it as inner returns,
# and outer's woven `#! check acc(G) @c0 access;` borrows it again
NOT_RETURNED = """contract C:
  #@ global G;
  method outer(x: uint64):
    #@ requires ? and acc(G);
    #@ ensures ?;
    call C.inner(x);
    G := x;
  method inner(x: uint64):
    #@ requires acc(G);
    #@ ensures true;
    G := x + 1;
"""
SELL = (CORPUS / "sell.gcl").read_text(encoding="utf-8")


# call protocol shapes: (source, [(transaction, initial ledger, gas limit,
# protected outcome, unprotected outcome)]), an outcome being (exec_gas,
# check_gas, (reason, detail) of a revert or None).  A callee's entry rows
# and requires acc slots are evaluated and charged only across a contract
# boundary (or at the top level); its exit rows, each a residual, always run.
# An unprotected image, on which each unprotected outcome runs, compiles no
# row, check or acc slot, so none is evaluated or charged.
PROTOCOL_SHAPES = {
    "cross-contract": (CROSS, [
        (tx("S", "buy", 2), {"V": {"G": 5}}, None, (2, 3, None), (2, 0, None)),
        (tx("V", "take", 2), {"V": {"G": 5}}, None, (1, 3, None), (1, 0, None)),
        # a verified caller's failing foreign precondition blames the call
        (tx("S", "buy", 7), {"V": {"G": 5}}, None, (1, 1, pre("G >= x", 12)),
         (2, 0, (ARITHMETIC_PANIC, {"kind": "underflow", "line": 6}))),
        (tx("V", "take", 7), {"V": {"G": 5}}, None, (0, 1, pre("G >= x", 4)),
         (1, 0, (ARITHMETIC_PANIC, {"kind": "underflow", "line": 6})))]),
    "same-contract": (SAME, [
        (tx("C", "outer", 1), {"C": {"G": 1}}, None, (3, 2, None), (3, 0, None)),
        (tx("C", "outer", 1), {"C": {"G": 0}}, None, (2, 2, post("c0")),
         (3, 0, None)),
        (tx("C", "inner", 3), {"C": {"G": 0}}, None, (1, 3, post("c0")),
         (1, 0, None)),
        (tx("C", "inner", 6), {"C": {"G": 0}}, None, (0, 1, pre("x <= 5", 9)), (1, 0, None))]),
    "foreign-precise": (FOREIGN_PRECISE, [
        (tx("Shop", "buy"), {"Vault": {"Count": 0}}, None, (1, 1, pre("Count >= 1", 12)),
         (2, 0, (ARITHMETIC_PANIC, {"kind": "underflow", "line": 6}))),
        (tx("Shop", "buy"), {"Vault": {"Count": 1}}, None, (2, 2, None), (2, 0, None))]),
    # the row quantity >= 0 takes the limit, and the acc(Count) charge passes it
    "gas-on-requires-acc": (SELL, [
        (tx("Counter", "sell", 1), {"Counter": {"Count": 5}}, 1,
         (0, 2, (GAS_EXHAUSTED, {"kind": GAS_EXHAUSTED})),
         (2, 0, (GAS_EXHAUSTED, {"kind": GAS_EXHAUSTED}))),
        (tx("Counter", "sell", 1), {"Counter": {"Count": 5}}, 2,
         (1, 2, (GAS_EXHAUSTED, {"kind": GAS_EXHAUSTED})), (2, 0, None))]),
    "ensures-acc-handed-back": (HANDED_BACK.format(callee="inner"), [
        (tx("C", "outer", 4), {}, None, (3, 1, None), (3, 0, None))]),
    "requires-acc-not-returned": (NOT_RETURNED, [
        (tx("C", "outer", 1), {}, None, (3, 2, None), (3, 0, None))]),
    # peek's woven `#! check acc(G)` borrows G from outer, and its exit
    # returns it
    "borrowed-and-returned": (HANDED_BACK.format(callee="peek"), [
        (tx("C", "outer", 4), {"C": {"G": 2}}, None, (3, 2, None), (3, 0, None)),
        (tx("C", "peek", 4), {"C": {"G": 2}}, None, (1, 1, None), (1, 0, None))]),
}


@pytest.mark.parametrize("name", PROTOCOL_SHAPES)
def test_call_protocol_gas_and_reverts_are_pinned(name):
    source, cases = PROTOCOL_SHAPES[name]
    program, _ = load_source(source, f"{name}.gcl")
    woven = weave(program, verify_program(program))
    images = {protected: load_program(woven, protected=protected) for protected in (True, False)}
    for t, init, gas_limit, *outcomes in cases:
        for protected, (exec_gas, check_gas, revert) in zip((True, False), outcomes):
            image = images[protected]
            vm = Vm(image, Ledger(image.program, init))
            out = vm.exec_transaction(t, gas_limit)
            assert (out.exec_gas, out.check_gas) == (exec_gas, check_gas), (t, protected)
            assert (out.reason, out.detail) == (revert or (None, {})), (t, protected)
            assert vm.perm == {}
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
        # without an adversary source load_program re-checks nothing, so the
        # emitter itself refuses a program built without the parser whose
        # body holds a spec expression
        program, _ = load_source("contract C:\n  #@ global G;\n  method m(x: uint64):\n"
                                 "    #@ requires ?;\n    #@ ensures ?;\n    y := x;\n", "b.gcl")
        [c] = program.contracts
        [m] = c.methods
        [s] = m.body
        body = (dataclasses.replace(s, expr=Old("G", s.expr.loc)),)
        built = Program((dataclasses.replace(c, methods=(dataclasses.replace(m, body=body),)),))
        with pytest.raises(VmLoadError, match="^b.gcl:6:10: not a program expression$"):
            load_program((built, {}))

    def test_load_without_an_adversary_checks_nothing_again(self, monkeypatch):
        # no-op bodies are well-formed by construction, so a program merged
        # with no adversary source is loaded as the weaver made it
        woven = []
        for path in corpus_files(CORPUS):
            program, _ = load_file(path)
            if not corpus_adversaries(path, program):
                woven.append(weave(program, verify_program(program)))

        def refuse(*args):
            raise AssertionError("the program was checked again")
        monkeypatch.setattr(gvc.vm, "infer_types", refuse)
        monkeypatch.setattr(gvc.vm, "resolve", refuse)
        monkeypatch.setattr(gvc.frontend, "well_formed_program", refuse)
        assert len(woven) == 17
        for ip in woven:
            load_program(ip)

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
        image = make_image("bank.gcl", protected=protected)
        led = Ledger(image.program, {"Bank": {"Balance": 10}})
        return Vm(image, led), led

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

    def test_demo_script_runs_from_any_directory(self, tmp_path):
        # the script finds gvc and the corpus from its own location
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        run = subprocess.run([sys.executable, str(ROOT / "scripts" / "reentrancy_demo.py")],
                             cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-2:] == [
            "protected:   reverted (OwnershipFailure, slot Balance), Balance = 10",
            "unprotected: committed, Balance = 2 (withdrawn twice)"]

    def test_adversary_declaring_its_contract_twice_is_rejected(self):
        # which block would run is not for the loader to guess
        adversary = (CORPUS / "bank.adversary.gcl").read_text(encoding="utf-8")
        twice = "contract Attacker:\n  method notify(amount: uint64):\n    x := amount;\n\n" + adversary
        with pytest.raises(VmLoadError, match="adversary source defines contract Attacker twice"):
            make_image("bank.gcl", {"Attacker": twice})

    @pytest.mark.parametrize("name", OWNERSHIP_PREMISE)
    def test_a_frame_borrows_only_from_its_direct_caller(self, name):
        # the verifier keeps w's G across any call but one to a
        # same-contract callee entered imprecisely; that is sound only if q,
        # two calls below w, cannot take G.  Loaded unwoven, so q's write
        # itself tests ownership, not a woven `#! check acc(G)` before it
        source, adversary = OWNERSHIP_PREMISE[name]
        program, _ = load_source(source, f"{name}.gcl")
        image = load_program(program, adversary and {"A": adversary})
        led = Ledger(image.program, {"W": {"G": 1}})
        vm = Vm(image, led)
        out = vm.exec_transaction(tx("W", "w", 2))
        if name == "borrow-from-caller":
            assert out.committed and led.read("W", "G") == 2
        else:
            assert out.reason == OWNERSHIP_FAILURE
            assert (out.detail["slot"], out.detail["kind"], out.detail["line"]) == (
                "G", "access", 10 if name == "through-extern" else 14)
            assert led.read("W", "G") == 1
        assert vm.perm == {}
