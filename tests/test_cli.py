"""Command-line interface: exit codes and pipeline wiring."""

import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gvc.cli import (
    DEFAULT_GAS_LIMIT, EXIT_DISAGREEMENT, EXIT_OK, EXIT_REVERTED, EXIT_STATIC,
    EXIT_USAGE, main,
)
from gvc.frontend import corpus_files, load_file
from gvc.lang import UINT_MAX
from gvc.oracle import Oracle, Site, vm_site
from gvc.parser import MAX_NESTING
from gvc.verifier import verify_program
from gvc.vm import Ledger, Transaction, Vm, load_program
from gvc.weaver import check_map, weave

from conftest import CORPUS, FIXTURES, ROOT


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("GVC_COLOR", "0")


SELL = str(CORPUS / "sell.gcl")

# Escrow adds 1 to the value of the extern Feed.quote; OPAQUE_FEED is an
# adversary source for Feed whose quote has no body
QUOTE = ("contract Escrow:\n  #@ global Held;\n  method release():\n"
         "    #@ requires ? and acc(Held);\n    #@ ensures ? and acc(Held);\n"
         "    x := call Feed.quote();\n    Held := x + 1;\n\n"
         "extern contract Feed:\n  method quote() -> uint64:\n    opaque;\n")
OPAQUE_FEED = "{header} Feed:\n  method quote() -> uint64:\n    opaque;\n"


def one_method(body, requires="?", decls="", params="x: uint64"):
    """Source of contract C (globals G and H) with one method m."""
    return ("contract C:\n  #@ global G;\n  #@ global H;\n" + decls
            + f"  method m({params}):\n    #@ requires {requires};\n"
            + "    #@ ensures ?;\n" + body)


def nested_assignment(depth):
    """`y := x` with the right-hand side nested `depth` levels deep, once
    in parentheses and once as a `+` chain."""
    return {"parens": one_method("    y := " + "(" * depth + "x" + ")" * depth + ";\n"),
            "chain": one_method("    y := " + " + ".join(["x"] * (depth + 1)) + ";\n")}


def nested_spec(depth):
    """Specifications nested `depth` levels deep: a requires operand (a `+`
    chain), and a predicate body that m's requires instantiates, once an
    and/or tree (each level a parenthesis or an and/or) and once a chain of
    `not`.  Each holds for arguments below 100, and the and/or tree is
    evaluated down to its innermost comparison."""
    andor = "(n >= 0)" if depth % 2 else "n >= 0"
    for k in range(depth // 2):
        andor = f"n > {k + 100} or ({andor})" if k % 2 else f"n < {k + 100} and ({andor})"
    nots = "not " * depth + ("n > 1000" if depth % 2 else "n >= 0")
    chain = " + ".join(["x"] * (depth + 1))
    return {"requires": one_method("    y := x;\n", requires=f"? and {chain} >= 0"),
            **{shape: one_method("    y := x;\n", requires="? and p(x)",
                                 decls=f"  #@ predicate p(n) = {body};\n")
               for shape, body in (("and-or", andor), ("not", nots))}}


class TestVerify:
    def test_ok(self, capsys):
        assert main(["verify", SELL]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Counter.sell: verified-with-residuals (1 residual check(s))" in out
        assert "\x1b[" not in out

    def test_static_error(self, capsys):
        assert main(["verify", str(FIXTURES / "sell_strong.gcl")]) == EXIT_STATIC
        out = capsys.readouterr().out
        assert "static-error" in out
        assert "postcondition obligation" in out

    def test_missing_file(self, capsys):
        assert main(["verify", "no/such/file.gcl"]) == EXIT_USAGE

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # '²', Arabic-Indic 3
    def test_only_ascii_digits_start_a_literal(self, tmp_path, capsys, digit):
        src = tmp_path / "digit.gcl"
        src.write_text(one_method(f"    G := {digit};\n"), encoding="utf-8")
        assert main(["verify", str(src)]) == EXIT_STATIC
        assert f"unexpected character {digit!r}" in capsys.readouterr().out

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.gcl"
        bad.write_text("contract C\n")
        assert main(["verify", str(bad)]) == EXIT_STATIC

    @pytest.mark.parametrize("text", ["", "# only a comment\n"])
    @pytest.mark.parametrize("argv", [["verify"], ["weave", "--auto"], ["corpus"]])
    def test_program_without_contracts_is_blamed_on_its_file(self, tmp_path, capsys, text, argv):
        # no token to point at, so the error names the file's first line
        src = tmp_path / "e.gcl"
        src.write_text(text, encoding="utf-8")
        target = str(tmp_path) if argv == ["corpus"] else str(src)
        assert main(argv + [target]) == EXIT_STATIC
        assert f"{src}: {src}:1:1: expected at least one contract" in capsys.readouterr().out

    def test_spec_marker_in_predicate_body(self, tmp_path, capsys):
        src = tmp_path / "grew.gcl"
        src.write_text(
            "contract C:\n"
            "  #@ global G;\n"
            "  #@ predicate grew(n) = G >= old(G) + n;\n"
            "  method bump(n: uint64):\n"
            "    #@ requires acc(G);\n"
            "    #@ ensures acc(G) and grew(n);\n"
            "    G := G + n;\n")
        assert main(["verify", str(src)]) == EXIT_STATIC
        assert "grew.gcl:3:31: old(...) is only allowed in ensures" in capsys.readouterr().out

    @pytest.mark.parametrize("src,message", [
        # a parameter named like a global: resolve bound it to the global,
        # the VM and the oracle to the parameter
        (one_method("    H := G - 5;\n", "acc(G) and acc(H) and G >= 5", params="G: uint64"),
         "4:3: parameter G of method m shadows global G"),
        (one_method("    y := x;\n", decls="  #@ predicate p(G) = G >= 5;\n"),
         "4:3: parameter G of predicate p shadows global G"),
        (one_method("    y := x;\n", "p(x, 1)", "  #@ predicate p(n) = n >= 5;\n"
                    "  #@ predicate p(a, b) = a >= b;\n"),
         "5:3: duplicate predicate p in C"),
        (one_method("    y := x;\n") + "  method m():\n    y := 1;\n",
         "8:3: duplicate method m in C"),
        (one_method("    y := x;\n", decls="  #@ predicate p(n, n) = n >= 5;\n"),
         "4:3: duplicate parameter name in predicate p"),
        (one_method("    y := x;\n", params="x: uint64, x: uint64"),
         "4:3: duplicate parameter name in method m"),
    ], ids=["method-param-shadows-global", "predicate-param-shadows-global",
            "duplicate-predicate", "duplicate-method", "duplicate-predicate-param",
            "duplicate-method-param"])
    def test_each_name_declared_once(self, tmp_path, capsys, src, message):
        path = tmp_path / "names.gcl"
        path.write_text(src)
        assert main(["verify", str(path)]) == EXIT_STATIC
        out = capsys.readouterr().out
        assert f"names.gcl:{message}" in out
        assert "Traceback" not in out

    @pytest.mark.parametrize("src, message", [
        (one_method("    G := old(G) + 1;\n", "acc(G)"), "7:10: old(...) is only allowed in ensures"),
        (one_method("    y := result;\n"), "7:10: result is only allowed in ensures"),
        (one_method("    if old(G) > x:\n      y := 1;\n", "acc(G)"),
         "7:8: old(...) is only allowed in ensures"),
        (one_method("    while x < result:\n      y := 1;\n"),
         "7:15: result is only allowed in ensures"),
        (one_method("    call C.n(old(G));\n", "acc(G)") + "  method n(a: uint64):\n    y := a;\n",
         "7:14: old(...) is only allowed in ensures"),
    ], ids=["assignment", "result", "if-condition", "while-condition", "call-argument"])
    def test_spec_marker_in_body(self, tmp_path, capsys, src, message):
        path = tmp_path / "marker.gcl"
        path.write_text(src)
        assert main(["verify", str(path)]) == EXIT_STATIC
        assert f"marker.gcl:{message}" in capsys.readouterr().out

    @pytest.mark.parametrize("src, message", [
        (one_method("    i := 0;\n    while i < x:\n      #@ invariant ? and k >= 1;\n"
                    "      k := i;\n      i := i + 1;\n"), "9:26"),
        (one_method("    i := 0;\n    while i < x:\n      #@ invariant ? and k >= 0;\n"
                    "      k := i;\n      i := i + 1;\n"), "9:26"),
        (one_method("    #@ assert k >= 1;\n    k := x;\n"), "7:15"),
        (one_method("    #@ assert p(k);\n    k := x;\n", decls="  #@ predicate p(n) = n >= 1;\n"),
         "8:17"),
        (one_method("    #! check k >= 1 @c0 assert;\n    k := x;\n"), "7:14"),
    ], ids=["invariant", "invariant-no-residual", "assert", "assert-predicate", "check"])
    def test_spec_atom_reads_a_local_before_assignment(self, tmp_path, capsys, src, message):
        path = tmp_path / "unbound.gcl"
        path.write_text(src)
        assert main(["verify", str(path)]) == EXIT_STATIC
        assert f"unbound.gcl:{message}: local 'k' used before assignment" in capsys.readouterr().out

    @pytest.mark.parametrize("src, message", [
        (one_method("    if x < 18446744073709551616:\n      G := 1;\n", "acc(G)"), "7:12"),
        (one_method("    G := 1;\n", "acc(G)").replace(
            "ensures ?", "ensures acc(G) and G <= 18446744073709551616"), "6:32"),
    ], ids=["if-condition", "ensures"])
    def test_literal_past_uint64_is_a_static_error(self, tmp_path, capsys, src, message):
        path = tmp_path / "big.gcl"
        path.write_text(src)
        assert main(["verify", str(path)]) == EXIT_STATIC
        assert f"big.gcl:{message}: integer literal out of uint64 range" in capsys.readouterr().out

    @pytest.mark.parametrize("orelse, code, message", [
        ("      return 1;\n", EXIT_OK, "C.m: verified"),
        ("      y := 1;\n", EXIT_STATIC,
         "ret.gcl:4:3: method m may fall off the end without returning a value"),
    ], ids=["both-branches-return", "branch-falls-off"])
    def test_a_returning_method_returns_on_every_path(self, tmp_path, capsys, orelse, code, message):
        path = tmp_path / "ret.gcl"
        path.write_text(one_method("    if x < 5:\n      return 0;\n    else:\n" + orelse).replace(
            "m(x: uint64):", "m(x: uint64) -> uint64:"))
        assert main(["verify", str(path)]) == code
        assert message in capsys.readouterr().out

    def test_parse_error_at_its_real_location(self, tmp_path, capsys):
        src = tmp_path / "leaf.gcl"
        src.write_text(one_method("    if x + > 1:\n      y := x;\n    else:\n      y := 0;\n"))
        assert main(["verify", str(src)]) == EXIT_STATIC
        assert "leaf.gcl:7:12: expected expression, found '>'" in capsys.readouterr().out

    @pytest.mark.parametrize("shape,depth", [("parens", 3000), ("chain", 20000)])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys, shape, depth):
        src = tmp_path / "deep.gcl"
        src.write_text(nested_assignment(depth)[shape])
        assert main(["verify", str(src)]) == EXIT_STATIC
        assert f"nesting deeper than {MAX_NESTING} levels" in capsys.readouterr().out

    @pytest.mark.parametrize("shape", ["parens", "chain", "requires", "and-or", "not"])
    def test_nesting_limit_is_exact(self, tmp_path, capsys, shape):
        def nested(depth):
            return {**nested_assignment(depth), **nested_spec(depth)}[shape]

        over = tmp_path / "over.gcl"
        over.write_text(nested(MAX_NESTING + 1))
        assert main(["verify", str(over)]) == EXIT_STATIC
        assert f"nesting deeper than {MAX_NESTING} levels" in capsys.readouterr().out
        (tmp_path / "limit").mkdir()
        at = tmp_path / "limit" / "at.gcl"
        at.write_text(nested(MAX_NESTING))
        txs = tmp_path / "txs.jsonl"
        txs.write_text('{"contract": "C", "method": "m", "args": [3]}\n')
        woven = str(tmp_path / "at.woven.gcl")
        assert main(["verify", str(at)]) == EXIT_OK
        assert main(["weave", str(at), "--auto", "-o", woven]) == EXIT_OK
        assert main(["run", woven, "--txs", str(txs)]) == EXIT_OK
        assert main(["corpus", str(tmp_path / "limit"), "--bound", "1"]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().out

    def test_block_nesting_counts(self, tmp_path, capsys):
        # each `if` or `while` body is one level: the innermost command under
        # MAX_NESTING nested bodies runs through every command; one more
        # body is a parse error at that command
        def nested(shape, depth):
            if shape == "if":
                first, heads, last = "", ["if x > 0:"], "G := x;"
            else:
                first, last = "    i := x;\n", "i := 0;"
                heads = ["while i > 0:", "  #@ invariant ?;"]
            opens = "".join("    " + "  " * i + h + "\n" for i in range(depth) for h in heads)
            return one_method(first + opens + "    " + "  " * depth + last + "\n")

        txs = tmp_path / "txs.jsonl"
        txs.write_text('{"contract": "C", "method": "m", "args": [3]}\n')
        for shape in ("if", "while"):
            over = tmp_path / f"{shape}_over.gcl"
            over.write_text(nested(shape, MAX_NESTING + 1))
            assert main(["verify", str(over)]) == EXIT_STATIC
            last, col = len(over.read_text().splitlines()), 5 + 2 * (MAX_NESTING + 1)
            assert (f"{over.name}:{last}:{col}: nesting deeper than "
                    f"{MAX_NESTING} levels") in capsys.readouterr().out
            (tmp_path / shape).mkdir()
            at = tmp_path / shape / "at.gcl"
            at.write_text(nested(shape, MAX_NESTING))
            woven = str(tmp_path / f"{shape}_at.woven.gcl")
            assert main(["verify", str(at)]) == EXIT_OK
            assert main(["weave", str(at), "--auto", "-o", woven]) == EXIT_OK
            assert main(["run", woven, "--txs", str(txs)]) == EXIT_OK
            assert main(["corpus", str(tmp_path / shape), "--bound", "1"]) == EXIT_OK
            assert "Traceback" not in capsys.readouterr().out

    def test_report_written(self, tmp_path, capsys):
        rep = tmp_path / "report.json"
        assert main(["verify", SELL, "--report", str(rep)]) == EXIT_OK
        doc = json.loads(rep.read_text())
        assert doc["methods"][0]["status"] == "verified-with-residuals"

    def test_prover_stats(self, capsys):
        assert main(["verify", SELL, "--prover-stats"]) == EXIT_OK
        assert ("prover: {'queries': 2, 'proved': 1, 'disproved': 0, 'unknown': 1}"
                in capsys.readouterr().out)

    def test_vacuous_precondition_warns(self, tmp_path, capsys):
        src = tmp_path / "vacuous.gcl"
        src.write_text(one_method("    y := x;\n", requires="acc(G) and x >= 2 and x <= 1"))
        assert main(["verify", str(src)]) == EXIT_OK
        assert ("warning: precondition of m is unsatisfiable; the method verifies vacuously"
                in capsys.readouterr().out)


class TestWeave:
    def test_auto(self, tmp_path, capsys):
        out = tmp_path / "sell.woven.gcl"
        code = main(["weave", SELL, "--auto", "-o", str(out)])
        assert code == EXIT_OK
        # the woven text is the one file written, and each check names its kind
        assert "#! check scratch >= quantity @c0 underflow;" in out.read_text()
        assert [p.name for p in tmp_path.iterdir()] == ["sell.woven.gcl"]
        assert capsys.readouterr().out == f"woven 1 residual check(s) -> {out}\n"

    def test_two_step_with_report(self, tmp_path, capsys):
        rep = tmp_path / "report.json"
        assert main(["verify", SELL, "--report", str(rep)]) == EXIT_OK
        out = tmp_path / "w.gcl"
        assert main(["weave", SELL, "--report", str(rep),
                     "-o", str(out)]) == EXIT_OK

    def test_stale_report(self, tmp_path, capsys):
        rep = tmp_path / "report.json"
        assert main(["verify", str(CORPUS / "loop.gcl"),
                     "--report", str(rep)]) == EXIT_OK
        code = main(["weave", SELL, "--report", str(rep),
                     "-o", str(tmp_path / "w.gcl")])
        assert code == EXIT_USAGE
        assert "stale report" in capsys.readouterr().out

    def test_missing_report(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(["weave", SELL, "--report", str(missing), "-o", str(tmp_path / "w.gcl")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().out.startswith(f"cannot read report {missing}:")

    def test_requires_report_or_auto(self, tmp_path, capsys):
        assert main(["weave", SELL, "-o", str(tmp_path / "w.gcl")]) == EXIT_USAGE

    def test_refuses_static_error(self, tmp_path, capsys):
        code = main(["weave", str(FIXTURES / "sell_strong.gcl"), "--auto",
                     "-o", str(tmp_path / "w.gcl")])
        assert code == EXIT_STATIC
        assert capsys.readouterr().out == "refusing to weave: static errors in sell\n"

    def test_woven_text_weaves_to_itself(self, tmp_path, capsys):
        woven, again = tmp_path / "w.gcl", tmp_path / "w2.gcl"
        assert main(["weave", str(CORPUS / "quote.gcl"), "--auto", "-o", str(woven)]) == EXIT_OK
        capsys.readouterr()
        # each woven check is assumed where it stands, so nothing is left
        assert main(["verify", str(woven)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("residual check(s)") == out.count("(0 residual check(s))") == 3
        assert main(["weave", str(woven), "--auto", "-o", str(again)]) == EXIT_OK
        assert again.read_text() == woven.read_text()

    def test_residual_id_already_woven_is_refused(self, tmp_path, capsys):
        # without its check on `unit`, the woven text re-verifies with one
        # residual, numbered c0 like the woven check on `qty`
        woven = tmp_path / "w.gcl"
        assert main(["weave", str(CORPUS / "quote.gcl"), "--auto", "-o", str(woven)]) == EXIT_OK
        woven.write_text(woven.read_text().replace("    #! check unit <= 100 @c1 precondition;\n", ""))
        capsys.readouterr()
        code = main(["weave", str(woven), "--auto", "-o", str(tmp_path / "w2.gcl")])
        assert code == EXIT_STATIC
        assert capsys.readouterr().out == (
            "refusing to weave: check id c0 is already woven into the program\n")


class TestRun:
    def _woven(self, tmp_path, src=SELL):
        out = tmp_path / "w.gcl"
        assert main(["weave", src, "--auto", "-o", str(out)]) == EXIT_OK
        return str(out)

    def _ledger(self, tmp_path, init):
        p = tmp_path / "ledger.json"
        p.write_text(json.dumps(init))
        return str(p)

    def test_commits(self, tmp_path, capsys):
        woven = self._woven(tmp_path)
        code = main(["run", woven, "--txs", str(CORPUS / "sell.txs.jsonl"),
                     "--ledger", self._ledger(tmp_path, {"Counter": {"Count": 10}})])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("committed") == 3
        assert '"Count": 1' in out

    def test_revert_exit_code_and_message(self, tmp_path, capsys):
        woven = self._woven(tmp_path)
        txs = tmp_path / "txs.jsonl"
        txs.write_text('{"contract": "Counter", "method": "sell", "args": [12]}\n')
        code = main(["run", woven, "--txs", str(txs),
                     "--ledger", self._ledger(tmp_path, {"Counter": {"Count": 10}})])
        assert code == EXIT_REVERTED
        assert "reverted CheckFailure check c0 (underflow) at line 8" in capsys.readouterr().out

    @pytest.mark.parametrize("woven", [True, False], ids=["woven-text", "source"])
    def test_failed_check_blames_the_line_it_guards(self, tmp_path, capsys, woven):
        # a woven text's check stands on its own `#!` line: the revert blames
        # the store it guards, as weaver.check_map and the oracle do
        src = self._woven(tmp_path) if woven else SELL
        txs = tmp_path / "txs.jsonl"
        txs.write_text('{"contract": "Counter", "method": "sell", "args": [12]}\n')
        init = {"Counter": {"Count": 10}}
        capsys.readouterr()
        assert main(["run", src, "--txs", str(txs),
                     "--ledger", self._ledger(tmp_path, init)]) == EXIT_REVERTED
        printed = int(re.search(r"check c0 \(underflow\) at line (\d+)",
                                capsys.readouterr().out).group(1))
        program, _ = load_file(src)
        ip = weave(program, verify_program(program))
        judgment = Oracle(program).judge(init, Transaction("Counter", "sell", (12,)))
        assert printed == check_map(ip.program)["c0"]["line"] == judgment.site.line
        assert printed == (8 if woven else 7)

    def test_exit_row_without_an_ensures_line_blames_its_own_line(self, tmp_path, capsys):
        # branching's woven text with its ensures line deleted: the exit row
        # blames its own `#! exit` line (5), in the printed revert and in the
        # site the oracle compares
        woven = Path(self._woven(tmp_path, str(CORPUS / "branching.gcl")))
        text = "".join(l for l in woven.read_text().splitlines(keepends=True)
                       if "#@ ensures" not in l)
        woven.write_text(text)
        txs = tmp_path / "txs.jsonl"
        txs.write_text('{"contract": "Gate", "method": "set", "args": [0]}\n')
        capsys.readouterr()
        assert main(["run", str(woven), "--txs", str(txs)]) == EXIT_REVERTED
        assert ("tx 0: reverted CheckFailure check c0 (postcondition) at line 5 "
                in capsys.readouterr().out)
        program, _ = load_file(woven)
        image = load_program(program)
        out = Vm(image, Ledger(image.program)).exec_transaction(Transaction("Gate", "set", (0,)))
        assert vm_site(out, image.checks) == Site("postcondition", 5)

    def test_program_that_does_not_verify_is_refused(self, tmp_path, capsys):
        # the VM takes an ensures atom without an exit row as proved, so
        # sell_strong (whose `ensures Count >= 1` does not verify) would
        # commit sell(3) from Count 3 at Count 0: it does not run at all
        txs = tmp_path / "txs.jsonl"
        txs.write_text('{"contract": "Counter", "method": "sell", "args": [3]}\n')
        src = FIXTURES / "sell_strong.gcl"
        code = main(["run", str(src), "--txs", str(txs),
                     "--ledger", self._ledger(tmp_path, {"Counter": {"Count": 3}})])
        assert code == EXIT_STATIC
        assert capsys.readouterr().out == (
            f"cannot run {src}: refusing to weave: static errors in sell\n")

    @pytest.mark.parametrize("edit", ["", "    #! exit Level >= 1 @c0 postcondition;\n"],
                             ids=["as-woven", "exit-row-deleted"])
    def test_woven_text_runs_what_it_leaves_unproven(self, tmp_path, capsys, edit):
        # `gvc run` re-verifies a woven text and weaves back a residual that
        # a hand edit dropped; the exit row blames the ensures line either way
        woven = tmp_path / "w.gcl"
        woven.write_text(Path(self._woven(tmp_path, str(CORPUS / "branching.gcl")))
                         .read_text().replace(edit, ""))
        txs = tmp_path / "txs.jsonl"
        txs.write_text('{"contract": "Gate", "method": "set", "args": [0]}\n')
        assert main(["run", str(woven), "--txs", str(txs)]) == EXIT_REVERTED
        assert ("tx 0: reverted CheckFailure check c0 (postcondition) at line 5 "
                "exec_gas=2 check_gas=2") in capsys.readouterr().out

    def test_edited_woven_text_needing_a_woven_id_is_refused(self, tmp_path, capsys):
        # without its check on `unit`, the woven text re-verifies with one
        # residual numbered c0 like the woven check on `qty`: it does not run
        woven = tmp_path / "w.gcl"
        assert main(["weave", str(CORPUS / "quote.gcl"), "--auto", "-o", str(woven)]) == EXIT_OK
        woven.write_text(woven.read_text().replace("    #! check unit <= 100 @c1 precondition;\n", ""))
        capsys.readouterr()
        assert main(["run", str(woven)]) == EXIT_STATIC
        assert capsys.readouterr().out == (
            f"cannot run {woven}: refusing to weave: check id c0 is already woven into the program\n")

    def test_gas_limit(self, tmp_path, capsys):
        woven = self._woven(tmp_path)
        code = main(["run", woven, "--txs", str(CORPUS / "sell.txs.jsonl"),
                     "--ledger", self._ledger(tmp_path, {"Counter": {"Count": 10}}),
                     "--gas-limit", "3"])
        assert code == EXIT_REVERTED
        assert "GasExhausted" in capsys.readouterr().out

    def test_endless_loop_reverts_without_gas_limit(self, tmp_path):
        # without --gas-limit the default limit ends the loop: GasExhausted,
        # exit 3, instead of a command that never returns
        src = tmp_path / "spin.gcl"
        src.write_text(one_method("    k := x;\n    while k >= 0:\n"
                                  "      #@ invariant ?;\n      k := k + 0;\n"))
        txs = tmp_path / "spin.txs.jsonl"
        txs.write_text('{"contract": "C", "method": "m", "args": [1]}\n')
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), GVC_COLOR="0")
        run = subprocess.run([sys.executable, "-m", "gvc.cli", "run", str(src), "--txs", str(txs)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == EXIT_REVERTED, run.stderr
        assert (f"tx 0: reverted GasExhausted exec_gas={DEFAULT_GAS_LIMIT + 1} check_gas=0"
                in run.stdout)

    def test_deep_recursion_reverts(self, tmp_path, capsys):
        # a method calling itself 5000 deep stops at the call-depth cap with
        # a revert, exit 3, instead of a RecursionError traceback
        src = tmp_path / "down.gcl"
        src.write_text("contract C:\n  method down(n: uint64):\n    #@ requires ?;\n"
                       "    #@ ensures ?;\n    if n > 0:\n      call C.down(n - 1);\n")
        txs = tmp_path / "down.txs.jsonl"
        txs.write_text('{"contract": "C", "method": "down", "args": [5000]}\n')
        assert main(["run", str(src), "--txs", str(txs)]) == EXIT_REVERTED
        assert "tx 0: reverted CallDepthExceeded" in capsys.readouterr().out

    def test_recursion_under_nested_blocks_reverts(self, tmp_path, capsys):
        # each call is charged its call site's block depth, so a method
        # recursing from under seven nested ifs stops at the call-depth cap
        # instead of in a RecursionError
        body = "".join(f"{'  ' * (2 + k)}if n > 0:\n" for k in range(7))
        src = tmp_path / "down.gcl"
        src.write_text("contract C:\n  method down(n: uint64):\n    #@ requires ?;\n"
                       "    #@ ensures ?;\n" + body + f"{'  ' * 9}call C.down(n - 1);\n")
        txs = tmp_path / "down.txs.jsonl"
        txs.write_text('{"contract": "C", "method": "down", "args": [60]}\n')
        assert main(["run", str(src), "--txs", str(txs)]) == EXIT_REVERTED
        assert "tx 0: reverted CallDepthExceeded" in capsys.readouterr().out

    def test_spec_expression_in_body_is_a_static_error(self, tmp_path, capsys):
        src = tmp_path / "old.gcl"
        src.write_text(one_method("    if x > 5:\n      y := old(G);\n"))
        txs = tmp_path / "old.txs.jsonl"
        txs.write_text('{"contract": "C", "method": "m", "args": [1]}\n')
        assert main(["run", str(src), "--txs", str(txs)]) == EXIT_STATIC
        assert "old.gcl:8:12: old(...) is only allowed in ensures" in capsys.readouterr().out

    @pytest.mark.parametrize("body, message", [
        ("    #! check old(G) <= 5 @c0 assert;\n    return x;\n", "old(...) is only allowed in ensures"),
        ("    #! check result <= 5 @c0 assert;\n    return x;\n", "result is only allowed in ensures"),
    ], ids=["old", "result"])
    def test_spec_marker_in_a_check_is_a_static_error(self, tmp_path, capsys, body, message):
        src = tmp_path / "chk.gcl"
        src.write_text(one_method(body, "acc(G)").replace("m(x: uint64):", "m(x: uint64) -> uint64:"))
        txs = tmp_path / "chk.txs.jsonl"
        txs.write_text('{"contract": "C", "method": "m", "args": [1]}\n')
        assert main(["run", str(src), "--txs", str(txs)]) == EXIT_STATIC
        out = capsys.readouterr().out
        assert f"chk.gcl:7:14: {message}" in out and "Traceback" not in out

    @pytest.mark.parametrize("row, message", [
        ("exit nope(1) @c0 postcondition", "6:13: unknown predicate 'nope'"),
        ("exit Zq >= 1 @c0 postcondition", "6:13: unresolved name 'Zq' in specification"),
        # a woven text holds `#! exit` rows only, each tagged with its id and
        # the kind of obligation it guards
        ("entry old(Count) >= 1 @c0 postcondition",
         "6:8: expected 'check' after '#!' in statement position"),
        ("exit Count >= 1", "6:23: expected '@'"),
        ("exit Count >= 1 @c1", "6:24: expected an obligation kind after @c1, found ';'"),
        ("check Count >= 1 @c1", "6:25: expected an obligation kind after @c1, found ';'"),
        ("exit Count >= 1 @c1 overflow", "6:24: expected an obligation kind after @c1, found 'overflow'"),
        ("check Count >= 1 @c1 loop invariant",
         "6:25: expected an obligation kind after @c1, found 'loop'"),
    ], ids=["unknown-predicate", "unbound-name", "old-at-entry", "untagged", "exit-without-kind",
            "check-without-kind", "unknown-kind", "kind-without-dash"])
    def test_bad_boundary_row_is_a_static_error(self, tmp_path, capsys, row, message):
        woven = Path(self._woven(tmp_path))
        lines = woven.read_text().splitlines(keepends=True)
        lines.insert(5, f"    #! {row};\n")  # after the ensures
        woven.write_text("".join(lines))
        code = main(["run", str(woven), "--txs", str(CORPUS / "sell.txs.jsonl")])
        out = capsys.readouterr().out
        assert code == EXIT_STATIC
        assert f"w.gcl:{message}" in out and "Traceback" not in out

    def test_adversary_and_unprotected(self, tmp_path, capsys):
        woven = self._woven(tmp_path, str(CORPUS / "bank.gcl"))
        adv = f"Attacker={CORPUS / 'bank.adversary.gcl'}"
        led = self._ledger(tmp_path, {"Bank": {"Balance": 10}})
        base = ["run", woven, "--txs", str(CORPUS / "bank.txs.jsonl"),
                "--ledger", led, "--adversary", adv]
        assert main(base) == EXIT_REVERTED
        assert "OwnershipFailure" in capsys.readouterr().out
        assert main(base + ["--unprotected"]) == EXIT_OK
        assert '"Balance": 2' in capsys.readouterr().out

    @pytest.mark.parametrize("adversary, message", [
        (None, "--adversary expects NAME=path, got 'Attacker'"),
        ("contract Attacker:\n  method other(amount: uint64):\n    x := amount;\n",
         "cannot load program: adversary Attacker lacks method notify"),
        ("contract Attacker:\n  method notify(amount: uint64):\n    call Nope.f();\n",
         "cannot load program: <adversary Attacker>:3:5: call to unknown contract 'Nope'"),
        ("contract Attacker:\n  method notify(amount: uint64):\n    x := amount;\n\n"
         + (CORPUS / "bank.adversary.gcl").read_text(encoding="utf-8"),
         "cannot load program: adversary source defines contract Attacker twice"),
        # an adversary's rows arrive on its method, which runs as an extern one
        ("contract Attacker:\n  method notify(amount: uint64):\n"
         "    #! exit amount >= 1 @c9 postcondition;\n    x := amount;\n",
         "cannot load program: <adversary Attacker>:3:13: "
         "extern method Attacker.notify may not carry `#! exit` rows"),
    ], ids=["no-path", "lacks-method", "unknown-callee", "declared-twice", "exit-row"])
    def test_bad_adversary_is_a_usage_error(self, tmp_path, capsys, adversary, message):
        woven = self._woven(tmp_path, str(CORPUS / "bank.gcl"))
        capsys.readouterr()
        arg = "Attacker"
        if adversary is not None:
            path = tmp_path / "adversary.gcl"
            path.write_text(adversary)
            arg += f"={path}"
        assert main(["run", woven, "--adversary", arg]) == EXIT_USAGE
        assert capsys.readouterr().out == message + "\n"

    def test_opaque_adversary_method_is_a_usage_error(self, tmp_path, capsys):
        # an opaque body would run as an empty one and hand None to `x + 1`
        (tmp_path / "quote.gcl").write_text(QUOTE, encoding="utf-8")
        woven = self._woven(tmp_path, str(tmp_path / "quote.gcl"))
        adversary = tmp_path / "quote.adversary.gcl"
        adversary.write_text(OPAQUE_FEED.format(header="contract"), encoding="utf-8")
        txs = tmp_path / "txs.jsonl"
        txs.write_text('{"contract": "Escrow", "method": "release", "args": [], '
                       '"sender": "external"}\n')
        capsys.readouterr()
        code = main(["run", woven, "--txs", str(txs), "--adversary", f"Feed={adversary}"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().out == "cannot load program: adversary Feed.quote has no body\n"

    @pytest.mark.parametrize("name", ["Attackr", "Bank"], ids=["misspelled", "verified-contract"])
    def test_adversary_naming_no_extern_contract_is_a_usage_error(self, tmp_path, capsys, name):
        # the extern Attacker would keep its no-op body and the attack commit
        woven = self._woven(tmp_path, str(CORPUS / "bank.gcl"))
        capsys.readouterr()
        code = main(["run", woven, "--txs", str(CORPUS / "bank.txs.jsonl"),
                     "--ledger", self._ledger(tmp_path, {"Bank": {"Balance": 10}}),
                     "--adversary", f"{name}={CORPUS / 'bank.adversary.gcl'}"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().out == (
            f"cannot load program: adversary {name} names no extern contract\n")

    @pytest.mark.parametrize("init", [
        {"Counter": {"Count": -5}, "Ghost": {"X": 1}},
        {"Ghost": {"X": 1}},
        {"Counter": {"Stock": 1}},
        {"Counter": {"Count": "7"}},
        {"Counter": {"Count": 7.5}},
        {"Counter": {"Count": UINT_MAX + 1}},
    ], ids=["negative-and-unknown-contract", "unknown-contract", "unknown-slot",
            "string", "float", "above-uint64"])
    def test_malformed_ledger_rejected(self, tmp_path, capsys, init):
        code = main(["run", self._woven(tmp_path), "--txs", str(CORPUS / "sell.txs.jsonl"),
                     "--ledger", self._ledger(tmp_path, init)])
        assert code == EXIT_USAGE
        out = capsys.readouterr().out
        assert "bad ledger init:" in out and "final ledger" not in out

    @pytest.mark.parametrize("line,message", [
        ('[1, 2]', "malformed transaction script"),
        ('"x"', "malformed transaction script"),
        ('{"contract": "Counter", "method": "sell", "args": 5}', "malformed transaction script"),
        ('{"contract": ["Counter"], "method": "sell", "args": [1]}',
         "malformed transaction script"),
        ('{"contract": "Counter", "method": "sell", "args": [null]}', "bad transaction"),
        ('{"contract": "Counter", "method": "sell", "args": [1.9]}', "bad transaction"),
        ('{"contract": "Counter", "method": "sell", "args": [true]}', "bad transaction"),
        ('{"contract": "Counter", "method": "sell", "args": [1]}\n{"contract": "Counter", "method": "nope"}',
         "bad transaction: transaction 1: unknown method Counter.nope"),
    ], ids=["array", "string", "args-int", "contract-list", "arg-null", "arg-float", "arg-bool",
            "after-valid"])
    def test_malformed_script_rejected(self, tmp_path, capsys, line, message):
        txs = tmp_path / "txs.jsonl"
        txs.write_text(line + "\n")
        code = main(["run", self._woven(tmp_path), "--txs", str(txs),
                     "--ledger", self._ledger(tmp_path, {"Counter": {"Count": 10}})])
        assert code == EXIT_USAGE
        out = capsys.readouterr().out
        assert message in out and "final ledger" not in out

    def test_gas_report_file(self, tmp_path, capsys):
        woven = self._woven(tmp_path)
        gr = tmp_path / "gas.json"
        main(["run", woven, "--txs", str(CORPUS / "sell.txs.jsonl"),
              "--ledger", self._ledger(tmp_path, {"Counter": {"Count": 10}}),
              "--gas-report", str(gr)])
        doc = json.loads(gr.read_text())
        assert doc["totals"] == {"exec_gas": 6, "check_gas": 9}


class TestCorpus:
    def test_small_sample(self, tmp_path, capsys):
        for name in ("sell.gcl", "bank.gcl", "bank.adversary.gcl"):
            shutil.copy(CORPUS / name, tmp_path / name)
        code = main(["corpus", str(tmp_path), "--bound", "3",
                     "--erosion-bound", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "sell.gcl: ok" in out and "bank.gcl: ok" in out

    def test_woven_outputs_pass_as_their_sources_do(self, tmp_path, capsys):
        # each woven check names the obligation it guards, so the VM on a
        # re-loaded woven text blames the site the oracle judges in that text
        for path in corpus_files(CORPUS):
            assert main(["weave", str(path), "--auto", "-o", str(tmp_path / path.name)]) == EXIT_OK
        shutil.copy(CORPUS / "bank.adversary.gcl", tmp_path / "bank.adversary.gcl")
        capsys.readouterr()
        assert main(["corpus", str(CORPUS)]) == EXIT_OK
        expected = capsys.readouterr().out
        assert main(["corpus", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_runs_as_a_module(self, tmp_path):
        # `python -m gvc` runs the CLI from a checkout without an install
        shutil.copy(CORPUS / "sell.gcl", tmp_path / "sell.gcl")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), GVC_COLOR="0")
        run = subprocess.run([sys.executable, "-m", "gvc", "corpus", str(tmp_path)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == EXIT_OK, run.stderr
        assert run.stdout.startswith("sell.gcl: ok equivalence")
        assert run.stdout.endswith("1 program(s), 3 erosion(s) checked\n")

    def test_static_error_program(self, tmp_path, capsys):
        shutil.copy(FIXTURES / "sell_strong.gcl", tmp_path / "sell_strong.gcl")
        assert main(["corpus", str(tmp_path)]) == EXIT_STATIC
        assert "sell_strong.gcl: static-error" in capsys.readouterr().out

    def test_program_whose_check_id_clashes_is_a_static_error(self, tmp_path, capsys):
        # sell's one residual is numbered c0, which a hand-woven check holds
        text = (CORPUS / "sell.gcl").read_text(encoding="utf-8")
        (tmp_path / "sell.gcl").write_text(text.replace(
            "    scratch := Count;\n", "    #! check quantity >= 0 @c0 assert;\n    scratch := Count;\n"))
        assert main(["corpus", str(tmp_path)]) == EXIT_STATIC
        assert capsys.readouterr().out.startswith(
            "sell.gcl: static-error refusing to weave: check id c0 is already woven into the program\n")

    def test_empty_dir_warns(self, tmp_path, capsys):
        assert main(["corpus", str(tmp_path)]) == EXIT_OK
        assert "no corpus programs" in capsys.readouterr().out

    def test_not_a_directory(self, capsys):
        assert main(["corpus", "no/such/dir"]) == EXIT_USAGE

    def test_unloadable_woven_program_fails_without_traceback(self, tmp_path, capsys):
        # the adversary's notify does not match the extern signature, so the
        # woven program does not load
        shutil.copy(CORPUS / "bank.gcl", tmp_path / "bank.gcl")
        adversary = (CORPUS / "bank.adversary.gcl").read_text(encoding="utf-8")
        (tmp_path / "bank.adversary.gcl").write_text(
            adversary.replace("notify(amount: uint64)", "notify(amount: uint64, extra: uint64)"),
            encoding="utf-8")
        assert main(["corpus", str(tmp_path)]) == EXIT_DISAGREEMENT
        out = capsys.readouterr().out
        assert ("bank.gcl: FAIL cannot load the woven program: "
                "adversary Attacker.notify signature mismatch") in out

    def test_adversary_declaring_its_contract_twice_fails(self, tmp_path, capsys):
        shutil.copy(CORPUS / "bank.gcl", tmp_path / "bank.gcl")
        adversary = (CORPUS / "bank.adversary.gcl").read_text(encoding="utf-8")
        (tmp_path / "bank.adversary.gcl").write_text(
            "contract Attacker:\n  method notify(amount: uint64):\n    x := amount;\n\n"
            + adversary, encoding="utf-8")
        assert main(["corpus", str(tmp_path)]) == EXIT_DISAGREEMENT
        out = capsys.readouterr().out
        assert ("bank.gcl: FAIL cannot load the woven program: "
                "adversary source defines contract Attacker twice") in out

    @pytest.mark.parametrize("adversary", [
        "contract Feed2:\n  method ping():\n    return;\n",
        "# the contract Feed is left opaque\ncontract Feed2:\n  method ping():\n    return;\n",
    ], ids=["longer-name", "comment"])
    def test_adversary_maps_only_the_contracts_it_declares(self, tmp_path, capsys, adversary):
        # Feed has no adversary, so it keeps its no-op body; naming it in a
        # comment or as the prefix of another contract's name does not count
        havoc = (CORPUS / "extern_havoc.gcl").read_text(encoding="utf-8")
        (tmp_path / "feeds.gcl").write_text(
            havoc.replace("call Feed.ping();", "call Feed.ping();\n    call Feed2.ping();")
            + "\nextern contract Feed2:\n  method ping():\n    opaque;\n", encoding="utf-8")
        (tmp_path / "feeds.adversary.gcl").write_text(adversary, encoding="utf-8")
        assert main(["corpus", str(tmp_path)]) == EXIT_OK
        assert "feeds.gcl: ok" in capsys.readouterr().out

    def test_foreign_precondition_programs_pass(self, tmp_path, capsys):
        # calls into another contract's precondition: a foreign predicate
        # (cross_pred) and a callee global named like one of the caller's
        # (same_name)
        for name in ("cross_pred.gcl", "same_name.gcl"):
            shutil.copy(FIXTURES / name, tmp_path / name)
        assert main(["corpus", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cross_pred.gcl: ok" in out and "same_name.gcl: ok" in out

    def test_extern_global_its_adversary_lacks_fails_without_traceback(self, tmp_path, capsys):
        # the grid sets Feed.Q, which the merged program's Feed does not have
        havoc = (CORPUS / "extern_havoc.gcl").read_text(encoding="utf-8")
        (tmp_path / "havoc.gcl").write_text(
            havoc.replace("extern contract Feed:\n", "extern contract Feed:\n  #@ global Q;\n"),
            encoding="utf-8")
        (tmp_path / "havoc.adversary.gcl").write_text(
            "contract Feed:\n  #@ global R;\n  method ping():\n    R := 1;\n", encoding="utf-8")
        assert main(["corpus", str(tmp_path), "--bound", "1"]) == EXIT_DISAGREEMENT
        assert ("havoc.gcl: FAIL cannot load the woven program: unknown slot Feed.Q"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("header", ["contract", "extern contract"])
    def test_opaque_adversary_method_fails_without_traceback(self, tmp_path, capsys, header):
        # an `extern contract` header names the adversary as much as a plain one
        (tmp_path / "quote.gcl").write_text(QUOTE, encoding="utf-8")
        (tmp_path / "quote.adversary.gcl").write_text(OPAQUE_FEED.format(header=header),
                                                      encoding="utf-8")
        assert main(["corpus", str(tmp_path), "--bound", "1"]) == EXIT_DISAGREEMENT
        assert capsys.readouterr().out == (
            "quote.gcl: FAIL cannot load the woven program: adversary Feed.quote has no body\n"
            "1 program(s), 0 erosion(s) checked\n")

    def test_disagreement_fails(self, tmp_path, capsys, monkeypatch):
        # sell.gcl's woven program stands in for sell_precise.gcl's: its
        # woven check reverts where the oracle blames the precondition
        import gvc.weaver

        shutil.copy(CORPUS / "sell_precise.gcl", tmp_path / "sell_precise.gcl")
        weave = gvc.weaver.weave
        sell, _ = load_file(CORPUS / "sell.gcl")
        monkeypatch.setattr(gvc.weaver, "weave",
                            lambda program, report: weave(sell, verify_program(sell)))
        assert main(["corpus", str(tmp_path), "--bound", "2"]) == EXIT_DISAGREEMENT
        assert capsys.readouterr().out.startswith(
            "sell_precise.gcl: FAIL equivalence 9 case(s), 3 disagreement(s); ")


@pytest.mark.parametrize("argv", [
    ["corpus", str(CORPUS), "--bound", "-1"],
    ["corpus", str(CORPUS), "--erosion-bound", "-2"],
    ["run", SELL, "--txs", str(CORPUS / "sell.txs.jsonl"), "--gas-limit", "-3"],
    ["corpus", str(CORPUS), "--bound", "x"],
], ids=["bound", "erosion-bound", "gas-limit", "bound-not-an-integer"])
def test_negative_count_option_is_a_usage_error(capsys, argv):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "expected a non-negative integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("option", ["--bound", "--erosion-bound"])
def test_grid_bound_past_uint64_is_a_usage_error(capsys, option):
    assert main(["corpus", str(CORPUS), option, str(UINT_MAX + 1)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"expected at most {UINT_MAX}, got '{UINT_MAX + 1}'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["weave-report", "run-ledger", "run-txs"])
def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys, flag):
    # nesting deeper than the interpreter's recursion limit is malformed
    # input: exit 1 with the flag's diagnostic, no traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000 + "\n", encoding="utf-8")
    argv, message = {
        "weave-report": (["weave", SELL, "--report", str(deep), "-o", str(tmp_path / "w.gcl")],
                         f"cannot read report {deep}: maximum recursion depth exceeded"),
        "run-ledger": (["run", SELL, "--ledger", str(deep)],
                       "bad ledger init: maximum recursion depth exceeded"),
        "run-txs": (["run", SELL, "--txs", str(deep)],
                    "malformed transaction script: JSON nested too deeply"),
    }[flag]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().out.startswith(message)


NOT_UTF8 = b"contract A:\n  method f():\n    x := 1;\n\xff\n"


@pytest.mark.parametrize("case", ["verify", "corpus", "corpus-adversary", "run-adversary",
                                  "run-txs"])
def test_source_that_is_not_utf8_is_a_read_error(tmp_path, capsys, case):
    # a program, adversary or script file that does not decode is reported
    # like a missing one: exit 1 with "cannot read PATH", no traceback
    bad = tmp_path / ("bank.adversary.gcl" if case == "corpus-adversary" else "bad.gcl")
    bad.write_bytes(NOT_UTF8)
    if case == "corpus-adversary":
        shutil.copy(CORPUS / "bank.gcl", tmp_path / "bank.gcl")
    argv = {"verify": ["verify", str(bad)],
            "corpus": ["corpus", str(tmp_path)],
            "corpus-adversary": ["corpus", str(tmp_path)],
            "run-adversary": ["run", SELL, "--adversary", f"Attacker={bad}"],
            "run-txs": ["run", SELL, "--txs", str(bad)]}[case]
    assert main(argv) == EXIT_USAGE
    out = capsys.readouterr().out
    assert f"cannot read {bad}: not UTF-8 text" in out


def test_cli_reports_unreadable_source_without_traceback(tmp_path):
    bad = tmp_path / "bad.gcl"
    bad.write_bytes(NOT_UTF8)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), GVC_COLOR="0")
    run = subprocess.run([sys.executable, "-m", "gvc", "verify", str(bad)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == EXIT_USAGE
    assert "Traceback" not in run.stderr and run.stdout.startswith(f"cannot read {bad}:")


@pytest.mark.parametrize("case", ["verify-report", "weave-output", "run-gas-report",
                                  "weave-report-not-an-object"])
def test_unwritable_output_or_bad_report_is_a_usage_error(tmp_path, capsys, case):
    # every file gvc writes goes through one helper: a path it cannot write
    # is exit 1 with "cannot write PATH", no traceback
    bad = tmp_path / "no" / "such" / "dir" / "out"
    report = tmp_path / "report.json"
    report.write_text("[]\n")
    woven = str(tmp_path / "w.gcl")
    cannot_write = f"cannot write {bad}: No such file or directory"
    argv, message = {
        "verify-report": (["verify", SELL, "--report", str(bad)], cannot_write),
        "weave-output": (["weave", SELL, "--auto", "-o", str(bad)], cannot_write),
        # the transactions have run and printed when the write fails; the
        # command still exits 1
        "run-gas-report": (["run", SELL, "--txs", str(CORPUS / "sell.txs.jsonl"),
                            "--gas-report", str(bad)], "final ledger: "),
        "weave-report-not-an-object": (["weave", SELL, "--report", str(report), "-o", woven],
                                       f"cannot read report {report}: not a JSON object"),
    }[case]
    assert main(argv) == EXIT_USAGE
    out = capsys.readouterr().out
    assert message in out and "Traceback" not in out
    if case == "run-gas-report":
        assert out.endswith(cannot_write + "\n")


MUTANTS_PER_PROGRAM = 15  # about 2 s in all


def test_every_mutant_gets_a_documented_exit_code(tmp_path, capsys):
    # verify, weave and run answer any text, here seeded mutants of every
    # corpus and fixture program, with a diagnostic and an exit code: no
    # traceback and no exception out of main
    sys.path.insert(0, str(ROOT / "scripts"))
    from frontend_diff import mutate
    from gvc.frontend import corpus_files

    rng = random.Random(7)
    src, woven, script = tmp_path / "m.gcl", tmp_path / "w.gcl", tmp_path / "s.jsonl"
    seen = {}
    for path in corpus_files(CORPUS) + corpus_files(FIXTURES):
        program, _ = load_file(path)
        # one transaction per method of the program the mutants come from
        script.write_text("".join(
            json.dumps({"contract": c.name, "method": m.name, "args": [1] * len(m.params)}) + "\n"
            for c in program.contracts if not c.extern for m in c.methods))
        text = path.read_text(encoding="utf-8")
        for _ in range(MUTANTS_PER_PROGRAM):
            src.write_text(mutate(text, rng), encoding="utf-8")
            codes = {"verify": main(["verify", str(src)]),
                     "weave": main(["weave", str(src), "--auto", "-o", str(woven)])}
            runs = [("run", src)] + ([("run woven", woven)] if codes["weave"] == EXIT_OK else [])
            for name, target in runs:
                codes[name] = main(["run", str(target), "--txs", str(script), "--gas-limit", "10000"])
            assert "Traceback" not in capsys.readouterr().out
            for name, code in codes.items():
                seen.setdefault(name, set()).add(code)
    assert seen["verify"] <= {EXIT_OK, EXIT_STATIC}
    assert seen["weave"] <= {EXIT_OK, EXIT_STATIC}
    assert seen["run"] | seen["run woven"] <= {EXIT_OK, EXIT_USAGE, EXIT_STATIC, EXIT_REVERTED}


def test_frontend_diff_mutants_of_an_input_depend_on_its_text_alone():
    # a change to one input's text leaves every other input's mutants
    # identical, so a change to one woven text shows as that input's
    # differences alone
    sys.path.insert(0, str(ROOT / "scripts"))
    from frontend_diff import with_mutants
    from gvc.frontend import corpus_files

    own = [[p.name, p.read_text(encoding="utf-8")] for p in corpus_files(CORPUS)]
    changed = [[name, text.replace("Balance", "Funds") if name == "bank.gcl" else text]
               for name, text in own]
    differ = {name.split("#")[0] for (name, a), (_, b) in
              zip(with_mutants(own, 5, 1), with_mutants(changed, 5, 1)) if a != b}
    assert differ == {"bank.gcl"}


def test_frontend_diff_tells_gas_apart():
    # two VM records of one grid case differ in gas alone when they are
    # equal without exec_gas and check_gas; the run cut at g - 1 gas is
    # compared only when both used g
    sys.path.insert(0, str(ROOT / "scripts"))
    from frontend_diff import gas_only

    def record(check_gas, ledger=1, cut_line=5):
        gas = {"exec_gas": 3, "check_gas": check_gas}
        return ["C.m", {}, [1], {"outcome": "committed", **gas}, None, {}, {"C": {"G": ledger}},
                {"outcome": "reverted", **gas, "revert_reason": "GasExhausted"},
                {"line": cut_line}, {"C": {"G": 0}}]

    assert gas_only(record(2), record(1, cut_line=6))
    assert not gas_only(record(2), record(1, ledger=2))
    assert not gas_only(record(2), record(2, cut_line=6))


def test_frontend_diff_compares_what_a_revert_names():
    # a woven check's revert reads as its check-map entry, so checks
    # renumbered between two trees compare equal; two records that differ
    # in their reverts' details alone are told apart from other differences
    sys.path.insert(0, str(ROOT / "scripts"))
    from frontend_diff import detail_only, named
    from gvc.vm import CHECK_FAILURE, Outcome

    entry = {"line": 7, "kind": "underflow", "payload": "G >= n"}
    named_as = [named(Outcome("reverted", 2, 1, CHECK_FAILURE, {"check_id": cid}), {cid: entry})
                for cid in ("c0", "c3")]
    assert named_as[0] == named_as[1] == [
        {"outcome": "reverted", "exec_gas": 2, "check_gas": 1, "revert_reason": CHECK_FAILURE},
        {"check_id": entry}]

    def record(detail, ledger=1):
        return ["C.m", {}, [1], {"outcome": "reverted"}, CHECK_FAILURE, detail, {"C": {"G": ledger}},
                {"outcome": "reverted"}, detail, {"C": {"G": 0}}]

    assert detail_only(record({"line": 5}), record({"line": 6}))
    assert not detail_only(record({"line": 5}), record({"line": 6}, ledger=2))
