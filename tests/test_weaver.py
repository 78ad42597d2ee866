"""Check weaving: instrumented text, stripping, sidecar, boundary tables."""

import json

import pytest

from gvc.frontend import corpus_files, load_file, load_source
from gvc.printer import fmt_atom, pretty_print
from gvc.verifier import verify_program
from gvc.vm import CHECK_FAILURE, Ledger, Transaction, Vm, load_program
from gvc.weaver import (
    WeaveError, count_woven_checks, sidecar_json, strip, weave,
)

from conftest import CORPUS, FIXTURES


class TestSellWoven:
    def test_check_statement_in_text(self, sell_woven):
        assert "#! check scratch >= quantity @c0;" in sell_woven.to_text()

    def test_check_precedes_global_write(self, sell_woven):
        lines = [l.strip() for l in sell_woven.to_text().splitlines()]
        chk = lines.index("#! check scratch >= quantity @c0;")
        assert lines[chk + 1].startswith("Count :=")

    def test_one_check_total(self, sell_woven):
        assert count_woven_checks(sell_woven.program) == 1

    def test_sidecar_contents(self, sell_woven):
        assert sell_woven.sidecar == {
            "c0": {"line": 7, "kind": "underflow", "payload": "scratch >= quantity"},
        }
        doc = json.loads(sidecar_json(sell_woven))
        assert doc == sell_woven.sidecar

    def test_boundary_table_from_spec(self, sell_woven):
        # the woven program carries no rows; the VM's table holds the
        # requires comparison at entry and the precise ensures at exit, and
        # the requires acc is settled by ownership
        assert sell_woven.boundary == {}
        entries = load_program(sell_woven).boundary[("Counter", "sell")]
        assert [e.kind for e in entries] == ["entry", "exit"]
        assert all(e.check_id is None for e in entries)


def test_precise_program_weaves_no_checks():
    program, _ = load_file(CORPUS / "sell_precise.gcl")
    ip = weave(program, verify_program(program))
    assert count_woven_checks(ip.program) == 0
    assert ip.sidecar == {}


def test_strip_inverts_weave(sell_program, sell_woven):
    assert pretty_print(strip(sell_woven)) == pretty_print(sell_program)


def test_strip_idempotent(sell_woven):
    once = strip(sell_woven)
    assert strip(once) == once


def test_strip_weave_round_trip_on_corpus():
    for path in corpus_files(CORPUS):
        program, _ = load_file(path)
        report = verify_program(program)
        if report.has_static_error:
            continue
        ip = weave(program, report)
        assert pretty_print(strip(ip)) == pretty_print(program), path.name


def test_woven_text_reloads_with_boundary(sell_woven):
    # check statements survive a text round trip
    program, _ = load_source(sell_woven.to_text(), "sell.woven.gcl")
    assert count_woven_checks(program) == 1
    # boundary residual directives do too
    src, _ = load_file(CORPUS / "branching.gcl")
    ip = weave(src, verify_program(src))
    _, boundary = load_source(ip.to_text(), "branching.woven.gcl")
    [entry] = boundary[("Gate", "set")]
    assert entry.kind == "exit" and entry.check_id == "c0"


def test_stale_report_rejected(sell_program):
    other, _ = load_file(CORPUS / "loop.gcl")
    report = verify_program(other)
    with pytest.raises(WeaveError, match="stale"):
        weave(sell_program, report)


def test_refuses_static_errors():
    program, _ = load_file(FIXTURES / "sell_strong.gcl")
    report = verify_program(program)
    with pytest.raises(WeaveError, match="static error"):
        weave(program, report)


def test_exit_residual_lands_in_boundary_table():
    program, _ = load_file(CORPUS / "branching.gcl")
    ip = weave(program, verify_program(program))
    [row] = ip.boundary[("Gate", "set")]
    entries = load_program(ip).boundary[("Gate", "set")]
    residual_rows = [e for e in entries if e.check_id is not None]
    assert residual_rows == [row] and row.kind == "exit"
    # residual merged into the spec row, not duplicated
    assert count_woven_checks(ip.program) == 0


def test_exit_row_matching_no_spec_atom_is_checked_at_exit():
    # a hand-edited woven text may carry an exit row no spec atom matches:
    # the table appends it after the spec rows, and the VM checks it
    program, _ = load_file(CORPUS / "branching.gcl")
    text = weave(program, verify_program(program)).to_text()
    text = text.replace("    #! exit Level >= 1 @c0;\n",
                        "    #! exit Level >= 1 @c0;\n    #! exit Level <= 5 @c1;\n")
    image = load_program(load_source(text, "branching.woven.gcl"))
    assert [(e.kind, fmt_atom(e.payload), e.check_id)
            for e in image.boundary[("Gate", "set")]] == [
        ("exit", "Level <= 10", None), ("exit", "Level >= 1", "c0"),
        ("exit", "Level <= 5", "c1")]
    vm = Vm(image, Ledger(image.program))
    assert vm.exec_transaction(Transaction("Gate", "set", (5,))).committed
    out = vm.exec_transaction(Transaction("Gate", "set", (7,)))
    assert (out.reason, out.detail["check_id"]) == (CHECK_FAILURE, "c1")
