"""Check weaving: instrumented text, stripping, check maps, boundary rows."""

import pytest

from gvc.erosion import erode_program
from gvc.frontend import corpus_files, load_file, load_source
from gvc.lang import Acc, Check
from gvc.oracle import Site, vm_site
from gvc.printer import fmt_atom, pretty_print
from gvc.verifier import verify_program
from gvc.vm import CHECK_FAILURE, Ledger, Transaction, Vm, load_program
from gvc.weaver import (
    WeaveError, check_map, count_woven_checks, strip, weave,
)

from conftest import CORPUS, FIXTURES


def _rows(image, contract, method):
    """One method's boundary rows in a loaded image, in order, each as the
    (check id, kind, payload text, line) that its failure is blamed with:
    the entry rows compiled into its entry function, each a (payload text,
    line) constant, then its non-acc exit rows, which the image's check map
    (weaver.check_map) describes."""
    entry = image.code[(contract, method)].entry
    consts = [] if entry is None else [entry.__globals__[n] for n in entry.__code__.co_names
                                       if n.startswith("_k")]
    rows = [(None, "precondition", *k) for k in consts if type(k) is tuple and type(k[1]) is int]
    for r in image.program.contract(contract).method(method).exits:
        if not isinstance(r.payload, Acc):
            rec = image.checks[r.check_id]
            rows.append((r.check_id, rec["kind"], rec["payload"], rec["line"]))
    return rows


class TestSellWoven:
    def test_check_statement_in_text(self, sell_woven):
        assert "#! check scratch >= quantity @c0 underflow;" in sell_woven.to_text()

    def test_check_precedes_global_write(self, sell_woven):
        lines = [l.strip() for l in sell_woven.to_text().splitlines()]
        chk = lines.index("#! check scratch >= quantity @c0 underflow;")
        assert lines[chk + 1].startswith("Count :=")

    def test_one_check_total(self, sell_woven):
        assert count_woven_checks(sell_woven.program) == 1

    def test_sidecar_contents(self, sell_woven):
        assert sell_woven.sidecar == check_map(sell_woven.program) == {
            "c0": {"line": 7, "kind": "underflow", "payload": "scratch >= quantity"},
        }
        # re-loaded, the check blames the line its statement moved to
        reloaded, _ = load_source(sell_woven.to_text(), "sell.woven.gcl")
        assert check_map(reloaded) == {
            "c0": {"line": 8, "kind": "underflow", "payload": "scratch >= quantity"},
        }

    def test_boundary_table_from_spec(self, sell_woven):
        # the woven program carries no rows; the image checks the requires
        # comparison at entry and has no exit function: no row for the
        # ensures, which the verifier proved, and the requires acc is
        # settled by ownership
        assert sell_woven.boundary == {}
        image = load_program(sell_woven)
        assert _rows(image, "Counter", "sell") == [(None, "precondition", "quantity >= 0", 4)]
        assert image.code[("Counter", "sell")].exit is None


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


def _verified_variants(path):
    """(name, program, report) of a corpus program and of each of its
    erosions that verifies."""
    program, _ = load_file(path)
    for name, p in [(path.name, program)] + [(e.label, e.program) for e in erode_program(program)]:
        report = verify_program(p)
        if not report.has_static_error:
            yield name, p, report


def test_strip_weave_round_trip_on_corpus():
    # a woven program is a Program: stripping its checks and exit rows gives
    # back the value it was woven from, and its text re-loads as itself
    for path in corpus_files(CORPUS):
        for name, program, report in _verified_variants(path):
            ip = weave(program, report)
            assert strip(ip) == program, name
            text = ip.to_text()
            assert pretty_print(load_source(text, name)[0]) == text, name


@pytest.mark.parametrize("path", corpus_files(CORPUS), ids=lambda p: p.stem)
def test_woven_text_reverifies_clean_and_reweaves_to_itself(path):
    # a woven check is assumed where it stands and an exit row before the
    # ensures, so re-verifying leaves nothing to weave
    for name, program, report in _verified_variants(path):
        text = weave(program, report).to_text()
        woven, _ = load_source(text, name)
        again = verify_program(woven)
        assert list(again.all_residuals()) == [] and not again.has_static_error, name
        assert weave(woven, again).to_text() == text, name


def test_check_map_blames_each_residuals_obligation():
    # the map a woven program derives from where its checks stand is the
    # line, kind and payload of the obligation each residual guards
    for path in corpus_files(CORPUS):
        for name, program, report in _verified_variants(path):
            derived = {cid: (rec["line"], rec["kind"], rec["payload"])
                       for cid, rec in check_map(weave(program, report).program).items()}
            assert derived == {r.id: (r.obligation.loc.line, r.obligation.kind, r.payload_text)
                               for r in report.all_residuals()}, name


def test_woven_text_reloads_with_boundary(sell_woven):
    # check statements survive a text round trip
    program, _ = load_source(sell_woven.to_text(), "sell.woven.gcl")
    assert count_woven_checks(program) == 1
    # boundary residual directives do too
    src, _ = load_file(CORPUS / "branching.gcl")
    ip = weave(src, verify_program(src))
    reloaded, _ = load_source(ip.to_text(), "branching.woven.gcl")
    [row] = reloaded.contract("Gate").method("set").exits
    assert isinstance(row, Check) and (row.check_id, row.obligation) == ("c0", "postcondition")


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
    assert isinstance(row, Check)
    # checked at exit, blamed at the ensures line
    assert _rows(load_program(ip), "Gate", "set") == [
        (row.check_id, "postcondition", fmt_atom(row.payload), 5)]
    # residual merged into the spec row, not duplicated
    assert count_woven_checks(ip.program) == 0


def test_exit_row_matching_no_spec_atom_is_checked_at_exit():
    # a hand-edited woven text may carry an exit row no residual produced:
    # the image compiles the method's exit rows as written, and no row for
    # the proven ensures `Level <= 10`, and the VM checks each
    program, _ = load_file(CORPUS / "branching.gcl")
    text = weave(program, verify_program(program)).to_text()
    row = "    #! exit Level >= 1 @c0 postcondition;\n"
    text = text.replace(row, row + "    #! exit Level <= 5 @c1 postcondition;\n")
    image = load_program(load_source(text, "branching.woven.gcl"))
    assert _rows(image, "Gate", "set") == [
        ("c0", "postcondition", "Level >= 1", 5), ("c1", "postcondition", "Level <= 5", 5)]
    vm = Vm(image, Ledger(image.program))
    assert vm.exec_transaction(Transaction("Gate", "set", (5,))).committed
    out = vm.exec_transaction(Transaction("Gate", "set", (7,)))
    assert (out.reason, out.detail["check_id"]) == (CHECK_FAILURE, "c1")


def test_exit_row_without_an_ensures_line_reports_its_own_line():
    # a woven text whose method has no ensures line: check_map blames its
    # exit row at the row's own `#! exit` line, and the VM's revert names
    # the row's id alone
    program, _ = load_file(CORPUS / "branching.gcl")
    text = weave(program, verify_program(program)).to_text()
    text = "".join(l for l in text.splitlines(keepends=True) if "#@ ensures" not in l)
    assert text.splitlines()[4] == "    #! exit Level >= 1 @c0 postcondition;"
    image = load_program(load_source(text, "branching.woven.gcl"))
    assert image.checks == {"c0": {"line": 5, "kind": "postcondition", "payload": "Level >= 1"}}
    out = Vm(image, Ledger(image.program)).exec_transaction(Transaction("Gate", "set", (0,)))
    assert (out.reason, out.detail) == (CHECK_FAILURE, {"check_id": "c0"})
    assert vm_site(out, image.checks) == Site("postcondition", 5)
