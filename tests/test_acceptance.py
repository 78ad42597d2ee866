"""Acceptance gate: the eight end-to-end properties this toolchain promises.

Each test prints a single pass/fail line so the gate can be read off the
pytest -s output at a glance.
"""

import itertools
import json
import sys
from collections import Counter

from gvc.erosion import (
    check_dynamic_monotonic, check_static_monotonic, erode_program,
)
from gvc.frontend import corpus_adversaries, corpus_files, load_file
from gvc.lang import Check
from gvc.linear import ProofResult, entails_constraints
from gvc.oracle import enumerate_equivalence
from gvc.verifier import Status, verify_program
from gvc.vm import (Ledger, Transaction, Vm, load_program, run_script,
                    transaction_grid)
from gvc.weaver import count_woven_checks, weave

from conftest import CORPUS, ROOT

sys.path.insert(0, str(ROOT / "scripts"))
import prover_soundness  # noqa: E402


def _report(n, ok, desc):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {n}: {desc}"


def _woven(name):
    program, _ = load_file(CORPUS / name)
    return program, weave(program, verify_program(program))


def test_criterion_1_golden_sell():
    """One residual check, before the write, postcondition discharged."""
    program, ip = _woven("sell.gcl")
    report = verify_program(program)
    [m] = report.methods
    residuals = list(report.all_residuals())
    ok = (m.status is Status.VERIFIED_WITH_RESIDUALS
          and len(residuals) == 1
          and residuals[0].payload_text == "scratch >= quantity"
          and residuals[0].insertion.kind == "before"
          and residuals[0].insertion.index == 1
          and all(r.obligation.kind != "postcondition" for r in residuals))
    body = ip.program.contracts[0].methods[0].body
    ok = ok and isinstance(body[1], Check) and count_woven_checks(ip.program) == 1
    _report(1, ok, "sell.gcl verifies with exactly one residual check "
                   "'scratch >= quantity' woven before the global write")


def test_criterion_2_residual_minimization():
    """Precise sell: zero residuals, zero checks, grid-equivalent."""
    program, ip = _woven("sell_precise.gcl")
    report = verify_program(program)
    eq = enumerate_equivalence(program, ip, bound=8)
    ok = (not list(report.all_residuals())
          and count_woven_checks(ip.program) == 0
          and eq["cases"] == 81 and not eq["disagreements"])
    _report(2, ok, "precise sell verifies with zero residuals and agrees "
                   "with the oracle on all 81 enumerated cases")


def test_criterion_3_oracle_equivalence():
    """Every corpus program agrees with the oracle on the bound-8 grid."""
    files = corpus_files(CORPUS)
    total, bad = 0, []
    for path in files:
        program, _ = load_file(path)
        ip = weave(program, verify_program(program))
        eq = enumerate_equivalence(program, ip, bound=8,
                                   adversaries=corpus_adversaries(path, program))
        total += eq["cases"]
        if eq["disagreements"]:
            bad.append(path.name)
    ok = len(files) >= 10 and total > 0 and not bad
    _report(3, ok, f"{len(files)} corpus programs, {total} enumerated cases, "
                   f"{len(bad)} with VM/oracle disagreements")


def test_criterion_4_gradual_guarantee():
    """>=100 erosions; none introduces a static error or a new dynamic
    violation on the enumeration grid."""
    n_erosions, static_bad, dynamic_bad = 0, [], []
    for path in corpus_files(CORPUS):
        program, _ = load_file(path)
        adv = corpus_adversaries(path, program)
        erosions = list(erode_program(program))
        static_bad += check_static_monotonic(verify_program(program), erosions)
        n_erosions += len(erosions)
        dynamic_bad += check_dynamic_monotonic(program, erosions, bound=2,
                                               adversaries=adv)
    ok = n_erosions >= 100 and not static_bad and not dynamic_bad
    _report(4, ok, f"{n_erosions} spec erosions: {len(static_bad)} static / "
                   f"{len(dynamic_bad)} dynamic guarantee violations")


def test_criterion_5_reentrancy_protection():
    """Protected runs revert the attack with the ledger intact; the
    unprotected debug mode demonstrably corrupts the ledger."""
    path = CORPUS / "bank.gcl"
    program, _ = load_file(path)
    adv = corpus_adversaries(path, program)
    image = load_program(weave(program, verify_program(program)), adv)

    ok = True
    attacked = 0
    for bal, amt in itertools.product(range(9), range(9)):
        if not (1 <= amt <= bal):
            continue  # attack path not reached
        attacked += 1
        led = Ledger(image.program, {"Bank": {"Balance": bal}})
        out = Vm(image, led).exec_transaction(Transaction("Bank", "withdraw", (amt,)))
        ok = ok and out.reason == "OwnershipFailure"
        ok = ok and led.read("Bank", "Balance") == bal

    led = Ledger(image.program, {"Bank": {"Balance": 10}})
    unprotected = Vm(image, led, protected=False)
    out = unprotected.exec_transaction(Transaction("Bank", "withdraw", (4,)))
    corrupted = out.committed and led.read("Bank", "Balance") == 2  # honest: 6
    ok = ok and attacked > 0 and corrupted
    _report(5, ok, f"re-entrancy reverts with OwnershipFailure on all "
                   f"{attacked} attack states; unprotected mode double-spends")


def test_criterion_6_prover_soundness():
    """1000 random linear systems: no verdict contradicted by search over
    [0, 16]^n, and the verdict tally is the one recorded for this prover."""
    cfg = prover_soundness.Config(systems=1000, seed=20240817, box=16)
    tally = Counter()
    contradictions = 0
    for names, prem, goal in prover_soundness.random_systems(cfg):
        verdict = entails_constraints(prem, goal)
        tally[verdict] += 1
        if verdict is not ProofResult.UNKNOWN and prover_soundness.contradiction(
                names, prem, goal, verdict, cfg.box) is not None:
            contradictions += 1
    counts = tuple(tally[r] for r in (ProofResult.PROVED, ProofResult.DISPROVED,
                                      ProofResult.UNKNOWN))
    ok = contradictions == 0 and counts == (576, 129, 295)
    _report(6, ok, f"1000 systems, {contradictions} contradicted verdicts, "
                   f"proved/disproved/unknown {counts[0]}/{counts[1]}/{counts[2]}")


def test_criterion_7_gas_accounting():
    """check_gas is boundary atoms for precise sell and one extra woven
    check per call for the imprecise variant; 3-tx totals hand-computed."""
    script = [Transaction("Counter", "sell", (3,))] * 3
    results = {}
    for name in ("sell_precise.gcl", "sell.gcl"):
        program, ip = _woven(name)
        image = load_program(ip)
        led = Ledger(image.program, {"Counter": {"Count": 10}})
        outs, rep = run_script(image, script, ledger=led)
        results[name] = ([(o.exec_gas, o.check_gas) for o in outs], rep["totals"])
    ok = (results["sell_precise.gcl"] ==
          ([(2, 3)] * 3, {"exec_gas": 6, "check_gas": 9})
          and results["sell.gcl"] ==
          ([(2, 4)] * 3, {"exec_gas": 6, "check_gas": 12}))
    _report(7, ok, "per-tx gas (2 exec, 3 check) precise vs (2 exec, 4 check) "
                   "imprecise; totals 6/9 and 6/12 over three transactions")


def test_criterion_8_determinism_and_atomicity():
    """Three repeated full-corpus runs serialize byte-identically, and
    every reverted transaction restores the pre-transaction ledger."""

    def full_run():
        blobs = []
        for path in corpus_files(CORPUS):
            program, _ = load_file(path)
            report = verify_program(program)
            ip = weave(program, report)
            image = load_program(ip, corpus_adversaries(path, program))
            outcomes = []
            for _, _, init, tx in transaction_grid(program, 2):
                led = Ledger(image.program, init)
                before = led.as_dict()
                out = Vm(image, led).exec_transaction(tx)
                if not out.committed:
                    assert led.as_dict() == before, (path.name, init, tx)
                outcomes.append(out.as_dict())
            blobs.append(report.to_json() + ip.to_text()
                         + json.dumps(outcomes, sort_keys=True))
        return "".join(blobs)

    runs = {full_run() for _ in range(3)}
    ok = len(runs) == 1
    _report(8, ok, "three full-corpus runs byte-identical; all reverted "
                   "transactions left the ledger at its snapshot")
