"""Golden outputs: every corpus program's observable pipeline output, pinned
byte for byte.

For each program under corpus/ the golden file holds the verification
report, the woven text and its sidecar, the boundary rows of every method
(as woven, and as loaded into the VM from the woven program and from its
re-parsed text), the VM outcome and final ledger at every point of the
bound-2 grid, and the label and report of every erosion.  A refactoring that
keeps the toolchain's behaviour leaves these files unchanged.

Regenerate after an intended behaviour change with

    python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gvc.erosion import erode_program
from gvc.frontend import corpus_adversaries, corpus_files, load_file, load_source
from gvc.printer import fmt_atom
from gvc.verifier import verify_program
from gvc.vm import Ledger, Vm, load_program, transaction_grid
from gvc.weaver import sidecar_json, weave

from conftest import CORPUS

GOLDEN = HERE / "golden"
GRID_BOUND = 2


def _rows(boundary):
    return {f"{c}.{m}": [[e.kind, fmt_atom(e.payload), e.check_id] for e in rows]
            for (c, m), rows in sorted(boundary.items())}


def _grid(program, image):
    out = []
    for c, m, init, tx in transaction_grid(program, GRID_BOUND):
        point = [init[k.name][g] for k in program.contracts for g in k.globals]
        ledger = Ledger(image.program, init)
        outcome = Vm(image, ledger).exec_transaction(tx)
        out.append({"method": f"{c.name}.{m.name}", "point": point + list(tx.args),
                    "outcome": outcome.as_dict(), "ledger": ledger.as_dict()})
    return out


def golden_blob(path):
    """The golden record of one corpus program, as JSON text."""
    program, _ = load_file(path)
    adversaries = corpus_adversaries(path, program)
    report = verify_program(program)
    doc = {"report": report.as_dict()}
    if not report.has_static_error:
        ip = weave(program, report)
        text = ip.to_text()
        image = load_program(ip, adversaries)
        doc.update({
            "woven": text,
            "sidecar": sidecar_json(ip),
            "boundary": _rows(ip.boundary),
            "vm_boundary": _rows(image.boundary),
            "reloaded_boundary": _rows(load_program(
                load_source(text, path.name + ".woven"), adversaries).boundary),
            "grid": _grid(program, image),
        })
    doc["erosions"] = [{"label": e.label, "report": verify_program(e.program).as_dict()}
                       for e in erode_program(program)]
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def golden_path(path):
    return GOLDEN / (path.stem + ".json")


@pytest.mark.parametrize("path", corpus_files(CORPUS), ids=lambda p: p.stem)
def test_golden(path):
    expected = golden_path(path).read_text(encoding="utf-8")
    assert golden_blob(path) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for p in corpus_files(CORPUS):
        golden_path(p).write_text(golden_blob(p), encoding="utf-8")
        print(f"wrote {golden_path(p).relative_to(HERE.parent)}")
