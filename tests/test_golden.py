"""Golden outputs: every corpus program's observable pipeline output, pinned
byte for byte.

For each program under corpus/ the golden file holds the verification
report, the woven text and its check map, the boundary rows of every method
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
from gvc.lang import Acc
from gvc.printer import fmt_atom
from gvc.verifier import verify_program
from gvc.vm import Ledger, Vm, load_program, transaction_grid
from gvc.weaver import weave

from conftest import CORPUS

GOLDEN = HERE / "golden"
GRID_BOUND = 2


def _rows(boundary):
    """Each method's rows, each a (role, payload, check id), as JSON."""
    return {f"{c}.{m}": [[role, fmt_atom(payload), check_id] for role, payload, check_id in rows]
            for (c, m), rows in sorted(boundary.items())}


def _exit_rows(rows):
    return [("exit", r.payload, r.check_id) for r in rows]


def _tables(image):
    """The rows vm.load_program compiles into each method of a loaded image
    (restated here, as the image keeps no table): its requires comparison
    and predicate atoms at entry, none in an extern contract, then its
    non-acc exit rows."""
    return {(c.name, m.name): [("entry", a, None) for a in m.spec.requires.atoms
                               if not c.extern and not isinstance(a, Acc)]
                              + _exit_rows(r for r in m.exits if not isinstance(r.payload, Acc))
            for c in image.program.contracts for m in c.methods}


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
            "sidecar": json.dumps(ip.sidecar, indent=2, sort_keys=True),
            "boundary": _rows({k: _exit_rows(rows) for k, rows in ip.boundary.items()}),
            "vm_boundary": _rows(_tables(image)),
            "reloaded_boundary": _rows(_tables(load_program(
                load_source(text, path.name + ".woven"), adversaries))),
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
