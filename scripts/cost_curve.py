#!/usr/bin/env python3
"""The cost curve of gradual verification: check gas as specs erode.

For each program of a corpus directory and each of its erosions (see
gvc.erosion), runs the woven program on every case of the bound-2
`transaction_grid`, one transaction per case on a fresh ledger.  Prints,
per program, the check gas summed over the grid points where the precise
program commits, and the same sum for each erosion on those points, marked
cheaper, dearer or equal against the precise program.  Then the tally of
cheaper, dearer and equal erosions, and the whole grid's totals over every
program and erosion (the images run): cases, commits, check gas and
exec gas.  Last, the dynamic gradual guarantee on the woven VM: the number
of (erosion, case) pairs where the precise program commits and the erosion
reverts or commits a different final ledger, which must be 0.

    python3 scripts/cost_curve.py [CORPUS_DIR] [--bound 2]

The VM checks at run time only what the verifier left unproven, plus the
`requires` rows that guard a method from an untrusted caller.  So an
erosion that leaves an obligation unproven gets dearer: a woven check
takes the proof's place and runs on every call, same-contract ones
included.  An erosion gets cheaper when it drops a `requires` atom that the
body never needs, and with it a row that a top-level or cross-contract
entry checks.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gvc.erosion import erode_program
from gvc.frontend import corpus_adversaries, corpus_files, load_file
from gvc.verifier import verify_program
from gvc.vm import Ledger, Vm, load_program, transaction_grid
from gvc.weaver import weave


def _outcomes(program, cases, adversaries):
    """The VM outcome and final ledger slots of each case on `program`,
    woven."""
    image = load_program(weave(program, verify_program(program)), adversaries)
    runs = []
    for init, tx in cases:
        ledger = Ledger(image.program, init)
        runs.append((Vm(image, ledger).exec_transaction(tx), ledger.slots))
    return runs


def curve(root, bound=2):
    """([(program file name, precise check gas, [(erosion label, check
    gas)])], totals): each check gas summed over the grid points where the
    precise program commits; totals over every case of every program and
    erosion, and the dynamic guarantee's violations on the woven VM."""
    rows = []
    totals = dict.fromkeys(("images", "cases", "commits", "check_gas", "exec_gas",
                            "violations"), 0)
    for path in corpus_files(root):
        program, _ = load_file(path)
        adversaries = corpus_adversaries(path, program)
        cases = [(init, tx) for _, _, init, tx in transaction_grid(program, bound)]
        precise = _outcomes(program, cases, adversaries)
        points = [o.committed for o, _ in precise]

        def gas(runs):
            totals["images"] += 1
            totals["cases"] += len(runs)
            for (o, slots), (p, precise_slots) in zip(runs, precise):
                totals["commits"] += o.committed
                totals["check_gas"] += o.check_gas
                totals["exec_gas"] += o.exec_gas
                totals["violations"] += p.committed and not (o.committed
                                                             and slots == precise_slots)
            return sum(o.check_gas for (o, _), p in zip(runs, points) if p)

        base = gas(precise)
        rows.append((path.name, base, [(e.label, gas(_outcomes(e.program, cases, adversaries)))
                                       for e in erode_program(program)]))
    return rows, totals


def _mark(g, base):
    """Whether an erosion's check gas `g` is cheaper, dearer or equal
    against its precise program's `base`."""
    return "cheaper" if g < base else "dearer" if g > base else "equal"


def tally(rows):
    """{"cheaper": n, "dearer": n, "equal": n} of the erosions against their
    precise programs."""
    out = dict.fromkeys(("cheaper", "dearer", "equal"), 0)
    for _, base, erosions in rows:
        for _, g in erosions:
            out[_mark(g, base)] += 1
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("corpus", nargs="?", default="corpus")
    ap.add_argument("--bound", type=int, default=2)
    args = ap.parse_args(argv)
    rows, totals = curve(args.corpus, args.bound)
    for name, base, erosions in rows:
        print(f"{name}: precise {base}")
        for label, g in erosions:
            print(f"  {label}: {g} ({g - base:+d}, {_mark(g, base)})")
    t = tally(rows)
    print(f"erosions: {t['cheaper']} cheaper, {t['dearer']} dearer, {t['equal']} equal")
    print(f"grid: {totals['images']} programs and erosions, {totals['cases']} cases, "
          f"{totals['commits']} commits, check gas {totals['check_gas']}, "
          f"exec gas {totals['exec_gas']}")
    print(f"dynamic guarantee on the woven VM: {totals['violations']} violation(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
