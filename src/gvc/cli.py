"""Command-line pipeline: verify, weave, run, corpus.

Exit codes: 0 success, 1 usage or IO error, 2 static verification error,
3 a transaction reverted, 4 oracle disagreement.  Human-readable text goes
to stdout; machine-readable JSON only to files.  GVC_COLOR=0 disables color.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .frontend import corpus_adversaries, corpus_files, load_source, read_source
from .lang import UINT_MAX, SourceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STATIC = 2
EXIT_REVERTED = 3
EXIT_DISAGREEMENT = 4

# gas per transaction for `gvc run` without --gas-limit: a loop that never
# ends reverts GasExhausted instead of hanging the command
DEFAULT_GAS_LIMIT = 1_000_000


def _color(s, code):
    if os.environ.get("GVC_COLOR") == "0" or not sys.stdout.isatty():
        return s
    return f"\x1b[{code}m{s}\x1b[0m"


def _green(s):
    return _color(s, "32")


def _red(s):
    return _color(s, "31")


def _unreadable(path, e):
    return SystemExit2(EXIT_USAGE, f"cannot read {path}: {e.strerror or e}")


def _read(path):
    try:
        return read_source(path)
    except OSError as e:
        raise _unreadable(path, e)


def _write(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise SystemExit2(EXIT_USAGE, f"cannot write {path}: {e.strerror or e}")


def _load(path):
    text = _read(path)
    try:
        return load_source(text, str(path))[0]
    except SourceError as e:
        raise SystemExit2(EXIT_STATIC, f"{path}: {e}")


def _count(text):
    """A numeric option's value: an integer that is not negative."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def _bound(text):
    """A grid bound: a count that is a uint64."""
    n = _count(text)
    if n > UINT_MAX:
        raise argparse.ArgumentTypeError(f"expected at most {UINT_MAX}, got {text!r}")
    return n


class SystemExit2(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------


def cmd_verify(args):
    from .verifier import verify_program

    program = _load(args.path)
    report = verify_program(program)
    for m in report.methods:
        tag = {"verified": _green("verified"),
               "verified-with-residuals": _green("verified-with-residuals"),
               "static-error": _red("static-error")}[m.status.value]
        print(f"{m.contract}.{m.name}: {tag} ({len(m.residuals)} residual check(s))")
        for ob, reason in m.diagnostics:
            from .printer import fmt_atom
            if ob is not None:
                print(f"  line {ob.loc.line}: {ob.kind} obligation "
                      f"'{fmt_atom(ob.atom)}' is {reason}")
            else:
                print(f"  {reason}")
        for w in m.warnings:
            print(f"  warning: {w}")
    if args.prover_stats:
        p = report.prover.as_dict()
        print(f"prover: {p}")
    if args.report:
        _write(args.report, report.to_json() + "\n")
        print(f"report written to {args.report}")
    return EXIT_STATIC if report.has_static_error else EXIT_OK


def cmd_weave(args):
    from .verifier import verify_program, program_digest
    from .weaver import WeaveError, weave

    program = _load(args.path)
    report = verify_program(program)
    if args.report:
        try:
            on_disk = json.loads(Path(args.report).read_text(encoding="utf-8"))
            if not isinstance(on_disk, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError, RecursionError) as e:  # too deep a nesting recurses
            raise SystemExit2(EXIT_USAGE, f"cannot read report {args.report}: {e}")
        if on_disk.get("digest") != program_digest(program):
            raise SystemExit2(EXIT_USAGE, "stale report: program digest does not match")
    elif not args.auto:
        raise SystemExit2(EXIT_USAGE, "either --report or --auto is required")
    try:
        ip = weave(program, report)
    except WeaveError as e:
        raise SystemExit2(EXIT_STATIC, str(e))
    out = args.output or (str(args.path) + ".woven.gcl")
    _write(out, ip.to_text())
    print(f"woven {sum(len(m.residuals) for m in report.methods)} residual check(s) -> {out}")
    return EXIT_OK


def _parse_adversaries(pairs):
    out = {}
    for p in pairs or []:
        if "=" not in p:
            raise SystemExit2(EXIT_USAGE, f"--adversary expects NAME=path, got {p!r}")
        name, path = p.split("=", 1)
        out[name] = _read(path)
    return out


def cmd_run(args):
    from .verifier import verify_program
    from .vm import Ledger, VmLoadError, VmUsageError, load_program, parse_script, run_script
    from .weaver import WeaveError, weave

    program = _load(args.path)
    # the VM takes an ensures atom without an exit row as proved: run only a
    # program that verifies, with what it leaves unproven woven in
    try:
        ip = weave(program, verify_program(program))
    except WeaveError as e:
        raise SystemExit2(EXIT_STATIC, f"cannot run {args.path}: {e}")
    try:
        image = load_program(ip, _parse_adversaries(args.adversary),
                             protected=not args.unprotected)
    except (VmLoadError, SourceError) as e:
        raise SystemExit2(EXIT_USAGE, f"cannot load program: {e}")

    txs = []
    if args.txs:
        text = _read(args.txs)
        try:
            txs = parse_script(text)
        except ValueError as e:
            raise SystemExit2(EXIT_USAGE, f"malformed transaction script: {e}")
    try:
        init = json.loads(Path(args.ledger).read_text(encoding="utf-8")) if args.ledger else {}
        ledger = Ledger(image.program, init)
    except (OSError, ValueError, RecursionError, VmUsageError) as e:
        raise SystemExit2(EXIT_USAGE, f"bad ledger init: {e}")

    try:
        outcomes, report = run_script(image, txs, gas_limit=args.gas_limit, ledger=ledger)
    except VmUsageError as e:
        raise SystemExit2(EXIT_USAGE, f"bad transaction: {e}")
    for i, o in enumerate(outcomes):
        if o.committed:
            print(f"tx {i}: {_green('committed')} exec_gas={o.exec_gas} check_gas={o.check_gas}")
        else:
            where, line = "", o.detail.get("line")
            if cid := o.detail.get("check_id"):
                # the guarded line (weaver.check_map), not the `#!` line
                where = f" check {cid} ({image.checks[cid]['kind']})"
                line = image.checks[cid]["line"]
            if line:
                where += f" at line {line}"
            print(f"tx {i}: {_red('reverted')} {o.reason}{where} "
                  f"exec_gas={o.exec_gas} check_gas={o.check_gas}")
    print(f"final ledger: {json.dumps(ledger.as_dict(), sort_keys=True)}")
    t = report["totals"]
    print(f"totals: exec_gas={t['exec_gas']} check_gas={t['check_gas']}")
    if args.gas_report:
        _write(args.gas_report, json.dumps(report, indent=2) + "\n")
    return EXIT_REVERTED if any(not o.committed for o in outcomes) else EXIT_OK


def cmd_corpus(args):
    from .erosion import check_dynamic_monotonic, check_static_monotonic, erode_program
    from .oracle import enumerate_equivalence
    from .verifier import verify_program
    from .vm import VmLoadError, VmUsageError
    from .weaver import WeaveError, weave

    root = Path(args.dir)
    if not root.is_dir():
        raise SystemExit2(EXIT_USAGE, f"not a directory: {root}")
    files = corpus_files(root)
    if not files:
        print("warning: no corpus programs found")
        return EXIT_OK

    worst = EXIT_OK
    total_erosions = 0
    for path in files:
        program = _load(path)
        try:
            adversaries = corpus_adversaries(path, program)
        except OSError as e:
            raise _unreadable(e.filename, e)
        # one memo of prover verdicts serves the program and its erosions
        memo = {}
        report = verify_program(program, memo)
        if report.has_static_error:
            print(f"{path.name}: {_red('static-error')}")
            worst = max(worst, EXIT_STATIC)
            continue
        try:
            ip = weave(program, report)
        except WeaveError as e:  # a woven check's id clashes with a residual's
            print(f"{path.name}: {_red('static-error')} {e}")
            worst = max(worst, EXIT_STATIC)
            continue
        try:
            eq = enumerate_equivalence(program, ip, bound=args.bound, adversaries=adversaries)
        except (VmLoadError, VmUsageError, SourceError) as e:
            print(f"{path.name}: {_red('FAIL')} cannot load the woven program: {e}")
            worst = max(worst, EXIT_DISAGREEMENT)
            continue
        n_dis = len(eq["disagreements"])
        erosions = list(erode_program(program))
        bad_static = check_static_monotonic(report, erosions, memo)
        total_erosions += len(erosions)
        bad_dynamic = check_dynamic_monotonic(program, erosions, bound=args.erosion_bound,
                                              adversaries=adversaries)
        ok = not n_dis and not bad_static and not bad_dynamic
        mark = _green("ok") if ok else _red("FAIL")
        print(f"{path.name}: {mark} equivalence {eq['cases']} case(s), "
              f"{n_dis} disagreement(s); {len(erosions)} erosion(s), "
              f"{len(bad_static)} static / {len(bad_dynamic)} dynamic violation(s)")
        if not ok:
            worst = max(worst, EXIT_DISAGREEMENT)
    print(f"{len(files)} program(s), {total_erosions} erosion(s) checked")
    return worst


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="gvc",
        description="Gradual verification toolchain: static verification, "
                    "residual check weaving, and a checked ledger VM.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="statically verify a program")
    v.add_argument("path")
    v.add_argument("--report", help="write the verification report JSON here")
    v.add_argument("--prover-stats", action="store_true",
                   help="print the prover's query and verdict counts")
    v.set_defaults(fn=cmd_verify)

    w = sub.add_parser("weave", help="weave residual checks into a program")
    w.add_argument("path")
    w.add_argument("--report", help="verification report JSON to validate against")
    w.add_argument("--auto", action="store_true", help="verify and weave in one step")
    w.add_argument("-o", "--output", help="woven output path")
    w.set_defaults(fn=cmd_weave)

    r = sub.add_parser("run", help="execute a transaction script on a woven program")
    r.add_argument("path")
    r.add_argument("--txs", help="transaction script (JSON lines)")
    r.add_argument("--ledger", help="initial ledger JSON")
    r.add_argument("--gas-limit", type=_count, default=DEFAULT_GAS_LIMIT,
                   help="gas per transaction before it reverts GasExhausted "
                        f"(default {DEFAULT_GAS_LIMIT})")
    r.add_argument("--gas-report", help="write the gas report JSON here")
    r.add_argument("--adversary", action="append", metavar="NAME=PATH",
                   help="source implementing an extern contract")
    r.add_argument("--unprotected", action="store_true",
                   help="debug mode: no permissions, no checks (demonstrates the "
                        "vulnerability class the protections close)")
    r.set_defaults(fn=cmd_run)

    c = sub.add_parser("corpus", help="regression: verify, weave, equivalence, erosion")
    c.add_argument("dir")
    c.add_argument("--bound", type=_bound, default=8)
    c.add_argument("--erosion-bound", type=_bound, default=2)
    c.set_defaults(fn=cmd_corpus)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SystemExit2 as e:
        print(e.message)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
