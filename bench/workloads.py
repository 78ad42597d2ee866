"""The four workloads of the gvc benchmark.

Each workload is a closed loop over a fixed number of passes, `passes`.
`inputs(k)` builds pass k at set-up (the same structure in every pass,
seeded details); `op` is the timed call into
gvc; `observe` captures state after an op, outside the timed region;
`mark`/`rewind` let the harness rerun passes from the same state; `check`
compares every op of a pass with a reference that does not come from the code
path under test and returns, per op, None or why it failed.  gvc is reached
only through the module namespace passed to `setup`, looked up at call time
so that a tracer can wrap it.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stdout

import defects
import inputs as I


def _adversaries_for(program, adv_text):
    if not adv_text:
        return {}
    return {c.name: adv_text for c in program.contracts if c.extern}


def _corpus_programs(gvc, names):
    """[(name, resolved program, adversaries)] for frozen corpus programs."""
    out = []
    for name in names:
        text, adv = I.corpus_files(name)
        program, _ = gvc.frontend.load_source(text, name)
        out.append((name, program, _adversaries_for(program, adv)))
    return out


def _verdict_counts(reports):
    """residual_checks and decided_share over verification reports."""
    queries = sum(r.prover.queries for r in reports)
    decided = sum(r.prover.proved + r.prover.disproved for r in reports)
    return {"residual_checks": sum(len(list(r.all_residuals())) for r in reports),
            "decided_share": decided / queries if queries else 0}


def _raised(err):
    return f"op raised {type(err).__name__}" if err is not None else None


def _agree(gvc, out, ledger_after, judgment, sidecar):
    """VM outcome vs oracle judgment: commit iff all obligations held, the
    same final storage on commit, the same blame site on revert."""
    if out.committed != judgment.held:
        return False
    if out.committed:
        return ledger_after == judgment.storage
    return gvc.oracle.vm_site(out, sidecar) == judgment.site


class Stateless:
    """An op whose result depends on its input alone, so it can be timed
    several times in a row."""

    repeatable = True

    def mark(self):
        return None

    def rewind(self, state):
        pass

    def observe(self, item, out):
        return None


class Static(Stateless):
    """source text -> lex -> parse -> infer/resolve -> verify -> weave -> text."""

    name = "static"
    passes = 3  # 168 ops: the tail percentile falls inside the three n = 3 programs
    min_rounds = 3
    GRID_BOUND = 6
    GRID_POINTS = 6

    def setup(self, gvc, seed):
        self.gvc, self.seed = gvc, seed

    def inputs(self, k):
        return I.static_pass(self.seed, k)

    def op(self, item):
        g = self.gvc
        unit = g.parser.parse_program(g.lexer.lex(item["source"], item["name"]))
        g.frontend.infer_types(unit)
        program = g.frontend.resolve(unit)
        report = g.verifier.verify_program(program)
        if report.has_static_error:
            return program, report, None, None
        ip = g.weaver.weave(program, report)
        return program, report, ip, ip.to_text()

    def check(self, k, recs):
        return [_raised(err) or self._check_one(k, i, item, out)
                for i, (item, out, err, _) in enumerate(recs)]

    def _check_one(self, k, i, item, out):
        """The known verdict, then VM(woven text) == oracle(source) on a
        seeded sample of every method's grid."""
        g = self.gvc
        program, report, ip, text = out
        if report.has_static_error != item["static_error"]:
            return f"family {item['family']}: wrong static verdict"
        if ip is None:
            return None
        rng = I.rng_for(self.seed, "static-check", k, i)
        try:
            woven, boundary = g.frontend.load_source(text, item["name"])
            image = g.vm.load_program((woven, boundary), item["adversaries"])
        except Exception as e:  # the op's output is not a loadable program
            return f"family {item['family']}: woven text rejected ({type(e).__name__})"
        base, unverified = g.vm.merge_adversaries(program, item["adversaries"])
        oracle = g.oracle.Oracle(base, unverified)
        gslots = [(c.name, s) for c in program.contracts for s in c.globals]
        for c in program.contracts:
            if c.extern:
                continue
            for m in c.methods:
                for point in I.grid_sample(rng, len(gslots) + len(m.params),
                                           self.GRID_BOUND, self.GRID_POINTS):
                    init = {}
                    for (cn, s), v in zip(gslots, point):
                        init.setdefault(cn, {})[s] = v
                    tx = g.vm.Transaction(c.name, m.name, tuple(point[len(gslots):]))
                    ledger = g.vm.Ledger(image.program, init)
                    out = g.vm.Vm(image, ledger).exec_transaction(tx)
                    if not _agree(g, out, ledger.as_dict(), oracle.judge(init, tx), ip.sidecar):
                        return f"family {item['family']}: woven VM disagrees with the oracle"
        return None

    def counts(self, recs):
        return _verdict_counts([out[1] for _, out, err, _ in recs if err is None])

    def defects(self):
        """The known-defect probe, run after the timed ops (defects.py)."""
        return defects.probe(self.gvc, self.seed)


class Prover(Stateless):
    """One linear.entails_constraints query per op."""

    name = "prover"
    passes = 1
    min_rounds = 3

    def setup(self, gvc, seed):
        self.gvc, self.seed = gvc, seed
        lin = gvc.linear
        names = I.prover_names(seed)

        def con(c):
            terms, const, rel = c
            return lin.make_constraint({names[v]: k for v, k in terms}, const, lin.Rel[rel])

        self.queries = [(i, [con(p) for p in premises], [con(goal)])
                        for i, (_, premises, goal) in enumerate(I.prover_systems())]
        self.truth = I.prover_truth(I.CACHE)

    def inputs(self, k):
        order = list(range(len(self.queries)))
        I.rng_for(self.seed, "prover", k).shuffle(order)
        return [self.queries[i] for i in order]

    def op(self, query):
        return self.gvc.linear.entails_constraints(query[1], query[2])

    def check(self, k, recs):
        verdict = self.gvc.linear.ProofResult
        reasons = []
        for (i, _, _), out, err, _ in recs:
            joint, cex = self.truth[i]
            if err is not None:
                reasons.append(_raised(err))
            elif out is verdict.PROVED and cex:
                reasons.append("proved with a counterexample")
            elif out is verdict.DISPROVED and joint:
                reasons.append("disproved with a joint model")
            else:
                reasons.append(None)
        return reasons

    def counts(self, recs):
        verdict = self.gvc.linear.ProofResult
        outs = [out for _, out, err, _ in recs if err is None]
        decided = sum(out is not verdict.UNKNOWN for out in outs)
        # every unknown verdict is an obligation a verifier leaves to run time
        return {"residual_checks": len(outs) - decided,
                "decided_share": decided / len(recs)}


class Run:
    """One Vm.exec_transaction per op, one evolving ledger per program."""

    name = "run"
    repeatable = False
    passes = 100
    min_rounds = 3

    def setup(self, gvc, seed):
        self.gvc, self.seed = gvc, seed
        self.vms, self.ledgers, self.oracles, self.state, self.sidecars = {}, {}, {}, {}, {}
        reports = []
        for name, program, adversaries in _corpus_programs(gvc, I.RUN_PROGRAMS):
            report = gvc.verifier.verify_program(program)
            ip = gvc.weaver.weave(program, report)
            image = gvc.vm.load_program(ip, adversaries)
            ledger = gvc.vm.Ledger(image.program, I.RUN_PROGRAMS[name][0])
            self.vms[name] = gvc.vm.Vm(image, ledger)
            self.ledgers[name] = ledger
            self.sidecars[name] = ip.sidecar
            self.oracles[name] = gvc.oracle.Oracle(*gvc.vm.merge_adversaries(program, adversaries))
            self.state[name] = ledger.as_dict()
            reports.append(report)
        self.setup_counts = _verdict_counts(reports)

    def inputs(self, k):
        tx = self.gvc.vm.Transaction
        return [(name, tx(c, m, args)) for name, c, m, args in I.run_pass(self.seed, k)]

    def op(self, item):
        return self.vms[item[0]].exec_transaction(item[1])

    def mark(self):
        return {name: ledger.snapshot() for name, ledger in self.ledgers.items()}

    def rewind(self, state):
        for name, snap in state.items():
            self.ledgers[name].restore(snap)

    def observe(self, item, out):
        return self.ledgers[item[0]].as_dict()

    def check(self, k, recs):
        """Replay every transaction through the oracle from its own copy of
        each program's storage."""
        reasons = []
        for (name, tx), out, err, after in recs:
            before = self.state[name]
            j = self.oracles[name].judge(before, tx)
            if err is not None:
                reasons.append(_raised(err))
                continue
            if not _agree(self.gvc, out, after, j, self.sidecars[name]):
                reasons.append(f"{name}: VM disagrees with the oracle")
            elif not out.committed and after != before:
                reasons.append(f"{name}: revert did not roll the ledger back")
            else:
                reasons.append(None)
            # continue from the VM's state so one disagreement does not cascade
            self.state[name] = after
        return reasons

    def counts(self, recs):
        return dict(self.setup_counts)


class Corpus(Stateless):
    """One shipped program through `gvc corpus` (cli.main), stdout captured."""

    name = "corpus"
    passes = 7  # 112 ops: enough samples for a stable tail percentile
    min_rounds = 3
    BOUND, EROSION_BOUND = 8, 2
    LINE = re.compile(r"^(\S+): ok equivalence (\d+) case\(s\), (\d+) disagreement\(s\); "
                      r"(\d+) erosion\(s\), (\d+) static / (\d+) dynamic violation\(s\)$")

    def setup(self, gvc, seed):
        self.gvc, self.seed = gvc, seed
        self.expected = {name: I.expected_cases(I.corpus_files(name)[0], self.BOUND)
                         for name in I.CORPUS_NAMES}

    def inputs(self, k):
        names = list(I.CORPUS_NAMES)
        I.rng_for(self.seed, "corpus", k).shuffle(names)
        return names

    def op(self, name):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.gvc.cli.main(["corpus", str(I.CORPUS / name), "--bound", str(self.BOUND),
                                      "--erosion-bound", str(self.EROSION_BOUND)])
        return code, buf.getvalue()

    def check(self, k, recs):
        reasons = []
        for name, out, err, _ in recs:
            if err is not None:
                reasons.append(_raised(err))
                continue
            code, text = out
            lines = text.splitlines()
            m = self.LINE.match(lines[0]) if lines else None
            ok = (code == 0 and m is not None and m.group(1) == f"{name}.gcl"
                  and int(m.group(2)) == self.expected[name]
                  and m.group(3) == m.group(5) == m.group(6) == "0"
                  and lines[-1].startswith("1 program(s),"))
            reasons.append(None if ok else f"{name}: regression report not clean")
        return reasons

    def counts(self, recs):
        return _verdict_counts([self.gvc.verifier.verify_program(program)
                                for _, program, _ in _corpus_programs(self.gvc, I.CORPUS_NAMES)])

    def curve_programs(self):
        """Programs for the traced run's cost curve (tracing.cost_curve)."""
        return [(program, adv) for _, program, adv in _corpus_programs(self.gvc, I.CORPUS_NAMES)]


WORKLOADS = {w.name: w for w in (Static, Prover, Run, Corpus)}
