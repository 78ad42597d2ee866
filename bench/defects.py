"""Probe for two known gvc defects, run untimed at the end of every `static`
run.  Their outcomes depend on process history or are wrong on every draw,
so the programs that show them are not timed ops (a timed op must not fail);
this probe runs them and reports what it saw.

- Stale predicate reads: `lang.predicate_read_cache` is keyed by
  `id(contract)`.  A contract allocated where a freed one lived can inherit
  that one's predicate reads.  The probe verifies a `decoy` program, drops
  it, then loads and verifies a `drain` program, whose known answer is a
  static error; any other outcome (verified, or rejected as ill-formed)
  is a stale verdict, as is any outcome but "verified" for the decoy.  How many of the attempts go wrong depends on the
  allocator, so the count differs between runs.
- Unloadable woven text: a residual for a callee precondition that uses the
  callee's predicate is woven into the caller, where that predicate does not
  exist, so the woven text of every `stock` program is rejected when it is
  loaded again.
"""

from __future__ import annotations

import inputs as I

ATTEMPTS = 50
STOCK_DRAWS = 3


def _outcome(gvc, source, name):
    """'illformed', 'error' or 'verified' for one program."""
    try:
        program, _ = gvc.frontend.load_source(source, name)
    except gvc.frontend.WellFormednessError:
        return "illformed"
    return "error" if gvc.verifier.verify_program(program).has_static_error else "verified"


def probe(gvc, seed):
    """{metric: count} of wrong outcomes, and one line per defect seen."""
    rng = I.rng_for(seed, "defects")
    stale = 0
    for _ in range(ATTEMPTS):
        k = str(rng.randint(1, 5))
        decoy, drain = (I.FAMILY_C[kind][0].replace("{k}", k) for kind in ("decoy", "drain"))
        stale += _outcome(gvc, decoy, "decoy") != "verified"
        stale += _outcome(gvc, drain, "drain") != "error"
    unloadable = 0
    for _ in range(STOCK_DRAWS):
        item = I.family_c(rng, "stock")
        program, _ = gvc.frontend.load_source(item["source"], item["name"])
        text = gvc.weaver.weave(program, gvc.verifier.verify_program(program)).to_text()
        try:
            gvc.frontend.load_source(text, item["name"])
        except Exception:  # any rejection of the woven text
            unloadable += 1
    lines = []
    if stale:
        lines.append(f"# known defect: {stale} of {2 * ATTEMPTS} decoy and drain programs, "
                     f"verified in turn, got a wrong verdict (stale predicate reads)")
    if unloadable:
        lines.append(f"# known defect: the woven text of {unloadable} of {STOCK_DRAWS} stock "
                     f"programs is rejected when loaded again")
    return {"defects.stale_verdicts": stale, "defects.unloadable_woven": unloadable}, lines
