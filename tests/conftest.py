import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CORPUS = ROOT / "corpus"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

# a precise caller of a foreign method that requires Count >= 1 (line 12 is
# the call)
FOREIGN_PRECISE = (
    "contract Vault:\n"
    "  #@ global Count;\n"
    "  method take():\n"
    "    #@ requires acc(Count) and Count >= 1;\n"
    "    #@ ensures acc(Count);\n"
    "    Count := Count - 1;\n"
    "\n"
    "contract Shop:\n"
    "  method buy():\n"
    "    #@ requires true;\n"
    "    #@ ensures true;\n"
    "    call Vault.take();\n"
)

# a frame takes a slot only when it is free or its direct caller's: w holds
# G while q (`requires ?`) writes it two calls down, through a precise
# same-contract p that does not name G or through an extern A whose
# adversary re-enters q; in the control, w calls q itself, which borrows G.
# Each is (source, adversary source of A or None).
W_HOLDS_G = (
    "contract W:\n"
    "  #@ global G;\n"
    "  method w(x: uint64):\n"
    "    #@ requires acc(G);\n"
    "    #@ ensures acc(G);\n"
    "    call {callee}(x);\n"
)
Q_WRITES_G = "  method q(x: uint64):\n    #@ requires ?;\n    #@ ensures ?;\n    G := x;\n"
OWNERSHIP_PREMISE = {
    "through-precise-callee": (
        W_HOLDS_G.format(callee="W.p") + "  method p(x: uint64):\n    #@ requires true;\n"
        "    #@ ensures ?;\n    call W.q(x);\n" + Q_WRITES_G, None),
    "through-extern": (
        W_HOLDS_G.format(callee="A.notify") + Q_WRITES_G
        + "\nextern contract A:\n  method notify(x: uint64):\n    opaque;\n",
        "contract A:\n  method notify(x: uint64):\n    call W.q(x);\n"),
    "borrow-from-caller": (W_HOLDS_G.format(callee="W.q") + Q_WRITES_G, None),
}

# where the slots a frame still holds at exit go (Vm.call, Oracle.enter).
# In "acquired", twice holds G and calls inc, which acquires G at entry and
# whose ensures `?` does not name it: inc frees G and twice claims it, so
# twice takes G back for its own `ensures acc(G)` (corpus/imprecise_return.gcl
# with inc's ensures eroded to `?`).  In "borrowed", n borrows the free G
# lazily; it goes back to free at n's exit, not to m, so q, entered through
# D.x, can acquire it.  In "claimed", take's ensures `?` frees G and m
# claims it, yet q, entered through D.x, can acquire it: a claimed slot is
# free to every other frame (corpus/grand_call.gcl with take's ensures
# eroded to `?`).  In "borrowed-then-claimed", c borrows m's G lazily and
# c2 takes it from c and leaves c a claim on it: G goes back to m, which
# holds it after the call, as the verifier assumes.  An extern's ensures leaves no claim: in "reentered-twice",
# each Feed.ping frees the G that grab handed it, so the second grab can
# acquire it, and in "after-an-extern" m may not take G after the calls.
# Each is (source, adversary source of Feed or None, method of C run from
# G = 0, G after it commits or None where m is refused G).
_GRAND_CALL = (
    "  method q():\n    #@ requires acc(G);\n    #@ ensures acc(G);\n    G := G + 1;\n"
    "\ncontract D:\n  method x():\n    #@ requires ?;\n    #@ ensures ?;\n"
    "    call C.q();\n")
_REENTERED = (
    "contract C:\n  #@ global G;\n  method m():\n    #@ requires true;\n    #@ ensures ?;\n"
    "    call Feed.ping();\n    call Feed.ping();\n{tail}"
    "  method grab():\n    #@ requires acc(G);\n    #@ ensures acc(G);\n    G := G + 1;\n"
    "\nextern contract Feed:\n  method ping():\n    opaque;\n")
_PING_GRABS = "contract Feed:\n  method ping():\n    call C.grab();\n"
LEFTOVER_SLOTS = {
    "acquired": (
        "contract C:\n  #@ global G;\n"
        "  method inc():\n    #@ requires acc(G);\n    #@ ensures ?;\n    G := G + 1;\n"
        "  method twice():\n    #@ requires acc(G) and G == 0;\n    #@ ensures acc(G);\n"
        "    G := G + 5;\n    call C.inc();\n    #@ assert G >= 1;\n", None, "twice", 6),
    "borrowed": (
        "contract C:\n  #@ global G;\n"
        "  method m():\n    #@ requires ?;\n    #@ ensures ?;\n"
        "    call C.n();\n    call D.x();\n"
        "  method n():\n    #@ requires ?;\n    #@ ensures ?;\n    G := 1;\n"
        + _GRAND_CALL, None, "m", 2),
    "claimed": (
        "contract C:\n  #@ global G;\n"
        "  method m():\n    #@ requires acc(G);\n    #@ ensures ?;\n"
        "    call C.take();\n    call D.x();\n"
        "  method take():\n    #@ requires acc(G);\n    #@ ensures ?;\n    G := G + 1;\n"
        + _GRAND_CALL, None, "m", 2),
    "borrowed-then-claimed": (
        "contract C:\n  #@ global G;\n"
        "  method m():\n    #@ requires acc(G);\n    #@ ensures acc(G);\n"
        "    call C.c();\n    G := G + 1;\n"
        "  method c():\n    #@ requires ?;\n    #@ ensures true;\n    call C.c2();\n"
        "  method c2():\n    #@ requires acc(G);\n    #@ ensures ?;\n    G := G + 1;\n",
        None, "m", 2),
    "reentered-twice": (_REENTERED.format(tail=""), _PING_GRABS, "m", 2),
    "after-an-extern": (_REENTERED.format(tail="    G := G + 1;\n"), _PING_GRABS, "m", None),
}


@pytest.fixture(scope="session")
def sell_path():
    return CORPUS / "sell.gcl"


@pytest.fixture(scope="session")
def sell_program(sell_path):
    from gvc.frontend import load_file
    program, _ = load_file(sell_path)
    return program


@pytest.fixture(scope="session")
def sell_report(sell_program):
    from gvc.verifier import verify_program
    return verify_program(sell_program)


@pytest.fixture(scope="session")
def sell_woven(sell_program, sell_report):
    from gvc.weaver import weave
    return weave(sell_program, sell_report)


def nif_source(n):
    """Contract Branchy: one method with n independent if/else arms, each
    updating the global G under an imprecise spec (2^n paths)."""
    params = ", ".join(f"x{i}: uint64" for i in range(n))
    lines = ["contract Branchy:", "  #@ global G;", f"  method step({params}):",
             "    #@ requires ? and acc(G);", "    #@ ensures ? and acc(G);"]
    for i in range(n):
        lines += [f"    if x{i} <= {i % 6 + 1}:", f"      G := G + {i % 3 + 1};",
                  "    else:", f"      G := G - {(i + 1) % 3 + 1};"]
    return "\n".join(lines) + "\n"
