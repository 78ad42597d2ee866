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
