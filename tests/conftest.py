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
