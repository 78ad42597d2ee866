#!/usr/bin/env python3
"""Re-entrancy attack demonstration.

Runs the Bank/Attacker corpus twice: once with dynamic permissions and woven
checks enabled (the attack is stopped by exclusive ownership of Balance),
and once in the unprotected debug mode (the double withdrawal corrupts the
ledger).
"""

import sys
from pathlib import Path

sys.path.insert(0, "src")

from gvc.frontend import load_file
from gvc.verifier import verify_program
from gvc.weaver import weave
from gvc.vm import Ledger, Transaction, Vm, load_program


def main():
    program, _ = load_file("corpus/bank.gcl")
    image = load_program(weave(program, verify_program(program)),
                         {"Attacker": Path("corpus/bank.adversary.gcl").read_text()})
    tx = Transaction("Bank", "withdraw", (4,))
    init = {"Bank": {"Balance": 10}}

    print("attacker re-enters Bank.withdraw during the external notify call")
    print(f"initial Balance: 10, withdrawal: 4, honest result would be 6\n")

    ledger = Ledger(image.program, init)
    out = Vm(image, ledger).exec_transaction(tx)
    print(f"protected:   {out.status} ({out.reason}, slot {out.detail.get('slot')}), "
          f"Balance = {ledger.read('Bank', 'Balance')}")

    ledger = Ledger(image.program, init)
    out = Vm(image, ledger, protected=False).exec_transaction(tx)
    print(f"unprotected: {out.status}, Balance = {ledger.read('Bank', 'Balance')} "
          f"(withdrawn twice)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
