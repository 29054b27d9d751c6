"""Cross-check the translation against the interpreter on generated machines
beyond the tier-1 seeds.

Seeds 150 to 2,149 of `modelgen.random_transition_machine` are checked at
event capacities 1 and 2 as the tier-1 test checks seeds 0 to 149: XML
read-back, control-token safety to exhaustion and exact equivalence.  The
script exits 1 naming the first failing seed and capacity.  Run it from the
repository root as

    python3 tests/random_machines.py

pytest does not collect this file.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from test_translator import check_random_machine  # noqa: E402

SEEDS = range(150, 2_150)


def main() -> int:
    for seed in SEEDS:
        for capacity in (1, 2):
            try:
                check_random_machine(seed, capacity)
            except Exception as error:
                print(f"seed {seed} at event capacity {capacity} fails: "
                      f"{type(error).__name__}: {error}")
                return 1
    print(f"{len(SEEDS)} machines at event capacities 1 and 2: "
          "safe, equivalent and read back")
    return 0


if __name__ == "__main__":
    sys.exit(main())
