"""Write the golden CSVs, the acceptance-size counts and the sync
transition counts checked by test_golden.py. Run only when a change is
meant to alter the sweep outputs.

    PYTHONPATH=src python3 tests/bless_golden.py
"""

import os
import sys

from chaosmodem import harness

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_golden import (ACCEPTANCE_COUNTS, CASES, GOLDEN_DIR,  # noqa: E402
                         SYNC_TRANSITION, acceptance_counts, case_records,
                         golden_path, sync_transition_counts)


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in CASES:
        print(harness.emit_csv(case_records(case), golden_path(case)))
    for path, lines in ((ACCEPTANCE_COUNTS,
                         acceptance_counts(os.cpu_count() or 1)),
                        (SYNC_TRANSITION, sync_transition_counts())):
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
