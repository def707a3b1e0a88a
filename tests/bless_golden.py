"""Write the golden CSVs checked by test_golden.py. Run only when a change
is meant to alter the sweep outputs.

    PYTHONPATH=src python3 tests/bless_golden.py
"""

import os
import sys

from chaosmodem import harness

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_golden import CASES, GOLDEN_DIR, case_records, golden_path  # noqa: E402


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in CASES:
        print(harness.emit_csv(case_records(case), golden_path(case)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
