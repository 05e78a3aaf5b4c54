"""Rewrite the reference values that tier-1 pins.

measured.json holds run_all()'s measured dict for every criterion, which
tests/test_acceptance.py compares against: ints and bools exactly, floats
to max(1e-14, 1e-10*|v|).  Run it after a change that moves those values
by design, and review the diff:

    PYTHONPATH=src python tests/reference/regenerate.py
"""

import json
from pathlib import Path

from wallbounce.validation import run_all

HERE = Path(__file__).resolve().parent


def main():
    measured = {r.cid: r.measured for r in run_all()}
    (HERE / "measured.json").write_text(json.dumps(measured, indent=2) + "\n")


if __name__ == "__main__":
    main()
