"""Rewrite the reference values that tier-1 pins.

measured.json holds run_all()'s measured dict for every criterion, which
tests/test_acceptance.py compares against: ints and bools exactly, floats
to max(1e-14, 1e-10*|v|).  The CSV files are the outputs of the CLI runs
in CLI_REFERENCES, which tests/test_cli.py compares against: comment
lines and text cells exactly, numbers to 1e-13 of their column's
max |value|.  Run it after a change that moves those values by design,
and review the diff:

    PYTHONPATH=src python tests/reference/regenerate.py
"""

import json
from pathlib import Path

from wallbounce.cli import main as cli_main
from wallbounce.validation import run_all

HERE = Path(__file__).resolve().parent

_DENSITY = ["density", "--nt", "3", "--xmin", "-30", "--nx", "201"]

#: reference file name -> the CLI arguments that write it; the automatic
#: grids are pinned by the moments and autocorr files' grid lines
CLI_REFERENCES = {
    **{f"moments-{k}.csv": ["moments", "--kind", k] for k in ("free", "free-node", "bouncer", "wall")},
    **{f"autocorr-{k}.csv": ["autocorr", "--kind", k] for k in ("free", "bouncer")},
    **{f"density-{k}.csv": [*_DENSITY, "--kind", k] for k in ("free", "free-node", "bouncer", "wall")},
    "validate-C03-C09-C10.csv": ["validate", "--criteria", "C03,C09,C10"],
}


def main():
    measured = {r.cid: r.measured for r in run_all()}
    (HERE / "measured.json").write_text(json.dumps(measured, indent=2) + "\n")
    for name, argv in CLI_REFERENCES.items():
        if cli_main([*argv, "--out", str(HERE / name)]) != 0:
            raise SystemExit(f"wallbounce {' '.join(argv)} failed")


if __name__ == "__main__":
    main()
