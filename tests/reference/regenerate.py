"""Rewrite the reference values that tier-1 pins, where they moved past their bounds.

measured.json holds run_all()'s measured dict for every criterion, which
tests/test_acceptance.py compares against by measured_value_matches.
The CSV files are the outputs of the CLI runs in CLI_REFERENCES, which
tests/test_cli.py compares against by cli_mismatches.  main() applies
the same rules: it rewrites a CLI file only when its fresh output fails
them, and in measured.json it keeps each committed value that its fresh
one matches, so a run on a tree that passes changes no file.  Run it
after a change that moves those values by design, and review the diff:

    PYTHONPATH=src python tests/reference/regenerate.py
"""

import csv
import json
import math
import shutil
import tempfile
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


def measured_value_matches(got, want) -> bool:
    """measured.json's rule: a float to max(1e-14, 1e-10*|want|), any other value exactly, type included."""
    if type(want) is float:
        return isinstance(got, float) and abs(got - want) <= max(1e-14, 1e-10 * abs(want))
    return type(got) is type(want) and got == want


def _split_output(text):
    """A CSV output's comment lines, and its header and rows as lists of cells."""
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    return meta, list(csv.reader(line for line in lines if not line.startswith("#")))


def _number(cell):
    """The cell's finite float value, or None for text, an empty cell, nan or inf."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def cli_mismatches(got: str, want: str) -> list:
    """Where a CLI output breaks its reference's rule; empty when it matches.

    Comment lines (params, grid, units) and text cells must be equal, and a
    number must be within 1e-13 of its column's max |value|.  A CSV cell
    cannot tell an int from an integral float, and no data column is an
    int, so every number is a float.
    """
    (got_meta, got_rows), (want_meta, want_rows) = _split_output(got), _split_output(want)
    if got_meta != want_meta:
        return [("comment lines", got_meta, want_meta)]
    if [len(row) for row in got_rows] != [len(row) for row in want_rows] or got_rows[:1] != want_rows[:1]:
        return [("header or shape", got_rows[:1], want_rows[:1])]
    mismatches = []
    for j, column in enumerate(zip(*want_rows[1:])):
        bound = 1e-13 * max((abs(v) for v in map(_number, column) if v is not None), default=0.0)
        for i, cell in enumerate(column, 1):
            value, other = _number(cell), _number(got_rows[i][j])
            ok = (got_rows[i][j] == cell) if value is None else (other is not None and abs(other - value) <= bound)
            if not ok:
                mismatches.append((want_rows[0][j], i, got_rows[i][j], cell))
    return mismatches


def main():
    path = HERE / "measured.json"
    committed = json.loads(path.read_text())
    measured = {}
    for r in run_all():
        old = committed.get(r.cid, {})
        measured[r.cid] = {
            key: old[key] if key in old and measured_value_matches(value, old[key]) else value
            for key, value in r.measured.items()
        }
    text = json.dumps(measured, indent=2) + "\n"
    if text != path.read_text():
        path.write_text(text)
        print("rewrote measured.json")
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in CLI_REFERENCES.items():
            fresh = Path(scratch) / name
            if cli_main([*argv, "--out", str(fresh)]) != 0:
                raise SystemExit(f"wallbounce {' '.join(argv)} failed")
            target = HERE / name
            if not target.exists() or cli_mismatches(fresh.read_text(), target.read_text()):
                shutil.copyfile(fresh, target)
                print(f"rewrote {name}")


if __name__ == "__main__":
    main()
