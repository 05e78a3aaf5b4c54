"""A seeded sweep of extreme CLI requests, and the contract each must keep.

Every request goes through ``cli.main`` in process.  Whatever its
scales, a request must not raise; exit 0 must write only finite data,
and an ``autocorr`` its numeric overlap within AUTOCORR_ATOL of the
closed form; exit 2 must say why in one stderr line, and exit 1 in one
``numerical failure:`` line.  Requests whose grid is too big to run
quickly are skipped before they run.
"""

import csv
import json
import re

import numpy as np
import pytest

from wallbounce.cli import KINDS, CliError, _grid, _parser, _resolve, main

#: the largest grid points x nt a request may have to run here
MAX_WORK = 200_000
#: how far an exit-0 autocorr's numeric overlap may be from the closed form,
#: in each part and row (perfbench's bound)
AUTOCORR_ATOL = 1e-6

#: a region where extreme scales once gave inf or nan: alpha**2 subnormal
#: with hbar huge.  (alpha*p0 above 1.3e154 at t = 0 is a library test, as
#: no automatic grid holds that packet.)
FIXED = [
    ["moments", "--kind", "free", "--alpha", "1e-160", "--hbar", "1e160", "--mass", "1e10", "--nt", "2"],
    ["moments", "--kind", "wall", "--alpha", "1e-160", "--hbar", "1e160", "--mass", "1e10", "--nt", "2"],
]


def _requests(n=300, seed=20261020):
    """Seeded requests of every physics command and kind: alpha, hbar and
    mass log-uniform, over 1e-200 to 1e200 in half the requests and over
    1e-3 to 1e3 in the rest; wide |x0|, p0, tmin and tmax; one density
    request in five on a 401-point grid given by hand; CSV and JSON."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        decades = 200.0 if rng.random() < 0.5 else 3.0

        def scale(decades=decades):
            return float(10.0 ** rng.uniform(-decades, decades))

        command = ["density", "moments", "autocorr"][rng.integers(3)]
        kind = KINDS[rng.integers(len(KINDS))]
        argv = [command, "--kind", kind, "--nt", str(rng.integers(1, 4))]
        argv += [f"--{name}={scale()!r}" for name in ("alpha", "hbar", "mass")]
        if kind != "wall":  # the wall packet takes x0 = p0 = 0 only
            x0 = -scale(6.0) if kind == "bouncer" or rng.random() < 0.5 else scale(6.0)
            p0 = scale(6.0) if rng.random() < 0.5 else -scale(6.0)
            argv += [f"--x0={x0!r}", f"--p0={p0!r}"]
        if rng.random() < 0.5:
            argv.append(f"--tmax={scale(6.0)!r}")
        if rng.random() < 0.25:
            argv.append(f"--tmin={-scale(6.0)!r}")
        if rng.random() < 0.2 and command == "density":  # only density takes a grid
            argv += ["--xmin", "-20", "--nx", "401"]
        argv += ["--format", ["csv", "json"][rng.integers(2)]]
        yield argv


def _work(argv) -> int:
    """The grid points x nt the request would evaluate, or 0 if it is refused
    before any grid is built."""
    try:
        cfg = _resolve(_parser().parse_args(argv))
        if cfg.command == "density":
            grid = _grid(cfg, points_per_beta=64.0)
        elif cfg.command == "autocorr":
            grid = _grid(cfg, t_lo=min(0.0, cfg.tmin), t_hi=max(0.0, cfg.tmax))
        else:
            grid = _grid(cfg)
    except CliError:
        return 0
    return grid.n_points * cfg.nt


#: how the writer spells a non-finite value (%.17g in CSV, json.dumps in
#: JSON); no finite value and no column name holds these letters
_NON_FINITE = {"csv": ("nan", "inf"), "json": ("NaN", "Infinity")}
#: a CSV output's comment lines and its header line
_CSV_HEAD = re.compile(r"(?:#.*\n)*.*\n")


def _records(text: str, fmt: str) -> str:
    """The data part of an output: the rows after the CSV header, or the
    text of the JSON records."""
    if fmt == "json":
        return text.partition('"records": ')[2]
    return text[_CSV_HEAD.match(text).end() :]


def _autocorr_errors(text: str, fmt: str) -> list[float]:
    """|numeric - exact| of each part in each row of an autocorr output."""
    if fmt == "json":
        rows = json.loads(text)["records"]
    else:
        rows = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
    return [abs(float(r[f"{part}_numeric"]) - float(r[f"{part}_exact"])) for r in rows for part in ("re", "im")]


def test_extreme_requests_keep_the_exit_contract(tmp_path, capsys):
    out = tmp_path / "out.dat"
    codes = []
    for argv in FIXED + list(_requests()):
        if _work(argv) > MAX_WORK:
            continue
        try:
            code = main(argv + ["--out", str(out)])
        except BaseException as exc:  # SystemExit included
            pytest.fail(f"{argv} raised {exc!r}")
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
            text = out.read_text()
            records = _records(text, fmt)
            assert any(c.isdigit() for c in records[:64]), (argv, records[:64])
            assert not any(word in records for word in _NON_FINITE[fmt]), argv
            if argv[0] == "autocorr":
                assert max(_autocorr_errors(text, fmt)) <= AUTOCORR_ATOL, argv
            out.unlink()
        else:
            assert code in (1, 2) and not out.exists(), (argv, code)
            lead = {1: "numerical failure: ", 2: "error: "}[code]
            assert len(err) == 1 and err[0].startswith(lead), (argv, err)
        codes.append(code)
    assert codes[:2] == [2, 2]  # the fixed cases
    assert len(codes) > 150 and {0, 2} <= set(codes), codes
