"""CLI round trips: file formats, determinism, exit codes."""

import cmath
import csv
import json
import math
import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from wallbounce import cli
from wallbounce.cli import main
from wallbounce.oracle import GridSpec
from regenerate import CLI_REFERENCES, cli_mismatches

REFERENCE = Path(__file__).parent / "reference"


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def read_csv(path):
    meta_lines, rows = [], []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                meta_lines.append(line)
                continue
            rows.append(line)
    parsed = list(csv.DictReader(rows))
    return meta_lines, parsed


def test_density_wall_row_zero_and_normalized(tmp_path):
    code, out = run_cli(
        tmp_path, "density", "--xmin", "-60", "--nx", "6001",
        "--tmin", "0", "--tmax", "2", "--nt", "2",
    )
    assert code == 0
    _, rows = read_csv(out)
    ts = sorted({float(r["t"]) for r in rows})
    assert ts == [0.0, 2.0]
    for t in ts:
        cols = [(float(r["x"]), float(r["density"])) for r in rows if float(r["t"]) == t]
        xs = np.array([c[0] for c in cols])
        dens = np.array([c[1] for c in cols])
        assert xs[-1] == 0.0 and dens[-1] == 0.0
        w = np.ones(xs.size)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (xs[1] - xs[0]) / 3.0
        assert abs(float(np.sum(w * dens)) - 1.0) < 1e-5


def test_density_interference_near_collision(tmp_path):
    code, out = run_cli(
        tmp_path, "density", "--xmin", "-60", "--nx", "6001",
        "--tmin", "2", "--tmax", "2", "--nt", "1",
    )
    assert code == 0
    _, rows = read_csv(out)
    dens = np.array([float(r["density"]) for r in rows])
    interior = dens[(dens > 1e-6)]
    d = np.diff(interior)
    sign_flips = int(np.sum(np.abs(np.diff(np.sign(d))) > 0))
    assert sign_flips >= 5  # fringes, not a single hump


def test_moments_columns(tmp_path):
    code, out = run_cli(tmp_path, "moments", "--nt", "9", "--tmax", "4")
    assert code == 0
    _, rows = read_csv(out)
    # far before the bounce the numeric mean rides the classical fold
    r0 = rows[0]
    assert abs(float(r0["x_mean_numeric"]) - (-10.0)) < 1e-3
    assert float(r0["x_mean_classical"]) == -10.0
    assert r0["x_mean_near_wall_approx"] == ""
    # p^2 column is exactly constant
    p2 = {r["p2_exact"] for r in rows}
    assert len(p2) == 1
    # at t_c the near-wall expansion is present and within 5% of the oracle
    r_tc = next(r for r in rows if float(r["t"]) == 2.0)
    approx = float(r_tc["x_mean_near_wall_approx"])
    numeric = float(r_tc["x_mean_numeric"])
    assert abs(approx - numeric) / abs(numeric) < 0.05
    # expected -beta_t(t_c)/sqrt(pi) at the collision
    assert approx == pytest.approx(-math.sqrt(5.0 / math.pi), rel=1e-12)


def test_autocorr_columns_and_monotone(tmp_path):
    code, out = run_cli(tmp_path, "autocorr", "--nt", "21", "--tmax", "6")
    assert code == 0
    _, rows = read_csv(out)
    assert float(rows[0]["abs2_exact"]) == 1.0
    mags = [float(r["abs2_exact"]) for r in rows]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    for r in rows:
        closed = complex(float(r["re_exact"]), float(r["im_exact"]))
        numeric = complex(float(r["re_numeric"]), float(r["im_numeric"]))
        assert abs(closed - numeric) < 1e-6


def test_autocorr_rejects_kinds_without_closed_form(tmp_path):
    code, _ = run_cli(tmp_path, "autocorr", "--kind", "wall")
    assert code == 2


def test_autocorr_window_away_from_zero(tmp_path):
    # fast packet, late window: by t = 3 the packet has outrun any grid
    # sized to [tmin, tmax] alone, so the t = 0 reference state is only
    # covered because the grid window is widened to include it
    code, out = run_cli(
        tmp_path, "autocorr", "--kind", "free", "--p0", "15",
        "--tmin", "3", "--tmax", "4", "--nt", "3",
    )
    assert code == 0
    _, rows = read_csv(out)
    for r in rows:
        closed = complex(float(r["re_exact"]), float(r["im_exact"]))
        numeric = complex(float(r["re_numeric"]), float(r["im_numeric"]))
        assert abs(closed - numeric) < 1e-6


#: a bouncer that is far past the wall long before t_max = 19 (t_c = 1.6)
REFLECTED = ["--kind", "bouncer", "--x0", "-8", "--p0", "5", "--alpha", "1.4", "--tmax", "19"]


@pytest.mark.parametrize("argv,away,p_mean", [
    # the reflected packet, at -|X(t)| beyond x0
    (["moments", *REFLECTED], lambda t: t >= 4 * 1.6, -5.0),
    # the incoming packet at negative times, beyond x0 on the other side
    (["moments", "--tmin", "-5", "--tmax", "3"], lambda t: t <= 0.0, 5.0),
], ids=["reflected", "negative-times"])
def test_automatic_grid_follows_the_packet(tmp_path, argv, away, p_mean):
    # away from the wall <x> is the classical -|X(t)| and <p> is +-p0, to round-off
    code, out = run_cli(tmp_path, *argv)
    assert code == 0
    rows = [r for r in read_csv(out)[1] if away(float(r["t"]))]
    assert len(rows) >= 10
    for r in rows:
        x = float(r["x_mean_classical"])
        assert abs(float(r["x_mean_numeric"]) - x) <= 1e-12 * abs(x), r
        assert abs(float(r["p_mean_numeric"]) - p_mean) <= 1e-10 * abs(p_mean), r


def test_autocorr_of_the_reflected_packet(tmp_path):
    code, out = run_cli(tmp_path, "autocorr", *REFLECTED, "--nt", "5")
    assert code == 0
    for r in read_csv(out)[1]:
        closed = complex(float(r["re_exact"]), float(r["im_exact"]))
        numeric = complex(float(r["re_numeric"]), float(r["im_numeric"]))
        assert abs(closed - numeric) < 1e-10


def test_identical_config_gives_identical_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["moments", "--nt", "5", "--tmax", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name", CLI_REFERENCES)
def test_output_matches_the_reference(tmp_path, name):
    code, out = run_cli(tmp_path, *CLI_REFERENCES[name])
    assert code == 0
    mismatches = cli_mismatches(out.read_text(), (REFERENCE / name).read_text())
    assert not mismatches, (name, mismatches[:3])


def test_json_schema(tmp_path):
    code, out = run_cli(
        tmp_path, "density", "--format", "json", "--xmin", "-60", "--nx", "1001",
        "--tmin", "0", "--tmax", "0", "--nt", "1",
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["metadata"]["params"]["kind"] == "bouncer"
    assert "units" in payload["metadata"]
    assert isinstance(payload["records"], list)
    assert set(payload["records"][0]) == {"t", "x", "density"}


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("# demo config\nkind=free\nx0=-4\np0=2.0\nnt=3\ntmax=1.0\n")
    out = tmp_path / "o.json"
    code = main(
        ["moments", "--config", str(cfg), "--p0", "1.0", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["params"]["kind"] == "free"
    assert payload["metadata"]["params"]["x0"] == -4.0  # a negative value from the file
    assert payload["metadata"]["params"]["p0"] == 1.0  # flag beats file
    assert len(payload["records"]) == 3


def test_bad_arguments_exit_two(tmp_path, capsys):
    bad_value = tmp_path / "bad_value.conf"
    bad_value.write_text("kind=free\nnt=abc\n")
    bad_key = tmp_path / "bad_key.conf"
    bad_key.write_text("# comment\nkind=free\nspeed=3\n")
    no_equals = tmp_path / "no_equals.conf"
    no_equals.write_text("kind=free\nnt 3\n")
    not_text = tmp_path / "not_text.conf"
    not_text.write_bytes(b"\xff\xfekind=free\n")
    for argv in [
        ["moments", "--tmin", "3", "--tmax", "1"],
        ["moments", "--kind", "bouncer", "--x0", "1.0"],
        ["moments", "--kind", "wall", "--p0", "2.0"],
        ["moments", "--kind", "bouncer", "--x0", "0", "--p0", "0"],
        ["density", "--xmin", "-50", "--nx", "1000"],  # even
        ["density", "--xmin", "-50"],  # missing --nx
        ["moments", "--alpha", "-1"],
        ["validate", "--criteria", "C99"],
        ["moments", "--tmax", "nan"],
        ["density", "--tmax", "inf"],
        ["validate", "--criteria", ","],
        ["validate", "--criteria", " , "],
        ["validate", "--criteria", ""],
        # validate's gates, moments and autocorr run on grids the library sizes
        ["validate", "--xmin", "-50", "--nx", "100000001"],
        ["validate", "--xmin", "-50", "--nx", "1000"],
        ["moments", "--xmin", "-20", "--nx", "401"],
        ["autocorr", "--xmin", "-20", "--nx", "401"],
        ["moments", "--nx", "401"],
        # rejected by the parser itself
        ["moments", "--nt", "abc"],
        ["moments", "--format", "xml"],
        ["density", "--bogus", "1"],
        ["validate", "--x0", "3"],  # validate takes no physics flags
        ["validate", "--kind", "free"],
        ["moments", "--config", str(bad_value)],
        ["moments", "--config", str(bad_key)],
        ["moments", "--config", str(no_equals)],
        ["moments", "--config", str(not_text)],
        ["moments", "--config", str(tmp_path / "missing.conf")],
        ["moments", "--config", str(tmp_path)],  # a directory
        ["moments", "--kind", "free", "--nt", "1000000000"],  # refused before allocating
        # scales whose beta**2 or t0 is not a normal float, or whose grid overflows
        ["density", "--kind", "wall", "--alpha", "1e-160", "--nt", "1"],
        ["moments", "--alpha", "1e-200"],
        ["moments", "--alpha", "1e200"],
        ["autocorr", "--kind", "free", "--alpha", "1e-170"],
        ["moments", "--kind", "free", "--p0", "1e300"],
        ["autocorr", "--kind", "bouncer", "--p0", "1e-300"],
        # a phase-space distance whose square overflows
        ["moments", "--kind", "bouncer", "--p0", "8.5e258"],
        ["moments", "--kind", "bouncer", "--x0=-1e160"],
        # p0**2 overflows
        ["density", "--kind", "free", "--p0", "1e155", "--xmin", "-20", "--nx", "401", "--nt", "1"],
        ["density", "--kind", "bouncer", "--p0", "1e155", "--xmin", "-20", "--nx", "401", "--nt", "1"],
        ["moments", "--kind", "free", "--p0", "-1e155", "--nt", "1"],
        ["autocorr", "--kind", "bouncer", "--p0", "1e155", "--nt", "1"],
        # beta_t**2, X(t)**2 or the phase overflows inside the window, on any grid
        ["density", "--kind", "bouncer", "--tmin", "1e200", "--tmax", "1e200", "--xmin", "-20", "--nx", "401", "--nt", "1"],
        ["density", "--kind", "free", "--tmax", "1e200", "--xmin", "-20", "--nx", "401", "--nt", "2"],
        ["moments", "--kind", "free", "--tmin", "1e200", "--tmax", "1e200", "--nt", "1"],
        ["autocorr", "--kind", "bouncer", "--tmin", "1e200", "--tmax", "1e200", "--nt", "1"],
        ["density", "--kind", "wall", "--tmax", "1e300", "--xmin", "-20", "--nx", "401", "--nt", "2"],
        ["moments", "--kind", "wall", "--tmin", "1.3e154", "--tmax", "1.3e154", "--nt", "1"],
        ["moments", "--kind", "bouncer", "--p0", "1e100", "--tmax", "1e100", "--nt", "2"],
        # <p^2> overflows: alpha**2 is subnormal, 1/alpha**2 finite in the second
        ["moments", "--kind", "free", "--alpha", "1e-160", "--hbar", "1e160", "--mass", "1e10", "--nt", "2"],
        ["moments", "--kind", "free-node", "--alpha", "8.16e-155", "--hbar", "1e154", "--nt", "2"],
        ["moments", "--kind", "wall", "--alpha", "1e-160", "--hbar", "1e160", "--mass", "1e10", "--nt", "2"],
        ["moments", "--kind", "wall", "--alpha", "8.16e-155", "--hbar", "1e154", "--nt", "2"],
    ]:
        assert run_cli(tmp_path, *argv)[0] == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if argv[-2] == "--config":
            assert err.startswith(f"error: {argv[-1]}"), err  # names the file
        if argv[-1] == str(bad_key):
            assert f"{bad_key}:3: " in err
        if argv[-1] == str(no_equals):
            assert f"{no_equals}:2: expected key=value" in err
    assert set(tmp_path.iterdir()) == {bad_value, bad_key, no_equals, not_text}  # no output file


@pytest.mark.parametrize(
    "flag, value, plain",
    [("--x0", "-1e1", "-10.0"), ("--x0", "-1E+1", "-10.0"), ("--tmin", "-2.5e-1", "-0.25")],
)
def test_negative_exponent_values_are_values(tmp_path, flag, value, plain):
    code, out = run_cli(tmp_path, "moments", flag, value, "--nt", "2")
    assert code == 0
    got = out.read_bytes()
    assert run_cli(tmp_path, "moments", f"{flag}={plain}", "--nt", "2")[0] == 0
    assert out.read_bytes() == got
    # a value that is no number is still read as an option
    assert run_cli(tmp_path, "moments", flag, value + "x", "--nt", "2")[0] == 2


@pytest.mark.parametrize(
    "argv, lead",
    [
        (["moments", "--kind", "bouncer", "--x0", "1"], "kind=bouncer: "),
        (["moments", "--kind", "bouncer", "--x0", "0", "--p0", "0"], "kind=bouncer: "),
        (["density", "--kind", "wall", "--p0", "2"], "kind=wall: "),
        (["autocorr", "--kind", "wall", "--x0", "-1"], "kind=wall: "),
        # PacketParams's own checks hold for every kind, so they name none
        (["moments", "--kind", "bouncer", "--alpha", "-1"], "alpha must be positive, got -1.0\n"),
    ],
)
def test_kind_rejection_names_the_kind(tmp_path, capsys, argv, lead):
    assert run_cli(tmp_path, *argv)[0] == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {lead}") and err.count("\n") == 1, err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--help"], ["density", "--help"], ["validate", "-h"]])
def test_help_returns_zero(capsys, argv):
    # help is printed to stdout and main returns 0 rather than raising SystemExit
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: wallbounce") and captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--xmin", "-60", "--nx", "101", "--nt", "2"],
        ["moments", "--kind", "free", "--nt", "2"],
        ["autocorr", "--kind", "free", "--nt", "2"],
    ],
)
def test_units_name_each_commands_columns(tmp_path, argv):
    code, out = run_cli(tmp_path, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out.read_text())
    columns = payload["metadata"]["units"]["columns"]
    assert list(columns) == list(payload["records"][0])
    assert all(isinstance(unit, str) and unit for unit in columns.values())


def test_validate_text_columns_have_no_units(tmp_path):
    code, out = run_cli(tmp_path, "validate", "--criteria", "C03", "--format", "json")
    assert code == 0
    payload = json.loads(out.read_text())
    columns = payload["metadata"]["units"]["columns"]
    assert list(columns) == ["id", "passed", "description", "detail"] == list(payload["records"][0])
    assert all(unit is None for unit in columns.values())


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--tmax", "1e4"],  # the automatic grid would take 7.7e6 points
        ["moments", "--tmax", "1e4"],  # 1.4e8 points
        ["density", "--xmin", "-50", "--nx", "100000001"],
        ["moments", "--tmax", "300"],  # 4.31e6 points, over the budget
        ["autocorr", "--tmax", "1e4"],
        ["density", "--xmin", "-50", "--nx", "1000"],  # even
        # pad * beta_t is below the spacing of doubles at x0: the window has no width
        ["autocorr", "--kind", "free", "--x0=-0.005", "--p0", "1.5e129", "--alpha", "3.7e46",
         "--hbar", "5.3e-79", "--mass", "8.5e-157", "--tmax", "0", "--nt", "1"],
    ],
)
def test_bad_grid_exits_two(tmp_path, capsys, argv):
    assert run_cli(tmp_path, *argv)[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid grid") and err.count("\n") == 1
    # only density takes a grid, so only its refusal suggests one
    assert ("--xmin" in err and "--nx" in err) == (argv[0] == "density"), err
    # a window with no width names the packet width that rounding lost
    assert ("beta_t = 1.96e-32" in err) == ("--alpha" in argv), err


def test_large_window_runs_within_the_budget(tmp_path):
    # 2.1e6 points: the 6th-order momentum oracle lets the grid spacing double,
    # so this window, once 4.2e6 points and refused, now fits; <p> is +-p0
    code, out = run_cli(tmp_path, "moments", "--tmax", "147", "--nt", "2")
    assert code == 0
    rows = read_csv(out)[1]
    assert [float(r["t"]) for r in rows] == [0.0, 147.0]
    for r, p_mean in zip(rows, (5.0, -5.0)):
        assert abs(float(r["p_mean_numeric"]) - p_mean) <= 1e-12 * abs(p_mean), r


def test_validate_subset_passes(tmp_path):
    code, out = run_cli(
        tmp_path, "validate", "--criteria", "C03,C09,C10", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out.read_text())
    ids = [r["id"] for r in payload["records"]]
    assert ids == ["C03", "C09", "C10"]
    assert all(r["passed"] for r in payload["records"])


def test_validate_failed_gate_still_writes_its_report(tmp_path, failing_c02):
    # exit 1 is a complete report, so it lands in --out
    code, out = run_cli(tmp_path, "validate", "--criteria", "C02,C03")
    assert code == 1
    _, rows = read_csv(out)
    assert [(r["id"], r["passed"]) for r in rows] == [("C02", "false"), ("C03", "true")]
    assert "TailCaptureError" in rows[0]["detail"]


def _narrow_grid(monkeypatch, x_min, n_points):
    """Make window_grid give [x_min, 0] on the half line and [x_min, -x_min]
    on the full line, with n_points points; [-3, 0] or [-3, 3] is too narrow
    for the default packets, so a run on it must end in a numerical failure
    (exit 1)."""

    def narrow(params, t_min, t_max, *, half_line, **_):
        return GridSpec(x_min, n_points, 0.0 if half_line else -x_min)

    monkeypatch.setattr(cli, "window_grid", narrow)


#: failing runs and their exit codes; each exit-1 run is made on a narrow grid
FAILING_RUNS = [
    (["density", "--tmax", "1e4"], 2),  # grid over budget
    (["moments", "--kind", "bouncer"], 1),  # the grid cuts the packet: a numerical failure
    (["autocorr", "--kind", "free", "--nt", "3"], 1),  # the overlap refuses the grid
]


@pytest.mark.parametrize("argv,code", FAILING_RUNS)
def test_failed_run_leaves_no_file(tmp_path, monkeypatch, argv, code):
    if code == 1:
        _narrow_grid(monkeypatch, -3.0, 101)
    assert run_cli(tmp_path, *argv)[0] == code
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,code", FAILING_RUNS)
def test_failed_run_keeps_existing_file(tmp_path, monkeypatch, argv, code):
    if code == 1:
        _narrow_grid(monkeypatch, -3.0, 101)
    out = tmp_path / "out.dat"
    out.write_bytes(b"earlier output\r\n")
    assert run_cli(tmp_path, *argv)[0] == code
    assert out.read_bytes() == b"earlier output\r\n"
    assert list(tmp_path.iterdir()) == [out]


def test_successful_run_replaces_file_whole(tmp_path):
    out = tmp_path / "out.dat"
    out.write_bytes(b"earlier output that is longer than nothing\r\n" * 1000)
    assert run_cli(tmp_path, "autocorr", "--kind", "free", "--nt", "3")[0] == 0
    assert out.read_bytes().startswith(b"# command=autocorr")
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifo_target_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["autocorr", "--kind", "free", "--nt", "3", "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert received and received[0].startswith(b"# command=autocorr")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def _closed_forms(kind, t):
    """(x2, p2) and psi(x, t) of each kind, called in process at alpha = 1.3."""
    from wallbounce import (
        BouncerParams, PacketParams, SpecialParams, free_moments, momentum_second_moment,
        node_packet_moments, position_second_moment, psi_bouncer, psi_free,
        psi_node_packet, psi_wall_packet, wall_packet_moments,
    )

    pp = PacketParams(x0=0.0, p0=0.0, alpha=1.3) if kind == "wall" else PacketParams(-10.0, 5.0, 1.3)
    sp = SpecialParams(beta=pp.beta, x0=pp.x0, p0=pp.p0)
    if kind == "free":
        m = free_moments(pp, t)
        return (m.x2_mean, m.p2_mean), lambda x: psi_free(pp, x, t)
    if kind == "free-node":
        m = node_packet_moments(sp, t)
        return (m.x2_mean, m.p2_mean), lambda x: psi_node_packet(sp, x, t)
    if kind == "wall":
        m = wall_packet_moments(sp, t)
        return (m.x2_mean, m.p2_mean), lambda x: psi_wall_packet(sp, x, t)
    bp = BouncerParams(pp)
    x2 = (position_second_moment(bp, t), momentum_second_moment(bp))
    return x2, lambda x: psi_bouncer(bp, x, t)


@pytest.mark.parametrize(
    "command,kind",
    [(c, k) for c in ("moments", "density") for k in ("free", "free-node", "bouncer", "wall")]
    + [("autocorr", "free"), ("autocorr", "bouncer")],
)
def test_every_kind_matches_its_closed_forms(tmp_path, command, kind):
    from wallbounce import BouncerParams, PacketParams, autocorrelation_bouncer, autocorrelation_free

    code, out = run_cli(
        tmp_path, command, "--kind", kind, "--alpha", "1.3", "--tmax", "1.5", "--nt", "3",
    )
    assert code == 0
    _, rows = read_csv(out)
    ts = sorted({float(r["t"]) for r in rows})
    assert ts == [0.0, 0.75, 1.5]
    for t in ts:
        slice_ = [r for r in rows if float(r["t"]) == t]
        (x2, p2), psi = _closed_forms(kind, t)
        if command == "moments":
            (row,) = slice_
            assert (float(row["x2_exact"]), float(row["p2_exact"])) == (x2, p2)
        elif command == "density":
            xs = np.array([float(r["x"]) for r in slice_])
            density = np.array([float(r["density"]) for r in slice_])
            assert xs.size > 100
            np.testing.assert_array_equal(density, np.abs(psi(xs)) ** 2)
        else:
            (row,) = slice_
            pp = PacketParams(-10.0, 5.0, 1.3)
            a = autocorrelation_free(pp, t) if kind == "free" else autocorrelation_bouncer(
                BouncerParams(pp), t
            )
            assert complex(float(row["re_exact"]), float(row["im_exact"])) == a


@pytest.mark.parametrize(
    "argv",
    [
        # (alpha*p0)**2 overflows where p0**2*t/(mass*hbar) does not
        ["--kind", "free", "--x0=-0.005", "--p0", "1.5e129", "--alpha", "3.7e46", "--hbar", "5.3e-79",
         "--mass", "8.5e-157"],
        # the phase-space distance is infinite, or subnormal
        ["--kind", "bouncer", "--x0", "-10", "--p0", "1e60", "--alpha", "1e100", "--hbar", "1e-100"],
        ["--kind", "bouncer", "--x0=-1e-176", "--p0=-3.2e-160", "--alpha", "361.8", "--hbar", "0.0025"],
    ],
)
def test_autocorr_exact_columns_at_extreme_scales(tmp_path, monkeypatch, argv):
    # no automatic grid holds the first two packets, so every case runs on a
    # fixed 401-point grid from x = -20
    _narrow_grid(monkeypatch, -20.0, 401)
    code, out = run_cli(tmp_path, "autocorr", *argv, "--tmax", "0", "--nt", "1")
    assert code == 0
    (row,) = read_csv(out)[1]
    assert [float(row[k]) for k in ("re_exact", "im_exact", "abs2_exact")] == [1.0, 0.0, 1.0]


def test_autocorr_exact_columns_at_a_subnormal_distance(tmp_path):
    # the one packet of the extreme-scale cases that an automatic grid holds
    argv = ["--kind", "bouncer", "--x0=-1e-176", "--p0=-3.2e-160", "--alpha", "361.8", "--hbar", "0.0025"]
    code, out = run_cli(tmp_path, "autocorr", *argv, "--tmax", "0", "--nt", "1")
    assert code == 0
    (row,) = read_csv(out)[1]
    assert [float(row[k]) for k in ("re_exact", "im_exact", "abs2_exact")] == [1.0, 0.0, 1.0]


def test_stdout_output(capsys):
    code = main(["autocorr", "--nt", "3", "--tmax", "1", "--kind", "free"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# command=autocorr")



#: one argument made bad, and the exit code it must give
BAD_VALUES = [
    (["--alpha", "-1"], 2),
    (["--hbar", "0"], 2),
    (["--mass", "-2"], 2),
    (["--nt", "0"], 2),
    (["--tmax", "inf"], 2),
    (["--tmin", "nan"], 2),
    (["--tmin", "2", "--tmax", "1"], 2),
    (["--xmin", "-20"], 2),  # without --nx
    (["--xmin", "-20", "--nx", "1000"], 2),  # even
    (["--xmin", "5", "--nx", "101"], 2),  # x_min >= x_max
    (["--tmax", "1e4"], 2),  # the automatic grid is over budget
    (["--x0", "2"], 2),  # the wall packet and the bouncer sit at x <= 0
]


def _sweep_requests(n=40, seed=20261018):
    """Seeded budget-sized CLI requests: every command and kind, custom units,
    time windows on both sides of t = 0, and about a third with a bad value.
    Each comes with True where it is to run on a grid that cuts the packet."""
    rng = np.random.default_rng(seed)
    kinds = ["free", "free-node", "bouncer", "wall"]
    for command in rng.permutation(np.repeat(["density", "moments", "autocorr", "validate"], n // 4)):
        command = str(command)
        if command == "validate":
            ids = rng.choice(["C03", "C09", "C10", "C99", " "], size=rng.integers(1, 3), replace=False)
            argv = ["validate", "--criteria", ",".join(ids)]
            if rng.random() < 0.2:  # the gates take no grid: a bad argument
                argv = ["validate", "--criteria", "C02", "--xmin", "-20", "--nx", "4001"]
            yield argv, False
            continue
        kind = kinds[rng.integers(4)]
        argv = [command, "--kind", kind]
        if kind != "wall":
            argv += ["--x0", f"{rng.uniform(-6.0, -1.0):.3f}", "--p0", f"{rng.uniform(0.5, 4.0):.3f}"]
        argv += ["--alpha", f"{rng.uniform(0.7, 1.5):.3f}"]
        if rng.random() < 0.5:
            argv += ["--hbar", f"{rng.uniform(0.6, 1.6):.3f}", "--mass", f"{rng.uniform(0.6, 1.6):.3f}"]
        tmin = rng.uniform(-1.0, 1.0) if rng.random() < 0.5 else 0.0
        argv += ["--tmin", f"{tmin:.3f}", "--tmax", f"{tmin + rng.uniform(0.0, 3.0):.3f}"]
        argv += ["--nt", str(rng.integers(1, 4)), "--format", ["csv", "json"][rng.integers(2)]]
        cut = False
        if rng.random() < 0.35:
            bad, _ = BAD_VALUES[rng.integers(len(BAD_VALUES))]
            argv += bad
        elif command == "moments" and rng.random() < 0.4:
            cut = True  # a numerical failure
        yield argv, cut


def test_exit_code_sweep(tmp_path, monkeypatch, capsys):
    # every request exits 0, 1 or 2 without raising; a failure says why in
    # one stderr line (besides validate's "running ..." progress lines)
    # and leaves no output file unless it is a validate report
    out = tmp_path / "out.dat"
    codes = []
    for argv, cut in _sweep_requests():
        try:
            with monkeypatch.context() as patch:
                if cut:
                    _narrow_grid(patch, -2.0, 1001)
                code = main(argv + ["--out", str(out)])
        except BaseException as exc:  # SystemExit included
            pytest.fail(f"{argv} raised {exc!r}")
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("running C")]
        assert code in (0, 1, 2), argv
        if code:
            assert len(err) == 1, (argv, err)
            assert out.exists() == (argv[0] == "validate" and code == 1), argv
        else:
            assert out.stat().st_size > 0
        out.unlink(missing_ok=True)
        codes.append(code)
    assert len(codes) == 40 and set(codes) == {0, 1, 2}


def test_closed_forms_finite_at_window_ends():
    # seeded requests over every kind, with alpha, hbar, mass, |x0|, p0 and
    # tmax each log-uniform over 1e-200 to 1e200 half the time: wherever
    # _resolve accepts one, every closed form at the window's ends is finite
    from wallbounce.cli import _KINDS, KINDS, CliError, _parser, _resolve

    rng = np.random.default_rng(20261019)

    def scale():
        decades = 200.0 if rng.random() < 0.5 else 3.0
        return float(10.0 ** rng.uniform(-decades, decades))

    accepted = 0
    for _ in range(1000):
        kind = KINDS[rng.integers(len(KINDS))]
        argv = ["moments", "--kind", kind, "--nt", "2"]
        argv += [f"--{name}={scale()!r}" for name in ("alpha", "hbar", "mass", "tmax")]
        if rng.random() < 0.25:
            argv.append(f"--tmin={-scale()!r}")
        if kind != "wall":  # the wall packet takes x0 = p0 = 0 only
            x0 = -scale() if kind == "bouncer" or rng.random() < 0.5 else scale()
            p0 = scale() if rng.random() < 0.5 else -scale()
            argv += [f"--x0={x0!r}", f"--p0={p0!r}"]
        try:
            cfg = _resolve(_parser().parse_args(argv))
        except CliError:
            continue
        accepted += 1
        closed = _KINDS[kind]
        for t in (cfg.tmin, cfg.tmax):
            values = [v for v in closed.exact(cfg.params, t) if v is not None]
            if closed.autocorr is not None:
                values.append(closed.autocorr(cfg.params, t))
            assert all(map(cmath.isfinite, values)), (argv, t, values)
    assert accepted > 400
