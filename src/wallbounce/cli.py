"""Command-line interface: densities, moment time-series, autocorrelation, validation.

Data goes to the output file (or stdout); diagnostics go to stderr.
Exit codes: 0 success, 1 validation/numerical failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .bouncer import (
    BouncerParams,
    DegenerateMirrorError,
    autocorrelation_bouncer,
    in_expansion_window,
    momentum_second_moment,
    position_second_moment,
    psi_bouncer,
    x_mean_near_collision,
)
from .oracle import (
    GridSpec,
    StencilConvergenceError,
    TailCaptureError,
    full_line_grid,
    half_line_grid,
    moment_p,
    moment_x,
    overlap,
    sample,
)
from .packets import PacketParams, autocorrelation_free, free_moments, psi_free
from .special import (
    node_packet_moments,
    psi_node_packet,
    psi_wall_packet,
    wall_packet_moments,
)
from .validation import CRITERION_IDS, run_all

SCHEMA_VERSION = 1
#: rows joined into one write: a density chunk then stays near 50 kB, small
#: enough for the allocator to reuse one block instead of mapping fresh pages
_ROWS_PER_WRITE = 512
_CONFIG_KEYS = {
    "kind", "x0", "p0", "alpha", "hbar", "mass",
    "tmin", "tmax", "nt", "xmin", "nx", "format", "out",
}


class _Kind(NamedTuple):
    """What the commands use of one solution family.

    Each function takes the run's PacketParams first.  The entries below
    call library functions by their names in this module at call time, so
    rebinding a name here (as a tracer does) reaches every kind.
    """

    psi: Callable  # (params, x, t) -> psi(x, t)
    exact: Callable  # (params, t) -> (<x^2>, <p^2>, classical <x>, near-wall <x> or None)
    half_line: bool
    autocorr: Callable | None  # (params, t) -> A(t), or None without a closed form


def _from_moments(m, classical):
    return m.x2_mean, m.p2_mean, classical, None


def _bouncer_exact(params: PacketParams, t: float):
    bp = BouncerParams(params)
    approx = x_mean_near_collision(bp, t) if in_expansion_window(bp, t) else None
    return position_second_moment(bp, t), momentum_second_moment(bp), -abs(params.center(t)), approx


_KINDS = {
    "free": _Kind(
        lambda p, x, t: psi_free(p, x, t),
        lambda p, t: _from_moments(free_moments(p, t), p.center(t)),
        False,
        lambda p, t: autocorrelation_free(p, t),
    ),
    "free-node": _Kind(
        lambda p, x, t: psi_node_packet(p, x, t),
        lambda p, t: _from_moments(node_packet_moments(p, t), p.center(t)),
        False,
        None,
    ),
    "bouncer": _Kind(
        lambda p, x, t: psi_bouncer(BouncerParams(p), x, t),
        _bouncer_exact,
        True,
        lambda p, t: autocorrelation_bouncer(BouncerParams(p), t),
    ),
    # the wall packet sits at the origin, so its classical <x> is the wall
    "wall": _Kind(
        lambda p, x, t: psi_wall_packet(p, x, t),
        lambda p, t: _from_moments(wall_packet_moments(p, t), 0.0),
        True,
        None,
    ),
}
KINDS = tuple(_KINDS)


class CliError(Exception):
    """Bad arguments or configuration (exit code 2)."""


@dataclass
class RunConfig:
    command: str
    kind: str
    params: PacketParams
    tmin: float
    tmax: float
    nt: int
    xmin: float | None
    nx: int | None
    format: str
    out: str
    criteria: list[str] | None = None


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise CliError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(args) -> RunConfig:
    file_values = _load_config_file(args.config) if args.config else {}

    def pick(name, cast, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_values:
            try:
                return cast(file_values[name])
            except ValueError as exc:
                raise CliError(f"config value {name}={file_values[name]!r}: {exc}") from exc
        return default

    kind = pick("kind", str, "bouncer")
    if kind not in KINDS:
        raise CliError(f"unknown kind {kind!r}; choose from {', '.join(KINDS)}")
    # the wall packet is pinned at the origin; other kinds default to a
    # representative bouncing configuration (offset -10 beta, momentum 5)
    default_x0, default_p0 = (0.0, 0.0) if kind == "wall" else (-10.0, 5.0)
    x0 = pick("x0", float, default_x0)
    p0 = pick("p0", float, default_p0)
    alpha = pick("alpha", float, 1.0)
    hbar = pick("hbar", float, 1.0)
    mass = pick("mass", float, 1.0)
    try:
        params = PacketParams(x0=x0, p0=p0, alpha=alpha, hbar=hbar, mass=mass)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if kind == "wall" and (x0 != 0.0 or p0 != 0.0):
        raise CliError("kind=wall requires x0 = 0 and p0 = 0")
    if kind == "bouncer":
        if x0 > 0.0:
            raise CliError("kind=bouncer requires x0 <= 0 (wall at x = 0)")
        if x0 == 0.0 and p0 == 0.0:
            raise CliError(
                "kind=bouncer is degenerate at x0 = p0 = 0; use kind=wall instead"
            )

    tc = -mass * x0 / p0 if (x0 < 0.0 and p0 > 0.0) else None
    default_tmax = 2.0 * tc if (kind == "bouncer" and tc is not None) else 4.0 * params.t0
    tmin = pick("tmin", float, 0.0)
    tmax = pick("tmax", float, default_tmax)
    nt = pick("nt", int, 9 if args.command == "density" else 33)
    if not (math.isfinite(tmin) and math.isfinite(tmax)):
        raise CliError(f"tmin and tmax must be finite, got tmin = {tmin}, tmax = {tmax}")
    if tmin > tmax:
        raise CliError(f"tmin = {tmin} must be <= tmax = {tmax}")
    if nt < 1:
        raise CliError(f"nt must be >= 1, got {nt}")
    xmin = pick("xmin", float, None)
    nx = pick("nx", int, None)
    if (xmin is None) != (nx is None):
        raise CliError("--xmin and --nx must be given together")
    fmt = pick("format", str, "csv")
    if fmt not in ("csv", "json"):
        raise CliError(f"unknown format {fmt!r}; choose csv or json")
    out = pick("out", str, "-")
    criteria = None
    if getattr(args, "criteria", None) is not None:
        criteria = [c.strip() for c in args.criteria.split(",") if c.strip()]
        if not criteria:
            raise CliError(f"--criteria names no criterion; choose from {', '.join(CRITERION_IDS)}")
        unknown = set(criteria) - set(CRITERION_IDS)
        if unknown:
            raise CliError(f"unknown criteria: {', '.join(sorted(unknown))}")
    return RunConfig(
        command=args.command, kind=kind, params=params, tmin=tmin, tmax=tmax, nt=nt,
        xmin=xmin, nx=nx, format=fmt, out=out, criteria=criteria,
    )


def _wavefunction(cfg: RunConfig):
    return partial(_KINDS[cfg.kind].psi, cfg.params)


def _invalid_grid(exc: ValueError) -> CliError:
    return CliError(f"invalid grid: {exc}; choose one with --xmin and an odd --nx")


def _grid(
    cfg: RunConfig,
    t_lo: float | None = None,
    t_hi: float | None = None,
    points_per_beta: float | None = None,
) -> GridSpec:
    if t_lo is None:
        t_lo = cfg.tmin
    if t_hi is None:
        t_hi = cfg.tmax
    half_line = _KINDS[cfg.kind].half_line
    try:
        if cfg.xmin is not None:
            return GridSpec(cfg.xmin, cfg.nx, 0.0 if half_line else -cfg.xmin)
        if half_line:
            t_edge = max(abs(t_lo), abs(t_hi))
            return half_line_grid(cfg.params, t_edge, points_per_beta=points_per_beta)
        return full_line_grid(cfg.params, t_lo, t_hi, points_per_beta=points_per_beta)
    except ValueError as exc:
        raise _invalid_grid(exc) from exc


def _times(cfg: RunConfig) -> list[float]:
    return np.linspace(cfg.tmin, cfg.tmax, cfg.nt).tolist()


def _metadata(cfg: RunConfig, grid: GridSpec | None) -> dict:
    p = cfg.params
    natural = p.hbar == 1.0 and p.mass == 1.0
    meta = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "params": {
            "kind": cfg.kind, "x0": p.x0, "p0": p.p0, "alpha": p.alpha,
            "hbar": p.hbar, "mass": p.mass,
            "tmin": cfg.tmin, "tmax": cfg.tmax, "nt": cfg.nt,
        },
        "units": {
            "system": "natural (hbar = mass = 1)" if natural else "custom",
            "hbar": p.hbar,
            "mass": p.mass,
            "columns": {"t": "time", "x": "length", "density": "1/length"},
        },
    }
    if grid is not None:
        meta["grid"] = {"x_min": grid.x_min, "x_max": grid.x_max, "n_points": grid.n_points}
    return meta


def _fmt_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _floats(values) -> list | None:
    """The column as a list of Python floats, or None if any value is not a float."""
    if isinstance(values, np.ndarray):
        return values.tolist() if values.dtype == np.float64 else None
    return values if all(type(v) is float for v in values) else None


def _csv_column(values) -> tuple[list[str], bool]:
    """CSV fields of one column, and whether they are all floats (never quoted)."""
    floats = _floats(values)
    if floats is None:
        return list(map(_fmt_value, values)), False
    return list(map("%.17g".__mod__, floats)), True


def _json_column(values) -> tuple[list[str], bool]:
    """JSON texts of one column: finite floats by float.__repr__, as json writes
    them, anything else by json.dumps; and whether they are all finite floats."""
    floats = _floats(values)
    if floats is not None and all(map(math.isfinite, floats)):
        return list(map(float.__repr__, floats)), True
    return list(map(json.dumps, values)), False


def _write(cfg: RunConfig, blocks: Iterable[dict], meta: dict, stream):
    """Write blocks of rows to stream as CSV or JSON, one block at a time.

    Each block is a {name: column} dict with the same names in output
    order.  A column is a sequence with one value per row of the block,
    or a single value that stands for every row.  Columns are formatted
    whole, and a column that is the same object as in the previous block
    (the density grid) is formatted only once.  Only the current block's
    texts are held, and rows go out _ROWS_PER_WRITE at a time, so memory
    does not grow with the number of blocks.  The first block is taken
    before anything is written, so a request that fails there writes
    nothing.  The bytes are those of csv.writer, and
    of json.dumps(payload, indent=2) over all the records.
    """
    blocks = iter(blocks)
    first = next(blocks)
    names = tuple(first)
    json_out = cfg.format == "json"
    if json_out:
        payload = {"schema_version": SCHEMA_VERSION, "metadata": meta, "records": []}
        head, _, tail = json.dumps(payload, indent=2).rpartition("[]")
        stream.write(head)
        keys = (json.dumps(name).replace("%", "%%") for name in names)
        row = "    {\n" + ",\n".join(f"      {key}: %s" for key in keys) + "\n    }"
        opened = False  # whether "[" and a first record are written
    else:
        for key in ("command", "schema_version"):
            stream.write(f"# {key}={meta[key]}\r\n")
        for section in ("params", "grid"):
            if section in meta:
                parts = ",".join(f"{k}={_fmt_value(v)}" for k, v in meta[section].items())
                stream.write(f"# {section}: {parts}\r\n")
        stream.write(f"# units: {meta['units']['system']}\r\n")
        writer = csv.writer(stream, lineterminator="\r\n")
        writer.writerow(names)
        row = ",".join(["%s"] * len(names)) + "\r\n"
    format_column = _json_column if json_out else _csv_column
    formatted = {}  # name -> (column, its texts, all floats)
    for block in chain((first,), blocks):
        texts, plain = [], True
        for name, values in block.items():
            if isinstance(values, (list, tuple, np.ndarray)):
                if formatted.get(name, (None,))[0] is not values:
                    formatted[name] = (values, *format_column(values))
                _, text, floats = formatted[name]
            else:
                (one,), floats = format_column([values])
                text = repeat(one)
            texts.append(text)
            plain = plain and floats
        rows = zip(*texts)
        if json_out:
            lines = map(row.__mod__, rows)
            while chunk := ",\n".join(islice(lines, _ROWS_PER_WRITE)):
                stream.write(",\n" if opened else "[\n")
                stream.write(chunk)
                opened = True
        elif plain:
            lines = map(row.__mod__, rows)
            while chunk := "".join(islice(lines, _ROWS_PER_WRITE)):
                stream.write(chunk)
        else:
            writer.writerows(rows)  # quotes str fields as RFC 4180 asks
    if json_out:
        stream.write(("\n  ]" if opened else "[]") + tail + "\n")


def cmd_density(cfg: RunConfig, stream) -> int:
    # plotting resolution, not quadrature resolution (override with --nx);
    # still fine enough that Simpson sums of the rows reach ~1e-5 of unity
    grid = _grid(cfg, points_per_beta=64.0)
    psi = _wavefunction(cfg)
    xs = grid.points()
    # one slice per time; the grid column is the same array in every slice
    slices = ({"t": t, "x": xs, "density": np.abs(psi(xs, t)) ** 2} for t in _times(cfg))
    _write(cfg, slices, _metadata(cfg, grid), stream)
    return 0


def cmd_moments(cfg: RunConfig, stream) -> int:
    grid = _grid(cfg)
    psi = _wavefunction(cfg)
    ts = _times(cfg)
    x_num, p_num = [], []
    for t in ts:
        state = sample(psi, grid, t)
        x_num.append(moment_x(state, 1))
        p_num.append(moment_p(state, 1, hbar=cfg.params.hbar, rtol=1e-4))
    exact = _KINDS[cfg.kind].exact
    x2, p2, classical, approx = zip(*(exact(cfg.params, t) for t in ts))
    columns = {
        "t": ts,
        "x_mean_numeric": x_num,
        "x_mean_classical": classical,
        "x_mean_near_wall_approx": approx,
        "p_mean_numeric": p_num,
        "x2_exact": x2,
        "p2_exact": p2,
    }
    _write(cfg, [columns], _metadata(cfg, grid), stream)
    return 0


def cmd_autocorr(cfg: RunConfig, stream) -> int:
    closed = _KINDS[cfg.kind].autocorr
    if closed is None:
        with_closed = ", ".join(k for k, kind in _KINDS.items() if kind.autocorr)
        raise CliError(f"autocorr has no closed form for kind {cfg.kind!r}; choose {with_closed}")
    # the reference state lives at t = 0, which the grid must cover even
    # when the requested window starts later
    grid = _grid(cfg, t_lo=min(0.0, cfg.tmin), t_hi=max(0.0, cfg.tmax))
    psi = _wavefunction(cfg)
    ref = sample(psi, grid, 0.0)
    ts = _times(cfg)
    exact = [closed(cfg.params, t) for t in ts]
    numeric = [overlap(ref, sample(psi, grid, t)) for t in ts]
    columns = {
        "t": ts,
        "re_exact": [a.real for a in exact],
        "im_exact": [a.imag for a in exact],
        "abs2_exact": [abs(a) ** 2 for a in exact],
        "re_numeric": [a.real for a in numeric],
        "im_numeric": [a.imag for a in numeric],
    }
    _write(cfg, [columns], _metadata(cfg, grid), stream)
    return 0


def cmd_validate(cfg: RunConfig, stream) -> int:
    try:
        override = GridSpec(cfg.xmin, cfg.nx, 0.0) if cfg.xmin is not None else None
    except ValueError as exc:
        raise _invalid_grid(exc) from exc
    results = run_all(
        grid_override=override,
        criteria=cfg.criteria,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    columns = {
        "id": [r.cid for r in results],
        "passed": [r.passed for r in results],
        "description": [r.description for r in results],
        "detail": [r.detail for r in results],
    }
    _write(cfg, [columns], _metadata(cfg, None), stream)
    failed = [r.cid for r in results if not r.passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} criteria passed"
        + (f"; FAILED: {', '.join(failed)}" if failed else ""),
        file=sys.stderr,
    )
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallbounce",
        description=(
            "Gaussian wave packets against a hard wall at x = 0: evaluate "
            "densities, moment time-series and autocorrelations from closed "
            "forms, cross-checked by grid quadrature, or run the validation suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "density": "probability-density snapshots (t, x, |psi|^2)",
        "moments": "moment time-series: numeric vs closed-form columns",
        "autocorr": "autocorrelation, closed form plus numeric overlap",
        "validate": "run the acceptance criteria and report pass/fail",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--kind", choices=KINDS, help="solution family (default bouncer)")
        p.add_argument("--x0", type=float, help="initial center (default -10)")
        p.add_argument("--p0", type=float, help="initial momentum (default 5)")
        p.add_argument("--alpha", type=float, help="momentum-space width parameter (default 1)")
        p.add_argument("--hbar", type=float, help="action quantum (default 1)")
        p.add_argument("--mass", type=float, help="mass (default 1)")
        p.add_argument("--tmin", type=float, help="first time (default 0)")
        p.add_argument("--tmax", type=float, help="last time (default: twice the collision time)")
        p.add_argument("--nt", type=int, help="number of time samples")
        p.add_argument("--xmin", type=float, help="grid left edge override")
        p.add_argument("--nx", type=int, help="grid point count override (odd)")
        p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        p.add_argument("--out", help="output path, '-' for stdout (default)")
        p.add_argument("--config", help="key=value config file; flags override it")
        if name == "validate":
            p.add_argument(
                "--criteria",
                help="comma-separated criterion ids to run (default: all)",
            )
    return parser


def _run(handler, cfg: RunConfig) -> int:
    """Run one command into cfg.out, which gets the whole output or none of it:
    a new file beside the target replaces it when the command returns, exit 1
    included, and is removed if it raises.  A FIFO or device is written in place."""
    if cfg.out == "-":
        return handler(cfg, sys.stdout)
    target = os.path.realpath(cfg.out)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", newline="") as stream:
            return handler(cfg, stream)
    partial_path = f"{target}.{os.getpid()}.part"
    stream = open(partial_path, "x", newline="")  # "x": a new file, mode from the umask
    try:
        with stream:
            code = handler(cfg, stream)
        os.replace(partial_path, target)
    except BaseException:
        os.unlink(partial_path)
        raise
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "density": cmd_density,
        "moments": cmd_moments,
        "autocorr": cmd_autocorr,
        "validate": cmd_validate,
    }
    try:
        return _run(handlers[args.command], _resolve(args))
    except (CliError, DegenerateMirrorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TailCaptureError, StencilConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
