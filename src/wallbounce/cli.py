"""Command-line interface: densities, moment time-series, autocorrelation, validation.

Data goes to the output file (or stdout); diagnostics go to stderr.
Exit codes: 0 success, 1 validation/numerical failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, islice, repeat
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .bouncer import (
    BouncerParams,
    autocorrelation_bouncer,
    in_expansion_window,
    mirror_normalization,
    momentum_second_moment,
    position_second_moment,
    psi_bouncer,
    x_mean_near_collision,
)
from .oracle import (
    MAX_GRID_POINTS,
    GridSpec,
    StencilConvergenceError,
    TailCaptureError,
    moment_p,
    moment_x,
    overlap,
    sample,
    window_grid,
)
from .packets import PacketParams, autocorrelation_free, free_moments, psi_free
from .special import (
    _require_zero_offset,
    node_packet_moments,
    psi_node_packet,
    psi_wall_packet,
    wall_packet_moments,
)
from .validation import CRITERION_IDS, run_all

SCHEMA_VERSION = 1
#: the unit of each physical output column; validate's text columns have none
_COLUMN_UNITS = {
    "t": "time",
    "x": "length",
    "density": "1/length",
    "x_mean_numeric": "length",
    "x_mean_classical": "length",
    "x_mean_near_wall_approx": "length",
    "p_mean_numeric": "momentum",
    "x2_exact": "length^2",
    "p2_exact": "momentum^2",
    "re_exact": "1",
    "im_exact": "1",
    "abs2_exact": "1",
    "re_numeric": "1",
    "im_numeric": "1",
}
#: rows joined into one write: a density chunk then stays near 50 kB, small
#: enough for the allocator to reuse one block instead of mapping fresh pages
_ROWS_PER_WRITE = 512


class _Kind(NamedTuple):
    """What the commands use of one solution family.

    Each function takes the run's PacketParams first.  default is the
    (x0, p0) a run uses when it gives none, and check is the library's own
    admissibility check for the kind, which raises ValueError for
    parameters the kind cannot take.  The entries below call library
    functions by their names in this module at call time, so rebinding a
    name here (as a tracer does) reaches every kind.
    """

    psi: Callable  # (params, x, t) -> psi(x, t)
    exact: Callable  # (params, t) -> (<x^2>, <p^2>, classical <x>, near-wall <x> or None)
    half_line: bool
    autocorr: Callable | None  # (params, t) -> A(t), or None without a closed form
    default: tuple[float, float]  # (x0, p0)
    check: Callable | None  # (params) -> raises ValueError, or None if any params will do


def _from_moments(m, classical):
    return m.x2_mean, m.p2_mean, classical, None


def _bouncer_exact(params: PacketParams, t: float):
    approx = x_mean_near_collision(params, t) if in_expansion_window(params, t) else None
    return position_second_moment(params, t), momentum_second_moment(params), -abs(params.center(t)), approx


#: a representative bouncing configuration: offset -10 beta, momentum 5
_BOUNCING = (-10.0, 5.0)

_KINDS = {
    "free": _Kind(
        lambda p, x, t: psi_free(p, x, t),
        lambda p, t: _from_moments(free_moments(p, t), p.center(t)),
        False,
        lambda p, t: autocorrelation_free(p, t),
        _BOUNCING,
        None,
    ),
    "free-node": _Kind(
        lambda p, x, t: psi_node_packet(p, x, t),
        lambda p, t: _from_moments(node_packet_moments(p, t), p.center(t)),
        False,
        None,
        _BOUNCING,
        None,
    ),
    "bouncer": _Kind(
        lambda p, x, t: psi_bouncer(p, x, t),
        _bouncer_exact,
        True,
        lambda p, t: autocorrelation_bouncer(p, t),
        _BOUNCING,
        lambda p: mirror_normalization(BouncerParams(p)),
    ),
    # the wall packet is pinned at the origin, so its classical <x> is the wall
    "wall": _Kind(
        lambda p, x, t: psi_wall_packet(p, x, t),
        lambda p, t: _from_moments(wall_packet_moments(p, t), 0.0),
        True,
        None,
        (0.0, 0.0),
        lambda p: _require_zero_offset(p),
    ),
}
KINDS = tuple(_KINDS)


class CliError(Exception):
    """Bad arguments or configuration (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises CliError where argparse would print its
    usage and exit, so every rejected input is one line and exit code 2.
    A negative number in exponent notation (--x0 -1e1) is a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise CliError(message)


_PHYSICS = ("density", "moments", "autocorr")
_ALL = _PHYSICS + ("validate",)
#: every option: the commands that take it and its add_argument keywords.
#: A config file's keys are the same names, except config itself.
_OPTIONS = {
    "kind": (_PHYSICS, dict(choices=KINDS, default="bouncer", help="solution family (default bouncer)")),
    "x0": (_PHYSICS, dict(type=float, help="initial center (default -10)")),
    "p0": (_PHYSICS, dict(type=float, help="initial momentum (default 5)")),
    "alpha": (_PHYSICS, dict(type=float, default=1.0, help="momentum-space width parameter (default 1)")),
    "hbar": (_PHYSICS, dict(type=float, default=1.0, help="action quantum (default 1)")),
    "mass": (_PHYSICS, dict(type=float, default=1.0, help="mass (default 1)")),
    "tmin": (_PHYSICS, dict(type=float, default=0.0, help="first time (default 0)")),
    "tmax": (_PHYSICS, dict(type=float, help="last time (default: twice the collision time)")),
    "nt": (_PHYSICS, dict(type=int, help="number of time samples")),
    "xmin": (("density",), dict(type=float, help="grid left edge override")),
    "nx": (("density",), dict(type=int, help="grid point count override (odd)")),
    "format": (_ALL, dict(choices=("csv", "json"), default="csv", help="output format (default csv)")),
    "out": (_ALL, dict(default="-", help="output path, '-' for stdout (default)")),
    "config": (_ALL, dict(help="key=value config file; flags override it")),
    "criteria": (("validate",), dict(help="comma-separated criterion ids to run (default: all)")),
}


@dataclass
class RunConfig:
    """One checked request; validate leaves the physics fields at None."""

    command: str
    format: str
    out: str
    xmin: float | None = None
    nx: int | None = None
    kind: str | None = None
    params: PacketParams | None = None
    tmin: float | None = None
    tmax: float | None = None
    nt: int | None = None
    criteria: list[str] | None = None


def _config_tokens(command: str, path: str) -> list[str]:
    """The key=value lines of a config file as --key=value flags of command."""
    keys = {name for name, (commands, _) in _OPTIONS.items() if command in commands} - {"config"}
    tokens = []
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
                if key not in keys:
                    raise CliError(f"{path}:{lineno}: unknown key {key!r} for {command}")
                tokens.append(f"--{key}={value.strip()}")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, or not text
        raise CliError(f"{path}: cannot read config file: {exc}") from exc
    return tokens


def _resolve(args) -> RunConfig:
    """Check the parsed flags and fill in the defaults that depend on other values."""
    common = (args.command, args.format, args.out)
    if args.command == "validate":
        criteria = None
        if args.criteria is not None:
            criteria = [c.strip() for c in args.criteria.split(",") if c.strip()]
            if not criteria:
                raise CliError(f"--criteria names no criterion; choose from {', '.join(CRITERION_IDS)}")
            unknown = set(criteria) - set(CRITERION_IDS)
            if unknown:
                raise CliError(f"unknown criteria: {', '.join(sorted(unknown))}")
        return RunConfig(*common, criteria=criteria)

    xmin, nx = getattr(args, "xmin", None), getattr(args, "nx", None)  # only density takes a grid
    if (xmin is None) != (nx is None):
        raise CliError("--xmin and --nx must be given together")
    kind = _KINDS[args.kind]
    x0 = kind.default[0] if args.x0 is None else args.x0
    p0 = kind.default[1] if args.p0 is None else args.p0
    try:
        params = PacketParams(x0=x0, p0=p0, alpha=args.alpha, hbar=args.hbar, mass=args.mass)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if kind.check is not None:
        try:
            kind.check(params)
        except ValueError as exc:
            raise CliError(f"kind={args.kind}: {exc}") from exc

    tc = params.collision_time if kind.half_line else None
    default_tmax = 4.0 * params.t0 if tc is None else 2.0 * tc
    tmin = args.tmin
    tmax = default_tmax if args.tmax is None else args.tmax
    nt = (9 if args.command == "density" else 33) if args.nt is None else args.nt
    if not (math.isfinite(tmin) and math.isfinite(tmax)):
        raise CliError(f"tmin and tmax must be finite, got tmin = {tmin}, tmax = {tmax}")
    if tmin > tmax:
        raise CliError(f"tmin = {tmin} must be <= tmax = {tmax}")
    # the closed-form x moments stay below 2*(X(t)**2 + beta_t**2) and psi's phase
    # is p0**2*t/(m*hbar): the window's ends bound both
    for t in (tmin, tmax):
        tau, x_t = t / params.t0, params.center(t)
        spread = 2.0 * (x_t * x_t + params.beta**2 * (1.0 + tau * tau))
        if not (math.isfinite(spread) and math.isfinite(params.p0**2 * t / (params.mass * params.hbar))):
            raise CliError(f"the packet's position, width or phase overflows at t = {t}; choose a shorter window")
    # bounded before linspace allocates the nt times
    if not 1 <= nt <= MAX_GRID_POINTS:
        raise CliError(f"nt must be between 1 and {MAX_GRID_POINTS}, got {nt}")
    return RunConfig(*common, xmin, nx, args.kind, params, tmin, tmax, nt)


def _wavefunction(cfg: RunConfig):
    return partial(_KINDS[cfg.kind].psi, cfg.params)


def _grid(
    cfg: RunConfig,
    t_lo: float | None = None,
    t_hi: float | None = None,
    points_per_beta: float | None = None,
) -> GridSpec:
    half_line = _KINDS[cfg.kind].half_line
    try:
        if cfg.xmin is not None:
            return GridSpec(cfg.xmin, cfg.nx, 0.0 if half_line else -cfg.xmin)
        return window_grid(
            cfg.params,
            cfg.tmin if t_lo is None else t_lo,
            cfg.tmax if t_hi is None else t_hi,
            half_line=half_line,
            points_per_beta=points_per_beta,
        )
    except ValueError as exc:
        hint = "; choose one with --xmin and an odd --nx" if cfg.command == "density" else ""
        raise CliError(f"invalid grid: {exc}{hint}") from exc


def _times(cfg: RunConfig) -> list[float]:
    return np.linspace(cfg.tmin, cfg.tmax, cfg.nt).tolist()


def _metadata(cfg: RunConfig, grid: GridSpec | None) -> dict:
    """How the output was made; validate, which has no physics flags, has no params.
    _write adds units.columns, the unit of each column it writes."""
    meta = {"schema_version": SCHEMA_VERSION, "command": cfg.command}
    hbar = mass = 1.0
    p = cfg.params
    if p is not None:
        hbar, mass = p.hbar, p.mass
        meta["params"] = {
            "kind": cfg.kind, "x0": p.x0, "p0": p.p0, "alpha": p.alpha,
            "hbar": p.hbar, "mass": p.mass,
            "tmin": cfg.tmin, "tmax": cfg.tmax, "nt": cfg.nt,
        }
    meta["units"] = {
        "system": "natural (hbar = mass = 1)" if hbar == 1.0 and mass == 1.0 else "custom",
        "hbar": hbar,
        "mass": mass,
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


def _csv_field(text: str) -> str:
    """A CSV field as csv.writer's QUOTE_MINIMAL writes it: quoted, with inner
    quotes doubled, when it holds a comma, a quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_column(values) -> list[str]:
    """CSV fields of one column; floats never need quotes."""
    floats = _floats(values)
    if floats is None:
        return [_csv_field(_fmt_value(v)) for v in values]
    return list(map("%.17g".__mod__, floats))


def _json_column(values) -> list[str]:
    """JSON texts of one column: finite floats by float.__repr__, as json writes
    them, anything else by json.dumps."""
    floats = _floats(values)
    if floats is not None and all(map(math.isfinite, floats)):
        return list(map(float.__repr__, floats))
    return list(map(json.dumps, values))


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
    of json.dumps(payload, indent=2) over all the records.  meta's
    units.columns is set here from the first block's names.
    """
    blocks = iter(blocks)
    first = next(blocks)
    names = tuple(first)
    meta["units"]["columns"] = {name: _COLUMN_UNITS.get(name) for name in names}
    json_out = cfg.format == "json"
    if json_out:
        payload = {"schema_version": SCHEMA_VERSION, "metadata": meta, "records": []}
        head, _, tail = json.dumps(payload, indent=2).rpartition("[]")
        stream.write(head)
        keys = (json.dumps(name).replace("%", "%%") for name in names)
        row = "    {\n" + ",\n".join(f"      {key}: %s" for key in keys) + "\n    }"
        format_column, lead, sep = _json_column, "[\n", ",\n"
    else:
        for key in ("command", "schema_version"):
            stream.write(f"# {key}={meta[key]}\r\n")
        for section in ("params", "grid"):
            if section in meta:
                parts = ",".join(f"{k}={_fmt_value(v)}" for k, v in meta[section].items())
                stream.write(f"# {section}: {parts}\r\n")
        stream.write(f"# units: {meta['units']['system']}\r\n")
        stream.write(",".join(map(_csv_field, names)) + "\r\n")
        row = ",".join(["%s"] * len(names)) + "\r\n"
        format_column, lead, sep = _csv_column, "", ""
    formatted = {}  # name -> (column, its texts)
    for block in chain((first,), blocks):
        texts = []
        for name, values in block.items():
            if isinstance(values, (list, tuple, np.ndarray)):
                if formatted.get(name, (None,))[0] is not values:
                    formatted[name] = (values, format_column(values))
                texts.append(formatted[name][1])
            else:
                texts.append(repeat(format_column([values])[0]))
        lines = map(row.__mod__, zip(*texts))
        # lead goes before the first chunk of records, sep before each later one
        while chunk := sep.join(islice(lines, _ROWS_PER_WRITE)):
            stream.write(lead)
            stream.write(chunk)
            lead = sep
    if json_out:
        stream.write(("[]" if lead == "[\n" else "\n  ]") + tail + "\n")


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
    results = run_all(cfg.criteria, progress=lambda msg: print(msg, file=sys.stderr))
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


#: every command: its handler and its help line
_COMMANDS = {
    "density": (cmd_density, "probability-density snapshots (t, x, |psi|^2)"),
    "moments": (cmd_moments, "moment time-series: numeric vs closed-form columns"),
    "autocorr": (cmd_autocorr, "autocorrelation, closed form plus numeric overlap"),
    "validate": (cmd_validate, "run the acceptance criteria and report pass/fail"),
}


@cache
def _parser() -> _Parser:
    """The argument parser of _COMMANDS and _OPTIONS, built once per process."""
    parser = _Parser(
        prog="wallbounce",
        description=(
            "Gaussian wave packets against a hard wall at x = 0: evaluate "
            "densities, moment time-series and autocorrelations from closed "
            "forms, cross-checked by grid quadrature, or run the validation suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, (commands, keywords) in _OPTIONS.items():
            if command in commands:
                p.add_argument(f"--{name}", **keywords)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
        if args.config:
            # the file's settings go first, so that the command line's win;
            # the command line parsed alone, so a refusal now is the file's
            tokens = _config_tokens(args.command, args.config)
            try:
                args = _parser().parse_args([args.command, *tokens, *argv[1:]])
            except CliError as exc:
                raise CliError(f"{args.config}: {exc}") from exc
        return _run(_COMMANDS[args.command][0], _resolve(args))
    except SystemExit as exc:  # argparse has answered --help itself
        return exc.code
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TailCaptureError, StencilConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
