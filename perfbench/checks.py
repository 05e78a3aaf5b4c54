"""Output checks: every benchmark request's output is verified before it counts.

The checks run in the benchmark's client process, between requests, so
neither their time nor their memory lands in the measured server.  Each
returns an ``Outcome`` or raises ``CheckError``; ``CheckError.failed`` is
the number of units (requests, or gates for ``validate``) that failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from wallbounce import (
    BouncerParams,
    PacketParams,
    SpecialParams,
    free_moments,
    momentum_second_moment,
    node_packet_moments,
    position_second_moment,
    psi_bouncer,
    psi_free,
    psi_node_packet,
    psi_wall_packet,
    wall_packet_moments,
)
from wallbounce.validation import CRITERION_IDS

from workloads import Request

AUTOCORR_ATOL = 1e-6
SIMPSON_ATOL = 1e-4
DENSITY_RTOL = 1e-12


class CheckError(Exception):
    def __init__(self, message: str, failed: int = 1):
        super().__init__(message)
        self.failed = failed


@dataclass(frozen=True)
class Outcome:
    records: int
    points: int


def units(request: Request) -> int:
    """Units a request counts for in attempted/failed: gates for validate."""
    return len(CRITERION_IDS) if request.command == "validate" else 1


def _scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def read_output(path, fmt: str) -> tuple[dict, list[str], np.ndarray]:
    """(metadata, columns, rows) of a CLI output file; empty cells become NaN."""
    if fmt == "json":
        with open(path) as fh:
            doc = json.load(fh)
        records = doc["records"]
        columns = list(records[0]) if records else []
        # numpy turns None (an empty cell) into NaN
        rows = np.array([[r[c] for c in columns] for r in records], dtype=float)
        return doc["metadata"], columns, rows.reshape(len(records), len(columns))
    meta, data = {}, []
    with open(path, newline="") as fh:
        text = fh.read()
    if not text.endswith("\r\n"):
        raise CheckError("CSV output does not end with a CRLF record terminator")
    lines = text[:-2].split("\r\n")
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            columns, data = line.split(","), lines[i + 1:]
            break
        key, sep, value = line[2:].partition(": ")
        if sep:
            meta[key] = dict(
                (k, _scalar(v)) for k, _, v in (part.partition("=") for part in value.split(","))
            )
    else:
        raise CheckError("CSV output has no header row")
    rows = np.array(
        [[float(c) if c else math.nan for c in line.split(",")] for line in data], dtype=float
    )
    return meta, columns, rows.reshape(len(data), len(columns))


def _params(req: Request) -> PacketParams:
    return PacketParams(x0=req.x0, p0=req.p0, alpha=req.alpha)


def wavefunction(req: Request):
    """The request's psi(x, t), built here from the public closed forms."""
    params = _params(req)
    if req.kind == "free":
        return lambda x, t: psi_free(params, x, t)
    if req.kind == "free-node":
        sp = SpecialParams(beta=params.beta, x0=req.x0, p0=req.p0)
        return lambda x, t: psi_node_packet(sp, x, t)
    if req.kind == "bouncer":
        bp = BouncerParams(params)
        return lambda x, t: psi_bouncer(bp, x, t)
    sp = SpecialParams(beta=params.beta)
    return lambda x, t: psi_wall_packet(sp, x, t)


def _second_moments(req: Request, t: float) -> tuple[float, float]:
    params = _params(req)
    if req.kind == "bouncer":
        bp = BouncerParams(params)
        return position_second_moment(bp, t), momentum_second_moment(bp)
    if req.kind == "free":
        m = free_moments(params, t)
    elif req.kind == "free-node":
        m = node_packet_moments(SpecialParams(beta=params.beta, x0=req.x0, p0=req.p0), t)
    else:
        m = wall_packet_moments(SpecialParams(beta=params.beta), t)
    return m.x2_mean, m.p2_mean


def _times(req: Request, rows: np.ndarray, col: int) -> np.ndarray:
    ts = np.linspace(0.0, req.tmax, req.nt)
    if rows.shape[0] != req.nt or not np.array_equal(rows[:, col], ts):
        raise CheckError(f"expected {req.nt} rows at t = linspace(0, {req.tmax!r}, {req.nt})")
    return ts


def _grid_points(meta: dict) -> int:
    return int(meta["grid"]["n_points"])


def check_moments(req: Request, path) -> Outcome:
    meta, columns, rows = read_output(path, req.fmt)
    col = {name: i for i, name in enumerate(columns)}
    ts = _times(req, rows, col["t"])
    optional = col["x_mean_near_wall_approx"]
    required = [i for i in range(len(columns)) if i != optional]
    if not np.all(np.isfinite(rows[:, required])):
        raise CheckError("moments output has a non-finite numeric value")
    if np.any(np.isinf(rows[:, optional])):
        raise CheckError("moments output has an infinite near-wall approximation")
    for row, t in zip(rows, ts):
        x2, p2 = _second_moments(req, float(t))
        if row[col["x2_exact"]] != x2 or row[col["p2_exact"]] != p2:
            raise CheckError(f"closed-form moments at t = {t!r} differ from an in-process call")
    return Outcome(len(rows), _grid_points(meta) * req.nt)


def check_autocorr(req: Request, path) -> Outcome:
    meta, columns, rows = read_output(path, req.fmt)
    col = {name: i for i, name in enumerate(columns)}
    _times(req, rows, col["t"])
    if not np.all(np.isfinite(rows)):
        raise CheckError("autocorr output has a non-finite value")
    for part in ("re", "im"):
        err = float(np.max(np.abs(rows[:, col[f"{part}_numeric"]] - rows[:, col[f"{part}_exact"]])))
        if err > AUTOCORR_ATOL:
            raise CheckError(f"|{part}_numeric - {part}_exact| = {err:.3e} > {AUTOCORR_ATOL:g}")
    return Outcome(len(rows), _grid_points(meta) * req.nt)


def check_density(req: Request, path) -> Outcome:
    meta, columns, rows = read_output(path, req.fmt)
    if columns != ["t", "x", "density"]:
        raise CheckError(f"density columns are {columns}")
    grid = meta["grid"]
    nx = int(grid["n_points"])
    if rows.shape[0] != req.nt * nx:
        raise CheckError(f"{rows.shape[0]} density rows, expected nt * nx = {req.nt} * {nx}")
    xs = np.linspace(grid["x_min"], grid["x_max"], nx)
    ts = np.linspace(0.0, req.tmax, req.nt)
    t, x, density = (rows[:, i].reshape(req.nt, nx) for i in range(3))
    if not (np.array_equal(t, np.repeat(ts[:, None], nx, axis=1)) and np.array_equal(x, np.tile(xs, (req.nt, 1)))):
        raise CheckError("density rows are not the (t, x) grid of the metadata")
    w = np.ones(nx)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (xs[-1] - xs[0]) / (nx - 1) / 3.0
    norms = density @ w
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > SIMPSON_ATOL:
        raise CheckError(f"Simpson norm of a time slice off by {worst:.3e} > {SIMPSON_ATOL:g}")
    # every row, against the closed form evaluated in this process
    psi = wavefunction(req)
    for i, ti in enumerate(ts):
        ref = np.abs(np.asarray(psi(xs, float(ti)))) ** 2
        bad = np.abs(density[i] - ref) > DENSITY_RTOL * np.abs(ref)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise CheckError(
                f"density at t = {float(ti)!r}, x = {float(xs[j])!r} is {float(density[i, j])!r}, "
                f"expected {float(ref[j])!r}"
            )
    return Outcome(len(rows), nx * req.nt)


def check_validate(path) -> Outcome:
    with open(path) as fh:
        results = json.load(fh)
    ids = [r["id"] for r in results]
    if ids != CRITERION_IDS:
        raise CheckError(f"validate returned gates {ids}", failed=len(CRITERION_IDS))
    failed = [r["id"] for r in results if r["passed"] is not True]
    if failed:
        raise CheckError(f"gates failed: {', '.join(failed)}", failed=len(failed))
    return Outcome(len(results), 0)


def _check(req: Request, path) -> Outcome:
    if req.command == "validate":
        return check_validate(path)
    if req.command == "moments":
        return check_moments(req, path)
    if req.command == "autocorr":
        return check_autocorr(req, path)
    return check_density(req, path)


def check(req: Request, path) -> Outcome:
    """Check one request's output file; the point count of validate comes from the server.

    An output the checks cannot even read (a missing file, truncated JSON,
    a ragged or non-numeric CSV row, a missing column) fails like any other.
    """
    try:
        return _check(req, path)
    except CheckError:
        raise
    except Exception as exc:
        raise CheckError(f"unreadable output: {type(exc).__name__}: {exc}", failed=units(req)) from exc
