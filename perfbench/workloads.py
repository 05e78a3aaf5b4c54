"""Seeded request sets for the four benchmark workloads.

The generator depends only on the seed, never on the library, so two
versions of wallbounce receive exactly the same requests.  The ranges
below were sized against the grid rules of the version that introduced
the benchmark (see README.md); they are inputs, not predictions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("validate", "series", "density-csv", "density-json")
KINDS = ("bouncer", "free", "free-node", "wall")

#: requests in one pass of the fixed request set; at least 11 so that a
#: tail percentile with ten samples beyond it exists within one pass
SERIES_REQUESTS = 40
DENSITY_REQUESTS = 40

#: share of a design cell over which the seed moves a request
JITTER = 0.25

# series horizons, log-uniform per kind: default quadrature grids then span
# about 4e4 to 6e5 points (0.7 to 10 MB per complex state), on both sides
# of a 2 MiB L2 cache
_SERIES_TMAX = {"free": (1.0, 16.0), "free-node": (1.0, 16.0), "wall": (4.0, 64.0)}
_SERIES_NT = (2, 3)
# density requests use the 64-points-per-beta plotting grid; these ranges
# keep one request near 0.05-0.2 s so a pass fits several times in a run
_DENSITY_TMAX = (0.5, 3.0)
_DENSITY_NT = (2, 4)


@dataclass(frozen=True)
class Request:
    """One call of the wallbounce CLI (or, for ``validate``, of ``run_all``)."""

    command: str
    kind: str = "bouncer"
    x0: float = 0.0
    p0: float = 0.0
    alpha: float = 1.0
    tmax: float = 0.0
    nt: int = 1
    fmt: str = "csv"

    def argv(self, out: str) -> list[str]:
        args = [
            self.command, "--kind", self.kind, "--alpha", repr(self.alpha),
            "--tmax", repr(self.tmax), "--nt", str(self.nt),
            "--format", self.fmt, "--out", out,
        ]
        if self.kind != "wall":
            args += ["--x0", repr(self.x0), "--p0", repr(self.p0)]
        return args


def _design(rng: random.Random, n: int, dims: int) -> list[tuple[float, ...]]:
    """n points in [0, 1)**dims, one in each of the n strata of every axis.

    Which strata go together is fixed (shuffled once with a constant
    seed), so every seed gets requests of nearly the same sizes and a pass
    does nearly the same work from seed to seed; the workload seed moves
    each point within the middle quarter of its cell.
    """
    axes = []
    for k in range(dims):
        strata = list(range(n))
        random.Random(f"design:{n}:{k}").shuffle(strata)
        axes.append([(i + 0.5 + JITTER * (rng.random() - 0.5)) / n for i in strata])
    return list(zip(*axes))


def _log_between(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _bouncer_horizon(x0: float, p0: float) -> float:
    # Past twice the collision time half_line_grid does not follow the
    # reflected packet and the oracle raises TailCaptureError (a library
    # defect, see README.md), so bouncer horizons stop there.
    return -2.0 * x0 / p0


def _requests(rng, command, kind, n, fmt, tmax_range, nt_range) -> list[Request]:
    out = []
    for ux, up, ua, ut, un in _design(rng, n, 5):
        x0, p0 = (0.0, 0.0) if kind == "wall" else (-12.0 + 8.0 * ux, 2.0 + 4.0 * up)
        if kind == "bouncer" and command != "density":
            # up to the CLI's default horizon, twice the collision time
            tmax = _bouncer_horizon(x0, p0) * (0.5 + 0.5 * ut)
        else:
            tmax = _log_between(*tmax_range, ut)
            if kind == "bouncer":
                tmax = min(tmax, _bouncer_horizon(x0, p0))
        # nt follows the stratum alone, so the seed's jitter never changes it
        stratum = int(un * n)
        nt = nt_range[0] + stratum * (nt_range[1] - nt_range[0] + 1) // n
        out.append(Request(command, kind, x0, p0, 0.7 + 0.7 * ua, tmax, nt, fmt))
    return out


def _series(rng: random.Random) -> list[Request]:
    # a quarter of the requests per kind; autocorr exists for free and bouncer only
    n = SERIES_REQUESTS // 8
    groups = [
        ("moments", "bouncer", n), ("autocorr", "bouncer", n), ("moments", "free", n),
        ("autocorr", "free", n), ("moments", "free-node", 2 * n), ("moments", "wall", 2 * n),
    ]
    out = []
    for command, kind, count in groups:
        out += _requests(rng, command, kind, count, "csv", _SERIES_TMAX.get(kind), _SERIES_NT)
    rng.shuffle(out)
    return out


def _density(rng: random.Random, fmt: str) -> list[Request]:
    n = DENSITY_REQUESTS // len(KINDS)
    # plus the CLI's default density request (about 35k rows, twice the
    # largest seeded one): its in-memory JSON document, not the imported
    # libraries, then sets most of the peak RSS above the server's floor
    out = [Request("density", "bouncer", -10.0, 5.0, 1.0, _bouncer_horizon(-10.0, 5.0), 9, fmt)]
    for kind in KINDS:
        out += _requests(rng, "density", kind, n, fmt, _DENSITY_TMAX, _DENSITY_NT)
    rng.shuffle(out)
    return out


def generate(workload: str, seed: int) -> list[Request]:
    """The fixed request set of one pass; the same seed gives the same list."""
    # both density workloads draw from one stream: the same requests, two formats
    rng = random.Random(f"{workload.split('-')[0]}:{seed}")
    if workload == "validate":
        return [Request("validate")]
    if workload == "series":
        return _series(rng)
    if workload == "density-csv":
        return _density(rng, "csv")
    if workload == "density-json":
        return _density(rng, "json")
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warmup(workload: str) -> Request:
    """A small request outside the measured set, served once during set-up."""
    if workload == "validate":
        return Request("validate")
    if workload == "series":
        return Request("moments", kind="bouncer", x0=-10.0, p0=5.0, tmax=1.0, nt=2)
    fmt = "json" if workload == "density-json" else "csv"
    return Request("density", kind="bouncer", x0=-10.0, p0=5.0, tmax=1.0, nt=2, fmt=fmt)
