"""Independent numerical oracle: grid quadrature, momentum moments, propagation.

This module knows nothing about the closed forms it is used to check.
States live on a uniform grid (by default the half-line [x_min, 0] with
the wall as the last point); a GridState is finite by construction and
keeps its peak |psi|^2, which the tail checks read.  window_grid sizes a
grid to hold a packet over a time window, on the full line or, reflected
packet included, on the half line.

Position moments, <p> and overlaps are composite-Simpson quadratures
whose integrands are formed in the block-sized rows of packets._blocks;
only moment_x's x grid (order >= 1) is grid-sized.  <p> takes a
6th-order central difference at every point, with the missing neighbours
at each end odd-reflected through it, and a 4th-order one for an error
estimate; an integrand odd about the wall (<x> and <p> on a half-line
grid) has Simpson's Euler-Maclaurin term subtracted there, so what the
oracle leaves converges like h^6 or exponentially.  <p^2> is a Parseval
sum over the state's sine coefficients, which converges exponentially.
Both momentum moments refuse a grid at STENCIL_RTOL.  Every sum is numpy's
pairwise .sum(), never dot/vdot/einsum/matmul: a BLAS reduction rounds
differently with the thread count, making output bytes depend on the host.

Time evolution is an unconditionally stable, exactly norm-preserving Cayley
(implicit midpoint) step of the free Hamiltonian with hard walls, with a
4th-order compact (Numerov-type) spatial correction, so the O(dt**2) time
error dominates on the grids used here.  A run of many steps is evaluated
exactly in the type-I discrete sine basis, which diagonalises the step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .packets import PacketParams, _blocks

__all__ = [
    "MAX_GRID_POINTS",
    "TailCaptureError",
    "GridMismatchError",
    "StencilConvergenceError",
    "GridSpec",
    "GridState",
    "sample",
    "moment_x",
    "moment_p",
    "overlap",
    "propagate",
    "window_grid",
]

#: endpoint amplitude (relative to the max) above which a grid is
#: considered too narrow to capture the state's tails
TAIL_RTOL = 1e-12

#: largest relative error moment_p accepts: <p>'s estimated stencil error
#: against its scale, or the share of <p^2> in the top eighth of the sine modes
STENCIL_RTOL = 1e-6

#: most points a GridSpec may have (64 MiB per complex state); far above
#: every grid the library sizes for its own checks (about 6e5 points)
MAX_GRID_POINTS = 2**22


class TailCaptureError(ValueError):
    """State amplitude at a grid end is too large for reliable quadrature."""


class GridMismatchError(ValueError):
    """Binary grid operation applied to states on different grids."""


class StencilConvergenceError(RuntimeError):
    """Momentum moment not resolved on this grid."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of n_points from x_min to x_max inclusive.

    The default x_max = 0.0 is the hard wall, giving the half-line grid
    [x_min, 0] with the last point exactly at the wall; pass x_max > 0
    for the full-line variant used with free packets.  n_points must be
    an integer, odd so composite Simpson weights exist, and at most
    MAX_GRID_POINTS, which is checked here, before any array of that size
    is allocated.
    """

    x_min: float
    n_points: int
    x_max: float = 0.0

    def __post_init__(self):
        try:  # 7.5 is refused here, not in points(); a numpy integer is kept as an int
            object.__setattr__(self, "n_points", operator.index(self.n_points))
        except TypeError:
            raise TypeError(f"n_points must be an integer, got {self.n_points!r}") from None
        if not math.isfinite(self.x_max - self.x_min):  # either bound, or a span that overflows
            raise ValueError(f"grid bounds and their span must be finite, got [{self.x_min}, {self.x_max}]")
        if self.x_min >= self.x_max:
            raise ValueError(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 3:
            raise ValueError(f"n_points must be >= 3, got {self.n_points}")
        if self.n_points % 2 == 0:
            raise ValueError(f"n_points must be odd for composite Simpson, got {self.n_points}")
        if self.n_points > MAX_GRID_POINTS:
            raise ValueError(
                f"n_points = {self.n_points} exceeds the budget of {MAX_GRID_POINTS} points "
                f"({16 * self.n_points / 2**20:.0f} MiB per complex state)"
            )

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


@dataclass(frozen=True)
class GridState:
    """Complex wavefunction values on a grid at one time, finite by construction:
    the values become complex128, and a shape that does not match the grid, or a
    nan or an inf, raises ValueError.  One block pass keeps max(re^2 + im^2) as
    peak2 for the tail checks; a finite peak2 proves the values finite, so only an
    infinite or nan one (squares that overflow are accepted) costs np.isfinite.
    Frozen, so a checked state keeps its values."""

    grid: GridSpec
    values: np.ndarray
    time: float
    peak2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_points,):
            raise ValueError(f"values shape {values.shape} does not match grid ({self.grid.n_points},)")
        peak2 = 0.0
        for (re2, im2), vb in _blocks(2, values):
            np.square(vb.real, out=re2)
            re2 += np.square(vb.imag, out=im2)
            peak2 = re2.max(initial=peak2)  # a nan anywhere stays nan
        if not peak2 < math.inf and not np.all(np.isfinite(values)):
            raise ValueError("state values are not all finite")
        object.__setattr__(self, "peak2", float(peak2))


def sample(wavefn, grid: GridSpec, t: float) -> GridState:
    """Evaluate wavefn(x, t) pointwise on the grid; GridState refuses non-finite values."""
    return GridState(grid, wavefn(grid.points(), t), t)


def _simpson_block(f: np.ndarray, total=0.0):
    """total plus the Simpson-weighted sum of interior points f, which start at an odd
    grid index: weight 4 on f[0::2] and 2 on f[1::2]."""
    return total + 4.0 * f[0::2].sum() + 2.0 * f[1::2].sum()


def _check_tails(state: GridState) -> None:
    """Raise TailCaptureError unless the state is negligible at both ends.

    The ends' re^2 + im^2 are compared with TAIL_RTOL**2 * state.peak2, the
    max |psi|^2 the state measured when it was built, so no pass is made;
    where the squares overflow or come near underflow, moduli are compared
    instead.  np.abs otherwise only forms the message.  A zero state
    passes: its ends are not above 0.
    """
    v = state.values
    if 1e-200 < state.peak2 < math.inf:
        sizes = [z.real * z.real + z.imag * z.imag for z in v[:: v.size - 1].tolist()]
        limit = TAIL_RTOL**2 * state.peak2
    else:
        # the squares overflow or come near underflow: compare moduli
        sizes = [abs(v[0]), abs(v[-1])]
        limit = TAIL_RTOL * float(np.max(np.abs(v)))
    # both ends: on a half-line grid x_max is the wall, where a mirror state
    # is exactly zero, so a state that is not zero there is not one
    grid = state.grid
    half = 0.5 * (grid.x_max - grid.x_min)
    ends = ((0, "x_min", grid.x_min - half), (-1, "x_max", grid.x_max + half))
    for (end, label, wider), size in zip(ends, sizes):
        if size > limit:
            amax = float(np.max(np.abs(v)))
            raise TailCaptureError(
                f"|psi({label})| = {abs(v[end]):.3e} exceeds "
                f"{TAIL_RTOL:g} * max|psi| = {TAIL_RTOL * amax:.3e}; widen the grid "
                f"(e.g. {label} {'<=' if end == 0 else '>='} {wider:.6g})"
            )


def _wall_term(f_2h: float, f_h: float) -> float:
    """Simpson's Euler-Maclaurin term at a wall x_max = 0, in units of h/3, from an
    integrand's last two interior values f(-2h) and f(-h).  An integrand odd about
    the wall, f = c3 x^3 + c5 x^5 + ... (x|psi|^2 and Im(psi* psi') are, as psi and
    psi'' vanish there), has a Simpson sum h^4 f'''(0)/180 = h^4 c3/30 above its
    integral, and (f(-2h) - 32 f(-h))/(24 h^3) is c3 with the c5 term cancelled."""
    return (f_2h - 32.0 * f_h) / 240.0


def moment_x(state: GridState, order: int) -> float:
    """Quadrature of x**order * |psi|^2 over the grid.

    order 0 is the norm, orders 1 and 2 give <x> and <x^2>.  Raises
    TailCaptureError when the state is not negligible at the grid ends.
    Per block of the interior one row holds re^2 + im^2, times x order times;
    the two ends repeat * as well, since x**order can raise OverflowError.
    On a grid ending at the wall an odd order's integrand is odd there, so
    Simpson's wall term is subtracted.
    """
    if order < 0 or int(order) != order:
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")
    _check_tails(state)
    order, v, grid = int(order), state.values, state.grid
    # the ends, and the last two interior points for the wall term
    xs = (grid.x_min, grid.x_max - 2.0 * grid.h, grid.x_max - grid.h, grid.x_max)
    zs = v[[0, -3, -2, -1]].tolist()
    f = [math.prod([x] * order, start=z.real * z.real + z.imag * z.imag) for z, x in zip(zs, xs)]
    total = f[0] + f[3]
    if order % 2 and grid.x_max == 0.0:
        total -= _wall_term(f[1], f[2])
    interior = (v[1:-1], grid.points()[1:-1]) if order else (v[1:-1],)
    for (re2, im2), vb, *xb in _blocks(2, *interior):
        np.add(np.square(vb.real, out=re2), np.square(vb.imag, out=im2), out=re2)
        for x in xb * order:
            re2 *= x
        total = _simpson_block(re2, total)
    return float(total * (grid.h / 3.0))


def _stencil_error(m6: float, m4: float, scale: float) -> float:
    """The 6th-order stencil error extrapolated from the 4th-order one, e4 = |m6 - m4|:
    about 1.17 * e4 * sqrt(e4/scale), kept with a safety factor of 4, and formed
    without e4**1.5, which may overflow; 0 for a zero scale."""
    e4 = abs(m6 - m4)
    return 5.0 * e4 * math.sqrt(e4 / scale) if scale > 0.0 else 0.0


def moment_p(state: GridState, order: int, *, hbar: float) -> float:
    """Momentum moment via the operator (hbar/i) d/dx on the grid.

    order 1 returns Re Int psi* (hbar/i) psi' dx; order 2 returns
    hbar**2 Int |psi'|^2 dx (the boundary term vanishes because the
    state is zero at the wall / in the tails).  Order 2 is the Parseval
    sum h * sum kappa_k^2 |c_k|^2 over the orthonormal DST-I c_k of the
    interior, kappa_k = pi k/(x_max - x_min): in the sine basis a state
    that vanishes at both ends needs no derivative, and the sum converges
    exponentially.  StencilConvergenceError is raised when the top eighth
    of the modes (at least one) carries more than STENCIL_RTOL of the sum.

    Order 1's psi' is the 6th-order central difference d6 = [45 D1 - 9 D2
    + D3]/(60h) of the differences Dk = psi[j+k] - psi[j-k] at every point,
    the three missing neighbours at each end taken by odd reflection
    through it (psi[-k] = -psi[k]), which is exact at the wall and
    negligible in the tails; on a grid ending at the wall Simpson's wall
    term is subtracted.  The 4th-order d4 = [8 D1 - D2]/(12h) gives
    e4 = m6 - m4, from which the 6th-order error is extrapolated;
    StencilConvergenceError is raised if that estimate exceeds
    STENCIL_RTOL * scale, the scale being |<p>| or, for a mean too small
    to judge, hbar*sqrt(Int |psi'|^2).  The points j in [3, n-3) go
    through _blocks as seven shifted views of psi, the three at each end
    as Python complex values; per block it sums Im(conj(psi) Dk) for each
    k, and only a mean the estimate cannot judge by its own size takes a
    second pass, for that scale.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    if state.grid.n_points < 7:
        raise ValueError("momentum moments need at least 7 grid points")
    _check_tails(state)
    v, grid = state.values, state.grid
    h = grid.h
    if order == 2:
        c = _dst1(v[1:-1])
        n, top = c.size, max(c.size // 8, 1)
        kin = np.square(c.real)  # |c_k|^2 k^2, as kappa_k = pi k/((n+1) h)
        kin += np.square(c.imag)
        kin *= np.square(np.arange(1.0, n + 1.0))
        total, tail = float(kin.sum()), float(kin[n - top :].sum())
        if tail > STENCIL_RTOL * total:
            raise StencilConvergenceError(
                f"the top {top} of {n} sine modes carry {tail / total:.3e} of <p^2>, above "
                f"{STENCIL_RTOL:g}; refine the grid (h = {h:.3e})"
            )
        return hbar * (hbar * (math.pi / (n + 1)) ** 2 * total / h)  # hbar**2 alone may overflow

    def integrand(z: complex, d1: complex, d2: complex, d3: complex) -> list[float]:
        c = z.conjugate()
        return [(c * d1).imag, (c * d2).imag, (c * d3).imag, d1.real * d1.real + d1.imag * d1.imag]

    # Simpson sums (in units of h/3) of each integrand, first at j = 0, 1, 2 and, read
    # backwards (the differences change sign), n-1, n-2, n-3; e[k + 3] is psi[k], k >= -3
    sums = [0.0] * 4
    for sign, z in ((1.0, v[:6].tolist()), (-1.0, v[:-7:-1].tolist())):
        e = [-c for c in z[3:0:-1]] + z
        fs = [integrand(z[j], *[sign * (e[j + 3 + k] - e[j + 3 - k]) for k in (1, 2, 3)]) for j in (0, 1, 2)]
        sums = [s + f0 + 4.0 * f1 + 2.0 * f2 for s, f0, f1, f2 in zip(sums, *fs)]
    if grid.x_max == 0.0:  # fs holds n-1, n-2, n-3; Im(conj(psi) Dk) is odd there
        sums[:3] = [s - _wall_term(f2, f1) for s, f1, f2 in zip(sums[:3], fs[1], fs[2])]
    # _BLOCK is even, so every block starts at an odd j, whose Simpson weight is 4
    views = (v[3:-3], v[4:-2], v[2:-4], v[5:-1], v[1:-5], v[6:], v[:-6])
    for rows, vj, *pairs in _blocks(4, *views):
        d, cj = rows[:2].reshape(-1).view(complex), rows[2:].reshape(-1).view(complex)
        np.conjugate(vj, out=cj)
        for k in range(3):
            np.subtract(pairs[2 * k], pairs[2 * k + 1], out=d)
            sums[k] = _simpson_block(np.multiply(d, cj, out=d).imag, sums[k])
    s1, s2, s3 = (s * (h / 3.0) for s in sums[:3])
    m6 = hbar * (45.0 * s1 - 9.0 * s2 + s3) / (60.0 * h)
    m4 = hbar * (8.0 * s1 - s2) / (12.0 * h)
    scale = abs(m6)
    if _stencil_error(m6, m4, scale) > STENCIL_RTOL * scale:
        # a mean near zero is judged against the momentum scale hbar*sqrt(Int |psi'|^2)
        for rows, vp1, vm1 in _blocks(4, *views[1:3]):
            d, (re2, im2) = rows[:2].reshape(-1).view(complex), rows[2:]
            np.subtract(vp1, vm1, out=d)
            np.add(np.square(d.real, out=re2), np.square(d.imag, out=im2), out=re2)
            sums[3] = _simpson_block(re2, sums[3])
        scale = max(scale, hbar * math.sqrt(sums[3] * (h / 3.0)) / (2.0 * h))
    err_est = _stencil_error(m6, m4, scale)
    if err_est > STENCIL_RTOL * scale:
        raise StencilConvergenceError(
            f"estimated stencil error {err_est:.3e} exceeds rtol*scale = "
            f"{STENCIL_RTOL * scale:.3e}; refine the grid (h = {h:.3e})"
        )
    return m6


def overlap(a: GridState, b: GridState) -> complex:
    """Simpson quadrature of Int a* b dx; grids must be identical.  conj(a) * b
    is formed in one complex row per block of the interior.  Raises
    TailCaptureError when either state is not negligible at the grid ends."""
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    _check_tails(a)
    _check_tails(b)
    u, v = a.values, b.values
    (u0, u1), (v0, v1) = u[:: u.size - 1].tolist(), v[:: v.size - 1].tolist()
    total = u0.conjugate() * v0 + u1.conjugate() * v1
    for rows, ub, vb in _blocks(2, u[1:-1], v[1:-1]):
        product = np.conjugate(ub, out=rows.reshape(-1).view(complex))
        total += _simpson_block(np.multiply(product, vb, out=product))
    return complex(total * (a.grid.h / 3.0))


def _dst1(v: np.ndarray) -> np.ndarray:
    """Orthonormal type-I discrete sine transform (its own inverse).

    Taken from the FFT of the odd extension [0, v, 0, -v reversed] of
    length 2(n+1), whose transform is -2i times the unnormalised DST-I.
    """
    n = v.size
    ext = np.zeros(2 * (n + 1), dtype=np.complex128)
    ext[1 : n + 1] = v
    ext[n + 2 :] = -v[::-1]
    return np.fft.fft(ext)[1 : n + 1] * (0.5j * math.sqrt(2.0 / (n + 1)))


def propagate(initial: GridState, dt: float, steps: int, *, hbar: float, mass: float) -> GridState:
    """Evolve a state under the free Hamiltonian with hard walls at both grid ends.

    Each step is the Cayley step (M - icK) psi+ = (M + icK) psi, where K
    is the 3-point Laplacian stencil, M = I + K/12 the Numerov mass
    matrix and c = hbar*dt/(4*mass*h**2).  Both are rational in K, which
    the DST-I diagonalises on the interior, so the whole run is one
    phase multiply between two transforms, at O(n log n) for any number
    of steps.  The update conserves the discrete norm to round-off and
    is exactly reversible: stepping with -dt undoes stepping with +dt.
    The grid ends are pinned to zero (Dirichlet), so the state must
    vanish at both; the caller must place x_min far enough out that
    nothing reflects off the artificial edge over the simulated horizon.
    A result that is not finite is refused by the GridState returned.
    """
    if int(steps) != steps or steps < 0:
        raise ValueError(f"steps must be a nonnegative integer, got {steps!r}")
    if dt == 0.0 or not math.isfinite(dt):
        raise ValueError(f"dt must be finite and nonzero, got {dt!r}")
    if steps == 0:
        return GridState(initial.grid, initial.values.copy(), initial.time)
    _check_tails(initial)
    n = initial.grid.n_points - 2
    lam = -4.0 * np.sin(np.arange(1, n + 1) * (0.5 * math.pi / (n + 1))) ** 2
    c = hbar * dt / (4.0 * mass * initial.grid.h ** 2)
    # one step multiplies mode k by (m + ic*lam)/(m - ic*lam) with m = 1 + lam/12 > 0;
    # as exp(i*theta) its modulus is exactly 1 and -dt is its exact inverse
    theta = 2.0 * np.arctan2(c * lam, 1.0 + lam / 12.0)
    out = np.zeros_like(initial.values)
    out[1:-1] = _dst1(np.exp(1j * (int(steps) * theta)) * _dst1(initial.values[1:-1]))
    return GridState(initial.grid, out, initial.time + dt * steps)


def _odd_at_least(n: float) -> int:
    m = max(int(math.ceil(n)), 3)
    return m if m % 2 == 1 else m + 1


def _resolved_spacing(params: PacketParams, points_per_beta: float | None, mirrored: bool) -> float:
    if points_per_beta is not None:
        if not 0.0 < points_per_beta < math.inf:
            raise ValueError(f"points_per_beta must be finite and > 0, got {points_per_beta!r}")
        return params.beta / points_per_beta
    # resolve the fastest oscillation in the density: the carrier (doubled
    # when a mirror partner beats against the packet), the momentum-tail
    # wiggles, and the spreading chirp where the envelope still has mass
    dp = 1.0 / (params.alpha * math.sqrt(2.0))
    carrier = (2.0 if mirrored else 1.0) * abs(params.p0)
    k_max = (carrier + 8.0 * dp) / params.hbar + 4.0 / params.beta
    # k*h <= 0.0232: <p>'s stencil is 6th order ((k*h)^6/140 = 1.1e-12) and the
    # wall term is subtracted, so what the oracle leaves converges like h^6 or exponentially
    return min(params.beta / 100.0, 0.0232 / k_max)


def window_grid(
    params: PacketParams,
    t_min: float,
    t_max: float,
    *,
    half_line: bool,
    points_per_beta: float | None = None,
) -> GridSpec:
    """Grid covering the packet at every time from t_min to t_max.

    The centre X(t) is linear in t, so the centres at the window's ends
    bound it, and the width beta_t is largest at the end farthest from
    t = 0.  The full line spans the centres padded by 12*beta_t on
    either side.  The half line [x_lo, 0] ends at the wall, and x_lo
    lies 12*beta_t beyond x0 and beyond -|X(t)| at both ends: past the
    bounce a mirror state's physical part sits at -|X(t)|.  The spacing
    resolves the fastest density oscillation (or is beta/points_per_beta
    when given).
    """
    bt = params.beta_t(max(abs(t_min), abs(t_max)))
    pad = 12.0 * bt
    centers = (params.center(t_min), params.center(t_max))
    if half_line:
        x_lo, x_hi = min(params.x0, *(-abs(c) for c in centers)) - pad, 0.0
    else:
        x_lo, x_hi = min(centers) - pad, max(centers) + pad
    if x_lo >= x_hi:  # the pad is lost in rounding: the window has no width
        raise ValueError(f"beta_t = {bt:.3g} is below the spacing of doubles at x = {x_hi:.6g}; rescale x0 or alpha")
    n = (x_hi - x_lo) / _resolved_spacing(params, points_per_beta, mirrored=half_line) + 1.0
    if not n <= MAX_GRID_POINTS:  # checked before int(), which raises on inf and nan
        raise ValueError(f"the window needs {n:.3g} points, more than the budget of {MAX_GRID_POINTS}")
    return GridSpec(x_lo, _odd_at_least(n), x_hi)
