"""Gaussian packet bouncing off an infinite wall at x = 0.

The half-line solution is built by the method of images: subtract the
mirrored packet so the wavefunction vanishes at the wall,

    psi_mirror(x, t) = N * [psi(x, t) - psi(-x, t)]   for x < 0,
    psi_mirror(x, t) = 0                              for x >= 0.

It is evaluated as one free packet times an ``expm1`` factor, exact to
round-off for every phase-space distance z > 0.  The factor is formed in
real arithmetic, from expm1 of its real part and the tangent of half its
imaginary part (numpy's real tan is vectorized and its complex expm1 is
not), and applied in place, block by block, to the free packet.  Because the difference
is odd in x, every integral of an even quantity over the half-line
equals half the full-line integral, which is what makes the
normalization N, the even moments ``<x^2>`` and ``<p^2>``, and the
autocorrelation available in closed form.  Odd moments are not given in
closed form here; the exact values are left to the numerical oracle.

Every function takes the free packet's PacketParams.  Geometry
convention: the physical packet lives at x <= 0, so x0 <= 0, and p0 > 0
means "moving toward the wall".  No type enforces this: BouncerParams()
and the CLI check it.  The classical collision time
PacketParams.collision_time = -mass*x0/p0 exists only for x0 < 0 < p0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np

from .packets import _SQRT_PI, PacketParams, _blocks, autocorrelation_free, psi_free

__all__ = [
    "ApproximationWindowWarning",
    "DegenerateMirrorError",
    "BouncerParams",
    "phase_space_distance",
    "mirror_normalization",
    "overlap_correction",
    "psi_bouncer",
    "position_second_moment",
    "momentum_second_moment",
    "energy_shift",
    "in_expansion_window",
    "x_mean_near_collision",
    "p_mean_at_collision",
    "effective_force",
    "collision_force_scale",
    "autocorrelation_bouncer",
]

class DegenerateMirrorError(ValueError):
    """The packet sits exactly at the wall with zero momentum.

    The mirror difference is then identically zero and cannot be
    normalized; use the wall packet from :mod:`wallbounce.special`.
    """


class ApproximationWindowWarning(UserWarning):
    """Near-collision expansion evaluated outside its validity window."""


def phase_space_distance(params: PacketParams) -> float:
    """Dimensionless squared phase-space offset of packet and mirror image.

    (x0/beta)**2 + (p0*beta/hbar)**2, equivalently
    0.5*[(x0/dx0)**2 + (p0/dp0)**2].  It controls how strongly the
    mirrored packet overlaps the physical one: corrections to
    free-particle behaviour scale like exp(-distance).
    """
    a = params.x0 / params.beta
    b = params.p0 * params.beta / params.hbar
    return a * a + b * b  # no **: a square that overflows is an infinite distance


def mirror_normalization(params: PacketParams) -> float:
    """Normalization constant N = [1 - exp(-distance)]**(-1/2) of the mirror difference.

    Exact for arbitrary parameters and independent of time.  N > 1
    always, approaching 1 exponentially fast as the packet moves away
    from the wall in phase space.
    """
    z = phase_space_distance(params)
    if z == 0.0:
        raise DegenerateMirrorError(
            "degenerate mirror solution (phase-space distance z = 0); "
            "use the wall packet from wallbounce.special instead"
        )
    # expm1 keeps 1 - exp(-z) accurate for tiny z
    return 1.0 / math.sqrt(-math.expm1(-z))


def overlap_correction(z: float) -> float:
    """Mirror-overlap factor z*exp(-z)/(1 - exp(-z)) entering even moments.

    Continuous at z = 0 with value 1, strictly decreasing, and
    exponentially suppressed for large z.
    """
    z = float(z)
    if z < 0.0:
        raise ValueError(f"z must be >= 0, got {z!r}")
    if z == 0.0:
        return 1.0
    if z == math.inf:  # the limit; inf * exp(-inf) would be nan
        return 0.0
    return z * math.exp(-z) / (-math.expm1(-z))


def BouncerParams(params: PacketParams) -> PacketParams:
    """The half-line geometry check: returns params itself, or raises
    ValueError if the packet starts beyond the wall (x0 > 0)."""
    if params.x0 > 0.0:
        raise ValueError(
            f"bouncing packet must start at x0 <= 0 (wall at x = 0), got x0 = {params.x0!r}"
        )
    return params


def psi_bouncer(params: PacketParams, x, t: float):
    """Normalized mirror-difference wavefunction on the half-line.

    Returns N*[psi(x,t) - psi(-x,t)] for x < 0 and exactly 0 for
    x >= 0.  As psi(-x) = psi(x)*exp(-2*k*x) with k = i*p0/hbar +
    X(t)/(beta**2*(1 + i*t/t0)), this is -s*N*psi(s*x)*expm1(q) with
    q = -2*s*k*min(x, 0), where s = -1 if X(t) > 0 and 1 otherwise, so
    that Re q <= 0 and the factor never overflows; it is exact to
    round-off for every distance z > 0.

    psi(s*x) is the free packet mirrored through the wall, (s*x0, s*p0),
    at x, evaluated by one psi_free call on the whole of x.  The factor is
    then applied in place, block by block, in real arithmetic: with
    h = tan(Im q/2) and e = exp(Re q) = 1 + expm1(Re q),

        expm1(q) = expm1(Re q) - 2*e*h**2/(1 + h**2) + 2i*e*h/(1 + h**2).

    The two real terms have the same sign, so nothing cancels as q -> 0.
    e = 1 + expm1(Re q) is off by at most an ulp of 1, so it is exact to
    round-off where e is near 1, and where e is small |expm1(q)| >= 1 - e
    is not.
    """
    big_x = params.center(t)
    k = 1j * params.p0 / params.hbar + big_x / (params.beta**2 * (1.0 + 1j * t / params.t0))
    s = -1.0 if big_x > 0.0 else 1.0
    image = params if s > 0.0 else replace(params, x0=-params.x0, p0=-params.p0)
    x = np.asarray(x, dtype=float)
    out = np.asarray(psi_free(image, x, t))
    # Re q = re_q*min(x, 0) and Im q/2 = half_im_q*min(x, 0); scale = -s*N
    re_q = -2.0 * s * k.real
    half_im_q = -s * k.imag
    scale = -s * mirror_normalization(params)
    for rows, xb, ob in _blocks(7, x, out):
        xm, em, h, w, d = rows[:5]
        f = rows[5:].reshape(-1).view(complex)  # the last two rows, packed
        np.minimum(xb, 0.0, out=xm)
        np.multiply(xm, re_q, out=em)
        np.multiply(xm, half_im_q, out=h)
        np.clip(h, -1e300, 1e300, out=h)  # as in _gaussian: tan keeps a finite half phase finite
        np.expm1(em, out=em)
        np.tan(h, out=h)
        np.add(em, 1.0, out=w)
        np.square(h, out=xm)
        em *= scale
        # w = 2*scale*e/(1 + h**2), then f = scale*expm1(q)
        w *= 2.0 * scale
        np.add(xm, 1.0, out=d)
        w /= d
        xm *= w
        np.subtract(em, xm, out=f.real)
        np.multiply(w, h, out=f.imag)
        ob *= f
    return out[()]


def position_second_moment(params: PacketParams, t: float) -> float:
    """Exact <x^2> at time t: free value X(t)**2 + beta_t**2/2 plus the
    wall correction beta_t**2 * overlap_correction(distance)."""
    bt, big_x = params.beta_t(t), params.center(t)
    bt2 = bt * bt
    free = big_x * big_x + 0.5 * bt2
    corr = overlap_correction(phase_space_distance(params))
    return free + bt2 * corr if corr else free  # inf * 0 would be nan


def momentum_second_moment(params: PacketParams) -> float:
    """Exact, time-independent <p^2> = p0**2 + (1/2 + overlap_correction(distance))/alpha**2.

    Conserved because the Hamiltonian on the half-line is time-independent;
    formed from the free value's own terms, so that it is never below it.
    """
    return params.p0 * params.p0 + (0.5 + overlap_correction(phase_space_distance(params))) / params.alpha**2


def energy_shift(params: PacketParams) -> float:
    """Relative kinetic-energy increase caused by the wall.

    Equals 2*overlap_correction(distance) / (1 + 2*(p0*beta/hbar)**2),
    which is exactly (<p^2>_wall - <p^2>_free)/<p^2>_free; the wall far
    away in phase space perturbs the energy only exponentially little.
    """
    b = params.p0 * params.beta / params.hbar
    return 2.0 * overlap_correction(phase_space_distance(params)) / (1.0 + 2.0 * b * b)


def in_expansion_window(params: PacketParams, t: float) -> bool:
    """True when |X(t)| <= beta_t, the regime of the near-collision expansion."""
    return abs(params.center(t)) <= params.beta_t(t)


def x_mean_near_collision(params: PacketParams, t: float, terms: int = 2) -> float:
    """Near-collision expansion of <x> in powers of the classical center X(t).

    terms=1 gives the leading value -beta_t/sqrt(pi); terms=2 adds
    -X(t)**2/(beta_t*sqrt(pi)), the softened-parabola correction.  Only
    meaningful while |X(t)| <~ beta_t; outside that window a warning is
    emitted (no hard validity radius is claimed).
    """
    if terms not in (1, 2):
        raise ValueError(f"terms must be 1 or 2, got {terms!r}")
    bt = params.beta_t(t)
    big_x = params.center(t)
    if abs(big_x) > bt:
        warnings.warn(
            f"|X(t)| = {abs(big_x):.4g} exceeds beta_t = {bt:.4g}; "
            "near-collision expansion is outside its validity window",
            ApproximationWindowWarning,
            stacklevel=2,
        )
    value = -bt / _SQRT_PI
    if terms == 2:
        value -= big_x * big_x / (bt * _SQRT_PI)
    return value


def _require_collision_time(params: PacketParams) -> float:
    tc = params.collision_time
    if tc is None:
        raise ValueError("collision time undefined: requires x0 < 0 and p0 > 0")
    return tc


def p_mean_at_collision(params: PacketParams) -> float:
    """<p> at the classical collision time.

    -(hbar/(beta*sqrt(pi))) * (t_c/t0)/sqrt(1 + (t_c/t0)**2), tending to
    -1/(sqrt(pi)*alpha) for t_c >> t0.  Nonzero because the fastest
    momentum components have already reflected by t_c while the slow
    ones have not.
    """
    tc = _require_collision_time(params)
    s = tc / params.t0
    return -(params.hbar / (params.beta * _SQRT_PI)) * (s / math.hypot(1.0, s))


def effective_force(params: PacketParams) -> float:
    """Effective wall force m*d2<x>/dt2 at the collision time:
    -(2/sqrt(pi)) * p0**2/(mass*beta_t(t_c))."""
    tc = _require_collision_time(params)
    return -(2.0 / _SQRT_PI) * params.p0**2 / (params.mass * params.beta_t(tc))


def collision_force_scale(params: PacketParams) -> float:
    """Dimensional estimate -2*p0**2/(mass*beta_t(t_c)) of the collision force.

    Momentum transfer ~ -2*p0 over a crossing time ~ beta_t*mass/p0; the
    exact coefficient is 1/sqrt(pi) of this.
    """
    tc = _require_collision_time(params)
    return -2.0 * params.p0**2 / (params.mass * params.beta_t(tc))


def autocorrelation_bouncer(params: PacketParams, t: float) -> complex:
    """Overlap of the bouncing packet at time t with its initial state.

    Equals the free autocorrelation times the mirror factor
    [1 - exp(-distance/(1 + i*t/2t0))] / [1 - exp(-distance)]; the
    modulus decreases monotonically, with no visible signature of the
    collision itself.  Where the quotient is nan (an infinite or a
    subnormal distance) the factor is its limit, 1 or 1/(1 + i*t/2t0).
    """
    mirror_normalization(params)  # raises DegenerateMirrorError at distance 0
    z = phase_space_distance(params)
    if z == math.inf:
        return autocorrelation_free(params, t)
    u = 1.0 + 0.5j * t / params.t0
    # each part of the numerator over the real denominator, so that the factor is exactly 1 at t = 0
    w, d = (np.expm1(-z / u), math.expm1(-z)) if z >= np.finfo(float).tiny else (1.0 / u, 1.0)
    return autocorrelation_free(params, t) * complex(w.real / d, w.imag / d)
