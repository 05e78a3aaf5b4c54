"""Free-particle Gaussian wave packets in closed form.

Everything here is the textbook free Gaussian: the position- and
momentum-space wavefunctions, their first and second moments, and the
autocorrelation (overlap of the evolved state with the initial one).
``hbar`` and ``mass`` are carried explicitly so any unit system works;
the CLI defaults to natural units hbar = mass = 1.

All wavefunction evaluators are pure, vectorized over the position or
momentum argument, and use the principal branch for the complex square
roots (the branch argument always has positive real part, so no cut is
ever crossed).

psi_free, which every position-space packet is built on, is evaluated in
real arithmetic: its modulus is one real exp and its phase comes from the
half-angle tangent h = tan(theta/2) as ((1 - h**2) + 2i*h)/(1 + h**2).
numpy vectorizes the real tan and exp; its complex exp, and its sin and
cos at large arguments, run point by point in libm at 10 to 40 times the
cost.  The same kernel (_gaussian) with other constants gives the node
and wall packets of :mod:`wallbounce.special`.  Every array kernel, the
bouncer's mirror factor and the oracle's quadratures included, runs through
_blocks: _BLOCK points at a time, in scratch rows that stay in cache and
are allocated once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PacketParams",
    "Moments",
    "psi_free",
    "phi_free",
    "free_moments",
    "autocorrelation_free",
]

_SQRT_PI = math.sqrt(math.pi)
#: points per block of a wavefunction evaluation: a block's few float
#: temporaries (128 KiB each) stay in a core's L2 cache
_BLOCK = 2**14


@dataclass(frozen=True)
class PacketParams:
    """Physical configuration of a Gaussian packet.

    Parameters
    ----------
    x0, p0 : float
        Initial center position and momentum.
    alpha : float
        Momentum-space width parameter (units of 1/momentum); the
        momentum spread is 1/(alpha*sqrt(2)).
    hbar, mass : float
        Action quantum and particle mass, default 1.

    Notes
    -----
    Derived scales: ``beta = alpha*hbar`` is the position-space width,
    ``t0 = mass*hbar*alpha**2`` the spreading time, and
    ``beta_t(t) = beta*hypot(1, t/t0)`` the width at time t.  beta**2
    and t0 must be finite normal floats, and p0**2 + 2/alpha**2 (above
    every kind's <p^2>) finite, or construction raises ValueError.
    """

    x0: float
    p0: float
    alpha: float
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("x0", "p0", "alpha", "hbar", "mass"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("alpha", "hbar", "mass"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        beta, a2 = self.alpha * self.hbar, self.alpha * self.alpha  # no **: it raises OverflowError
        for name, value in (("beta**2", beta * beta), ("t0", self.mass * self.hbar * a2)):
            if not np.finfo(float).tiny <= value < math.inf:  # every other scale derives from these
                raise ValueError(f"{name} = {value!r} is not a finite normal float; rescale alpha, hbar or mass")
        if not self.p0 * self.p0 < math.inf:  # the phase carries p0**2
            raise ValueError(f"p0**2 = {self.p0 * self.p0!r} is not a finite float; rescale p0")
        if not (p2 := self.p0 * self.p0 + 2.0 / a2) < math.inf:  # bounds every kind's <p^2>
            raise ValueError(f"p0**2 + 2/alpha**2 = {p2!r} is not a finite float; rescale p0 or alpha")

    @property
    def beta(self) -> float:
        return self.alpha * self.hbar

    @property
    def t0(self) -> float:
        return self.mass * self.hbar * self.alpha**2

    def beta_t(self, t: float) -> float:
        """Width scale at time t; beta_t(0) = beta, growing like |t|/t0."""
        return self.beta * math.hypot(1.0, t / self.t0)

    def center(self, t: float) -> float:
        """Classical free-flight center X(t) = x0 + p0*t/mass."""
        return self.x0 + self.p0 * t / self.mass

    @property
    def collision_time(self) -> float | None:
        """Classical wall-hit time -mass*x0/p0, or None unless x0 < 0 < p0."""
        if self.x0 < 0.0 < self.p0:
            return -self.mass * self.x0 / self.p0
        return None


@dataclass(frozen=True)
class Moments:
    """Position and momentum means and variances of a state at one instant.

    Second moments are mean*mean + variance and spreads sqrt(variance), so
    no spread cancels far from the origin.  A second moment that is not
    finite, or a negative variance, raises ValueError naming the time.
    A builder that knows the uncertainty product in closed form passes it
    as product, so rounding the spreads cannot take it below its bound.
    """

    time: float
    x_mean: float
    x_var: float
    p_mean: float
    p_var: float
    product: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.x2_mean) and math.isfinite(self.p2_mean)):
            raise ValueError(f"second moments are not finite floats at t = {self.time!r}")
        if self.x_var < 0.0 or self.p_var < 0.0:
            raise ValueError(f"negative variance at t = {self.time!r}")

    x2_mean = property(lambda self: self.x_mean * self.x_mean + self.x_var)
    p2_mean = property(lambda self: self.p_mean * self.p_mean + self.p_var)
    x_sd = property(lambda self: math.sqrt(self.x_var))
    p_sd = property(lambda self: math.sqrt(self.p_var))

    def uncertainty_product(self) -> float:
        return self.x_sd * self.p_sd if self.product is None else self.product


def _blocks(rows: int, *arrays: np.ndarray):
    """The block engine of every array kernel: per block of _BLOCK points, a
    (rows, n) float scratch view, allocated once per call and packed so its
    rows are contiguous, and the matching flat views of arrays (one size)."""
    flat = [a.reshape(-1) for a in arrays]
    size = flat[0].size
    scratch = np.empty(rows * min(size, _BLOCK))
    for start in range(0, size, _BLOCK):
        views = [f[start : start + _BLOCK] for f in flat]
        yield (scratch[: rows * views[0].size].reshape(rows, -1), *views)


def _gaussian(params: PacketParams, x, t: float, order: int) -> np.ndarray:
    """psi_free (order 0) or the node packet (order 1) as an array, a block
    at a time; see the notes of psi_free and psi_node_packet."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    tau = t / params.t0
    bt2 = params.beta**2 * (1.0 + tau * tau)
    big_x = params.center(t)
    # |psi| = exp(u*u*a + c) and theta/2 = u*(u*qa + qb) + qc
    a = -0.5 / bt2
    c = -0.25 * math.log(math.pi * bt2)
    qa = 0.25 * tau / bt2
    qb = 0.5 * params.p0 / params.hbar
    qc = 0.25 * (params.p0**2 * t / (params.mass * params.hbar) - math.atan(tau))
    if order:
        # node factor i*sqrt(2)*u/(beta*(1 + i*tau)) = sqrt(2)*u/beta_t * exp(i*(pi/2 - atan(tau)))
        c += 0.5 * math.log(2.0 / bt2)
        qc += 0.25 * math.pi - 0.5 * math.atan(tau)
    for (u, mod, h), xb, ob in _blocks(3, x, out):
        np.subtract(xb, big_x, out=u)
        np.multiply(u, qa, out=h)
        h += qb
        h *= u
        h += qc
        # theta is infinite only where u*u overflows and |psi| is 0; a finite
        # theta keeps tan, and so psi, finite there
        np.clip(h, -1e300, 1e300, out=h)
        np.tan(h, out=h)
        np.square(u, out=mod)
        mod *= a
        mod += c
        np.exp(mod, out=mod)
        if order:
            mod *= u
        np.square(h, out=u)
        u += 1.0
        np.divide(mod, u, out=u)
        u += u
        np.subtract(u, mod, out=ob.real)
        np.multiply(u, h, out=ob.imag)
    return out


def psi_free(params: PacketParams, x, t: float):
    """Position-space Gaussian packet psi(x, t).

    Parameters
    ----------
    params : PacketParams
    x : float or ndarray
        Position(s) to evaluate at.
    t : float
        Time.

    Returns
    -------
    complex or ndarray
        psi(x, t) = [sqrt(pi)*alpha*hbar*(1 + i*t/t0)]**(-1/2)
        * exp(i*p0*(x - x0)/hbar) * exp(-i*p0**2*t/(2*m*hbar))
        * exp(-(x - X(t))**2 / (2*beta**2*(1 + i*t/t0))).

    Notes
    -----
    Evaluated in real arithmetic as |psi| * exp(i*theta), with u = x - X(t),
    tau = t/t0 and beta_t**2 = beta**2*(1 + tau**2):

        |psi| = exp(-u**2/(2*beta_t**2) - ln(pi*beta_t**2)/4),
        theta/2 = u**2*tau/(4*beta_t**2) + u*p0/(2*hbar)
                  + p0**2*t/(4*m*hbar) - atan(tau)/4,

    and exp(i*theta) = ((1 - h**2) + 2i*h)/(1 + h**2) with h = tan(theta/2),
    so each point costs one real exp and one real tan, which numpy
    vectorizes with AVX-512, where its complex exp (and its sin and cos at
    arguments past a few radians) run point by point in libm.  The real part
    is formed as 2*|psi|/(1 + h**2) - |psi|, within an ulp of |psi|.  h**2
    cannot overflow: no double lies within about 5e-19 of an odd multiple of
    pi/2, so |h| < 1e19.  Points go through in blocks of _BLOCK, so the
    temporaries stay in cache and the only array as large as x is the
    result.  The node packet is the same kernel with other constants.
    """
    return _gaussian(params, x, t, 0)[()]


def phi_free(params: PacketParams, p, t: float):
    """Momentum-space Gaussian packet phi(p, t).

    phi(p, t) = (alpha/sqrt(pi))**(1/2) * exp(-alpha**2*(p - p0)**2/2)
    * exp(-i*p*x0/hbar) * exp(-i*p**2*t/(2*m*hbar)).

    Free evolution multiplies phi by a pure phase, so |phi(p, t)| is
    independent of t.
    """
    p = np.asarray(p, dtype=float)
    amp = math.sqrt(params.alpha / _SQRT_PI)
    out = (
        amp
        * np.exp(-params.alpha**2 * (p - params.p0) ** 2 / 2.0)
        * np.exp(-1j * p * params.x0 / params.hbar - 1j * p**2 * t / (2.0 * params.mass * params.hbar))
    )
    return out[()]


def _gaussian_moments(params: PacketParams, t: float, order: int) -> Moments:
    """Closed-form moments of _gaussian's packet of the given order: <x> = X(t)
    and <p> = p0, with variances (order + 1/2)*beta_t**2 and (order + 1/2)/alpha**2,
    so the product (order + 1/2)*hbar*hypot(1, t/t0), never below its t = 0 value."""
    bt, k = params.beta_t(t), order + 0.5
    product = k * params.hbar * math.hypot(1.0, t / params.t0)
    return Moments(t, params.center(t), k * bt * bt, params.p0, k / params.alpha**2, product)


def free_moments(params: PacketParams, t: float) -> Moments:
    """Closed-form moments of the free Gaussian at time t.

    <x> = X(t) and <p> = p0, with variances beta_t**2/2 and 1/(2*alpha**2);
    the uncertainty product is (hbar/2)*sqrt(1 + (t/t0)**2).
    """
    return _gaussian_moments(params, t, 0)


def autocorrelation_free(params: PacketParams, t: float):
    """Overlap Int psi*(x,0) psi(x,t) dx of the free Gaussian with its evolution.

    A(t) = (1 + i*t/2t0)**(-1/2) * exp[-i*(p0**2*t/(mass*hbar)) / (2*(1 + i*t/2t0))],
    so A(0) = 1 and |A(t)|**2 = (1 + (t/2t0)**2)**(-1/2)
    * exp[-2*alpha**2*p0**2*(t/2t0)**2/(1 + (t/2t0)**2)] decreases
    monotonically in |t| through both the dispersive prefactor and the
    p0-dependent exponential.  The phase rotates with the (positive)
    mean energy, as the defining integral requires.
    """
    u = 1.0 + 0.5j * t / params.t0
    # p0**2*t/(mass*hbar) as the CLI's phase check forms it, so it is finite there
    return complex(np.exp(-1j * params.p0**2 * t / (params.mass * params.hbar) / (2.0 * u)) / np.sqrt(u))
