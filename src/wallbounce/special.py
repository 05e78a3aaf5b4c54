"""Non-standard Gaussian packets: the node packet and the wall packet.

The *node packet* is a free-particle solution whose momentum amplitude
carries an odd prefactor (p - p0), so both the momentum and position
densities have a node riding at the packet center.  Its zero-offset
limit (x0 = p0 = 0) vanishes at x = 0 for all times and therefore also
solves the hard-wall problem directly; restricted to x <= 0 and
renormalized by sqrt(2) it is called the *wall packet* here.  The wall
packet is the degenerate limit of the mirror construction in
:mod:`wallbounce.bouncer` (exact for every z > 0, and equal to it up to a
phase as z -> 0).  Its momentum spread *decreases* with time as the
outgoing components reflect off the wall.  Both packets are evaluated by
the real-arithmetic kernel of :func:`~wallbounce.packets.psi_free`, whose
amplitude and phase constants absorb the node factor.

Both packets take the :class:`~wallbounce.packets.PacketParams` of the
free Gaussian: the wall packet of position width beta is
``PacketParams(0, 0, beta/hbar, hbar, mass)``.  ``SpecialParams(beta=...)``
builds the same and is kept for existing callers.

All moments below are exact closed forms; the momentum ones follow from
applying (hbar/i)*d/dx to the explicit wavefunctions.
"""

from __future__ import annotations

import math

import numpy as np

from .packets import _SQRT_PI, Moments, PacketParams, _gaussian, _gaussian_moments, phi_free

__all__ = [
    "SpecialParams",
    "phi_node_packet",
    "psi_node_packet",
    "node_packet_moments",
    "psi_wall_packet",
    "wall_packet_moments",
    "wall_packet_force",
    "wall_packet_uncertainty",
]


def SpecialParams(
    beta: float, hbar: float = 1.0, mass: float = 1.0, x0: float = 0.0, p0: float = 0.0
) -> PacketParams:
    """Length-scale-first construction of the :class:`PacketParams` these packets take.

    ``beta`` is the position width scale, so ``alpha = beta/hbar``.
    ``x0``/``p0`` apply to the node packet only; the wall packet requires
    both to be zero.
    """
    if not hbar > 0.0:
        raise ValueError(f"hbar must be positive, got {hbar!r}")
    return PacketParams(x0, p0, beta / hbar, hbar, mass)


def phi_node_packet(sp: PacketParams, p, t: float):
    """Momentum-space node packet: a Gaussian with an odd (p - p0) prefactor.

    phi(p, t) = sqrt(2*alpha**3/sqrt(pi)) * (p - p0)
    * exp(-alpha**2*(p - p0)**2/2) * exp(-i*p*x0/hbar)
    * exp(-i*p**2*t/(2*m*hbar)); normalized on the full p-line, with a
    node at p = p0.  Evaluated as sqrt(2)*alpha*(p - p0) times
    :func:`~wallbounce.packets.phi_free`.
    """
    p = np.asarray(p, dtype=float)
    return (math.sqrt(2.0) * sp.alpha * (p - sp.p0) * phi_free(sp, p, t))[()]


def psi_node_packet(sp: PacketParams, x, t: float):
    """Position-space node packet (Fourier transform of :func:`phi_node_packet`).

    psi(x, t) = i * sqrt(2 / (sqrt(pi)*beta**3*(1 + i*t/t0)**3))
    * exp(i*p0*(x - x0)/hbar) * exp(-i*p0**2*t/(2*m*hbar))
    * (x - X(t)) * exp(-(x - X(t))**2/(2*beta**2*(1 + i*t/t0))),
    with the principal branch for the 3/2-power and a node at x = X(t).
    The prefactor is fixed by unit full-line norm.  It is psi_free times
    i*sqrt(2)/(beta*(1 + i*t/t0)) * (x - X(t)), exact on the principal
    branch because Re(1 + i*t/t0) > 0, and is evaluated by psi_free's
    kernel with ln(sqrt(2)/beta_t) added to the log-amplitude,
    (pi/2 - atan(t/t0))/2 added to the half phase, and the modulus
    multiplied by x - X(t): one real exp and one real tan per point.
    """
    return _gaussian(sp, x, t, 1)[()]


def node_packet_moments(sp: PacketParams, t: float) -> Moments:
    """Closed-form moments of the node packet, order 1 of the free packet's.

    <p> = p0 and <x> = X(t), with variances 3/(2*alpha**2) and 3*beta_t**2/2,
    so dx*dp = (3*hbar/2)*sqrt(1 + (t/t0)**2), three times the minimal
    Gaussian product.
    """
    return _gaussian_moments(sp, t, 1)


def _require_zero_offset(sp: PacketParams):
    if sp.x0 != 0.0 or sp.p0 != 0.0:
        raise ValueError("wall packet requires x0 = 0 and p0 = 0")


def psi_wall_packet(sp: PacketParams, x, t: float):
    """Half-line wall packet: sqrt(2) times the zero-offset node packet for x <= 0.

    Vanishes identically for x >= 0 and at the wall for all t, so it is
    an exact bouncing solution in its own right; the sqrt(2) restores
    unit norm on the half-line.  Evaluated as the node packet at
    min(x, 0), whose factor min(x, 0) is exactly 0 beyond the wall, then
    multiplied in place by sqrt(2), so no select is needed and the values
    are bit for bit sqrt(2) * psi_node_packet(min(x, 0)).
    """
    _require_zero_offset(sp)
    out = _gaussian(sp, np.minimum(np.asarray(x, dtype=float), 0.0), t, 1)
    out *= math.sqrt(2.0)
    return out[()]


def wall_packet_moments(sp: PacketParams, t: float) -> Moments:
    """Closed-form moments of the wall packet.

    <x> = -2*beta_t/sqrt(pi), <x^2> = 3*beta_t**2/2,
    <p> = -(2*hbar/(beta*sqrt(pi))) * s/sqrt(1 + s**2) with s = t/t0,
    <p^2> = 3*hbar**2/(2*beta**2) (conserved); with c = 3/2 - 4/pi the
    variances are c*beta_t**2 and (hbar/beta)**2 * (c + (4/pi)/(1 + s**2)).
    The momentum spread decreases in time: the positive-momentum half of
    the distribution is folded to negative values as it reflects off the wall.
    """
    _require_zero_offset(sp)
    s = t / sp.t0
    bt = sp.beta_t(t)
    hb = sp.hbar / sp.beta
    c = 1.5 - 4.0 / math.pi
    p_mean = -(2.0 * hb / _SQRT_PI) * (s / math.hypot(1.0, s))
    p_var = hb * hb * (c + (4.0 / math.pi) / (1.0 + s * s))
    return Moments(t, -2.0 * bt / _SQRT_PI, c * bt * bt, p_mean, p_var)


def wall_packet_force(sp: PacketParams, t: float) -> float:
    """Wall force d<p>/dt = -(2/(alpha*sqrt(pi)*t0)) * (1 + (t/t0)**2)**(-3/2) on
    the wall packet: always negative, with magnitude decreasing monotonically
    from the initial value of order dp0/t0.  A force that is not finite raises
    ValueError."""
    _require_zero_offset(sp)
    s = t / sp.t0
    force = -(2.0 / (sp.alpha * _SQRT_PI)) / sp.t0 * (1.0 + s * s) ** -1.5  # alpha*t0 may underflow
    if not math.isfinite(force):
        raise ValueError(f"the wall force at t = {t!r} is not a finite float ({force}); rescale alpha")
    return force


def wall_packet_uncertainty(sp: PacketParams, t: float) -> float:
    """Uncertainty product dx*dp of the wall packet.

    Starts at (hbar/2)*sqrt(3*(3*pi - 8)/pi) ~ 0.58*hbar, and grows for
    t >> t0 with slope (3*pi - 8)/pi ~ 0.45 relative to the standard
    Gaussian product.
    """
    m = wall_packet_moments(sp, t)
    return m.uncertainty_product()
