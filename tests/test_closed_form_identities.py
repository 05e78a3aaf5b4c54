"""Every closed-form wavefunction is psi_free times an exact factor.

The references below are the explicit formulas, each packet built from
its own amplitude, phase and envelope, and the bouncer as the plain
difference psi(x) - psi(-x) of two free packets.  The library must agree
with them wherever that difference is well conditioned, stay finite
where a careless factor would overflow, and keep its accuracy as the
mirror distance z goes to 0, where the plain difference loses it.
"""

import math

import numpy as np
import pytest

from wallbounce import (
    BouncerParams,
    PacketParams,
    SpecialParams,
    autocorrelation_bouncer,
    autocorrelation_free,
    psi_bouncer,
    psi_free,
    psi_node_packet,
    psi_wall_packet,
)

_SQRT_PI = math.sqrt(math.pi)


def ref_psi_free(p, x, t):
    w = 1.0 + 1j * t / p.t0
    amp = 1.0 / np.sqrt(_SQRT_PI * p.alpha * p.hbar * w)
    phase = np.exp(1j * p.p0 * (x - p.x0) / p.hbar - 1j * p.p0**2 * t / (2.0 * p.mass * p.hbar))
    envelope = np.exp(-((x - p.center(t)) ** 2) / (2.0 * p.beta**2 * w))
    return amp * phase * envelope


def ref_psi_node(p, x, t):
    w = 1.0 + 1j * t / p.t0
    amp = 1j * math.sqrt(2.0 / (_SQRT_PI * p.beta**3)) / (w * np.sqrt(w))
    xc = x - p.center(t)
    phase = np.exp(1j * p.p0 * (x - p.x0) / p.hbar - 1j * p.p0**2 * t / (2.0 * p.mass * p.hbar))
    return amp * phase * xc * np.exp(-(xc**2) / (2.0 * p.beta**2 * w))


def ref_psi_wall(p, x, t):
    w = 1.0 + 1j * t / p.t0
    amp = 1j * math.sqrt(4.0 / (_SQRT_PI * p.beta**3)) / (w * np.sqrt(w))
    val = amp * x * np.exp(-(x**2) / (2.0 * p.beta**2 * w))
    return np.where(x <= 0.0, val, 0.0 + 0.0j)


def ref_psi_bouncer(bp, x, t):
    diff = ref_psi_free(bp.base, x, t) - ref_psi_free(bp.base, -x, t)
    return np.where(x < 0.0, bp.norm_constant * diff, 0.0 + 0.0j)


def _random_cases(n=300, seed=20260418):
    """(packet, time, grid) triples: hbar and mass off 1, negative times,
    grids wide enough for the packet and its mirror on both sides of x = 0."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        hbar, mass, alpha = 10.0 ** rng.uniform(-0.5, 0.5, size=3)
        beta = alpha * hbar
        p = PacketParams(
            x0=-beta * rng.uniform(0.2, 12.0),  # z >= 0.04
            p0=rng.uniform(-6.0, 6.0),
            alpha=alpha,
            hbar=hbar,
            mass=mass,
        )
        t = rng.uniform(-3.0, 6.0) * p.t0
        reach = abs(p.x0) + abs(p.p0 * t / mass) + 9.0 * p.beta_t(t)
        yield p, t, np.linspace(-reach, reach, 401)


def _far_cases():
    # a packet 200 widths out, before (t = 20) and after (t = 60) its
    # collision at t = 40: the mirror factor exp(-2*k*x) is then about
    # exp(+-1.6e4) at the grid edge
    p = PacketParams(x0=-200.0, p0=5.0, alpha=1.0)
    for t in (20.0, 60.0):
        yield p, t, np.linspace(-260.0, 260.0, 2001)


def _assert_close(got, want, tol=2e-12):
    scale = float(np.max(np.abs(want)))
    assert scale > 0.0
    assert float(np.max(np.abs(got - want))) <= tol * scale


def test_closed_forms_match_reference_formulas():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for p, t, x in list(_random_cases()) + list(_far_cases()):
            _assert_close(psi_free(p, x, t), ref_psi_free(p, x, t))
            _assert_close(psi_node_packet(p, x, t), ref_psi_node(p, x, t))
            bp = BouncerParams(p)
            assert bp.phase_space_distance >= 1e-2
            got = psi_bouncer(bp, x, t)
            _assert_close(got, ref_psi_bouncer(bp, x, t))
            assert np.all(got[x >= 0.0] == 0.0)
            wall = SpecialParams(beta=p.beta, hbar=p.hbar, mass=p.mass)
            got_wall = psi_wall_packet(wall, x, t)
            _assert_close(got_wall, ref_psi_wall(wall, x, t))
            assert np.all(got_wall[x >= 0.0] == 0.0)


def test_wall_packet_rounds_as_scaled_node_packet():
    # the wall packet is evaluated without a select, but rounded exactly as
    # sqrt(2) * psi_node_packet on x <= 0, so densities keep every byte
    for p, t, x in _random_cases(n=60, seed=7):
        wall = SpecialParams(beta=p.beta, hbar=p.hbar, mass=p.mass)
        want = np.where(x <= 0.0, math.sqrt(2.0) * psi_node_packet(wall, x, t), 0.0)
        got = psi_wall_packet(wall, x, t)
        assert np.array_equal(got, want)
        assert np.array_equal(np.abs(got) ** 2, np.abs(want) ** 2)
    wall = SpecialParams(beta=1.0)
    assert psi_wall_packet(wall, 0.0, 1.0) == 0.0
    assert psi_wall_packet(wall, 3.0, 1.0) == 0.0
    assert psi_wall_packet(wall, -1.0, 1.0) == math.sqrt(2.0) * psi_node_packet(wall, -1.0, 1.0)


@pytest.mark.parametrize("z", [1e-2, 1e-6, 1e-12, 1e-20, 1e-28, 1e-100, 1e-300])
def test_mirror_difference_tends_to_wall_packet(z):
    # z split evenly between offset and momentum; the moduli agree to O(z)
    # (the two differ by a constant phase), with no loss at small z
    a = math.sqrt(z / 2.0)
    bp = BouncerParams(PacketParams(x0=-a, p0=a, alpha=1.0))
    wall = SpecialParams(beta=1.0)
    assert bp.phase_space_distance == pytest.approx(z, rel=1e-12)
    worst = 0.0
    for t in (0.0, 0.3, 1.0, 2.5, 6.0):
        xs = np.linspace(-10.0 * wall.beta_t(t), 0.0, 801)
        got = np.abs(psi_bouncer(bp, xs, t))
        want = np.abs(psi_wall_packet(wall, xs, t))
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(want)))
    assert worst <= 0.2 * z + 4e-15


def _one_minus_exp_series(w, terms=30):
    """1 - exp(-w) by its Taylor series, exact to round-off for |w| <= 0.1."""
    total, term = 0j, -1.0 + 0j
    for n in range(1, terms):
        term *= -w / n
        total += term
    return total


@pytest.mark.parametrize("z", [1e-2, 1.1e-4, 1e-6, 1e-12, 1e-300])
def test_autocorrelation_mirror_factor_exact_at_small_distance(z):
    a = math.sqrt(z / 2.0)
    p = PacketParams(x0=-a, p0=a, alpha=1.0)
    bp = BouncerParams(p)
    for t in (0.0, 0.5, 3.0, -2.0):
        u = 1.0 + 0.5j * t / p.t0
        want = autocorrelation_free(p, t) * _one_minus_exp_series(z / u) / _one_minus_exp_series(z)
        assert abs(autocorrelation_bouncer(bp, t) - want) <= 2e-15 * abs(want)
