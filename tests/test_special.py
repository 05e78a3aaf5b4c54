"""Node packet and wall packet: closed forms against quadrature and FFT."""

import math

import numpy as np
import pytest

from wallbounce import (
    BouncerParams,
    PacketParams,
    SpecialParams,
    node_packet_moments,
    phase_space_distance,
    phi_node_packet,
    psi_bouncer,
    psi_node_packet,
    psi_wall_packet,
    wall_packet_force,
    wall_packet_moments,
    wall_packet_uncertainty,
)
from wallbounce.oracle import GridSpec, moment_p, moment_x, sample


SP = SpecialParams(beta=1.0)
SPN = SpecialParams(beta=1.0, x0=-5.0, p0=2.0)


def _wall_state(sp, grid, t):
    return sample(lambda x, tt: psi_wall_packet(sp, x, tt), grid, t)


def wall_grid(t_max, points=12001):
    return GridSpec(-12.0 * SP.beta_t(t_max), points, 0.0)


# ----------------------------------------------------------------- node packet


def test_special_params_validation():
    with pytest.raises(ValueError):
        SpecialParams(beta=0.0)
    with pytest.raises(ValueError):
        SpecialParams(beta=1.0, mass=-1.0)
    with pytest.raises(ValueError):
        SpecialParams(beta=1.0, hbar=0.0)
    p = SpecialParams(beta=2.0, hbar=0.5, mass=3.0)
    assert type(p) is PacketParams
    assert p.alpha == 4.0
    assert p.t0 == 3.0 * 4.0 / 0.5


def test_phi_node_vanishes_at_p0():
    for t in (0.0, 1.2):
        assert phi_node_packet(SPN, SPN.p0, t) == 0.0 + 0.0j


def test_phi_node_density_even_about_p0():
    for d in (0.2, 1.0, 2.5):
        assert abs(phi_node_packet(SPN, SPN.p0 + d, 0.4)) == pytest.approx(
            abs(phi_node_packet(SPN, SPN.p0 - d, 0.4)), rel=1e-13
        )


def test_phi_node_normalized():
    grid = GridSpec(SPN.p0 - 14.0 / SPN.alpha, 8001, SPN.p0 + 14.0 / SPN.alpha)
    state = sample(lambda p, tt: phi_node_packet(SPN, p, tt), grid, 0.7)
    assert abs(moment_x(state, 0) - 1.0) < 1e-10


def test_psi_node_vanishes_at_center():
    for t in (0.0, 0.9, 3.0):
        assert abs(psi_node_packet(SPN, SPN.center(t), t)) < 1e-15


def test_psi_node_matches_fourier_oracle():
    pgrid = GridSpec(SPN.p0 - 14.0 / SPN.alpha, 16001, SPN.p0 + 14.0 / SPN.alpha)
    w = np.ones(pgrid.n_points)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= pgrid.h / 3.0
    ps = pgrid.points()
    for t in (0.0, 1.3):
        phiv = phi_node_packet(SPN, ps, t)
        xs = np.linspace(SPN.center(t) - 4.0, SPN.center(t) + 4.0, 9)
        kern = np.exp(1j * np.outer(xs, ps) / SPN.hbar)
        rec = kern @ (w * phiv) / math.sqrt(2.0 * math.pi * SPN.hbar)
        assert np.max(np.abs(rec - psi_node_packet(SPN, xs, t))) < 1e-7


def test_psi_node_normalized():
    for t in (0.0, 2.0 * SPN.t0):
        span = 13.0 * SPN.beta_t(t)
        c = SPN.center(t)
        grid = GridSpec(c - span, 24001, c + span)
        state = sample(lambda x, tt: psi_node_packet(SPN, x, tt), grid, t)
        assert abs(moment_x(state, 0) - 1.0) < 1e-9


def test_node_moments_closed_forms():
    m0 = node_packet_moments(SPN, 0.0)
    assert m0.uncertainty_product() == pytest.approx(1.5 * SPN.hbar, rel=1e-14)
    for t in (0.0, 0.8, 5.0):
        m = node_packet_moments(SPN, t)
        assert m.p_sd == pytest.approx(math.sqrt(1.5) / SPN.alpha, rel=1e-14)
        assert m.x_sd == pytest.approx(math.sqrt(1.5) * SPN.beta_t(t), rel=1e-14)
        assert m.uncertainty_product() == pytest.approx(
            1.5 * SPN.hbar * math.sqrt(1.0 + (t / SPN.t0) ** 2), rel=1e-14
        )


def test_node_moments_vs_quadrature():
    t = 1.1
    span = 13.0 * SPN.beta_t(t)
    c = SPN.center(t)
    grid = GridSpec(c - span, 24001, c + span)
    state = sample(lambda x, tt: psi_node_packet(SPN, x, tt), grid, t)
    m = node_packet_moments(SPN, t)
    assert abs(moment_x(state, 1) - m.x_mean) < 1e-8
    assert abs(moment_x(state, 2) - m.x2_mean) < 1e-8
    assert abs(moment_p(state, 1, hbar=1.0) - m.p_mean) < 1e-8
    assert abs(moment_p(state, 2, hbar=1.0) - m.p2_mean) < 1e-8


# ----------------------------------------------------------------- wall packet


def test_wall_packet_requires_zero_offset():
    with pytest.raises(ValueError):
        psi_wall_packet(SPN, -1.0, 0.0)


def test_wall_packet_vanishes_at_and_beyond_wall():
    for t in (0.0, 1.0, 4.0):
        assert psi_wall_packet(SP, 0.0, t) == 0.0 + 0.0j
    vals = psi_wall_packet(SP, np.array([-0.5, 0.0, 1.0]), 2.0)
    assert vals[1] == 0 and vals[2] == 0 and vals[0] != 0


def test_wall_packet_normalized_on_half_line():
    grid = wall_grid(5.0, 16001)
    for t in (0.0, SP.t0, 5.0 * SP.t0):
        assert abs(moment_x(_wall_state(SP, grid, t), 0) - 1.0) < 1e-10


def test_wall_packet_is_zero_distance_limit_of_mirror():
    # distance 1e-6 split evenly between offset and momentum
    eps = math.sqrt(5e-7)
    bp = BouncerParams(PacketParams(x0=-eps, p0=eps, alpha=1.0))
    assert phase_space_distance(bp) == pytest.approx(1e-6, rel=1e-12)
    xs = np.linspace(-8.0, 0.0, 321)
    worst = 0.0
    for t in (0.0, 0.3, 1.0, 2.5, 6.0):
        a = np.abs(psi_bouncer(bp, xs, t))
        b = np.abs(psi_wall_packet(SP, xs, t))
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-3


def test_wall_moments_initial_values():
    m = wall_packet_moments(SP, 0.0)
    assert m.x_mean == pytest.approx(-2.0 / math.sqrt(math.pi), rel=1e-14)
    assert m.x2_mean == pytest.approx(1.5, rel=1e-14)
    assert m.p_mean == 0.0
    assert m.p_sd == pytest.approx(math.sqrt(1.5), rel=1e-14)


def test_wall_moments_long_time_momentum_spread():
    limit = math.sqrt(1.5 - 4.0 / math.pi)
    assert wall_packet_moments(SP, 1e5 * SP.t0).p_sd == pytest.approx(limit, abs=1e-9)


def test_wall_moments_vs_quadrature():
    grid = wall_grid(3.0, 16001)
    for t in (0.0, SP.t0, 3.0 * SP.t0):
        m = wall_packet_moments(SP, t)
        st = _wall_state(SP, grid, t)
        assert abs(moment_x(st, 1) - m.x_mean) < 1e-7
        assert abs(moment_x(st, 2) - m.x2_mean) < 1e-7
        assert abs(moment_p(st, 1, hbar=1.0) - m.p_mean) < 1e-7
        assert abs(moment_p(st, 2, hbar=1.0) - m.p2_mean) < 1e-7


def test_wall_momentum_spread_strictly_decreasing():
    ts = np.linspace(0.0, 8.0, 81)
    sds = [wall_packet_moments(SP, t).p_sd for t in ts]
    assert all(a > b for a, b in zip(sds, sds[1:]))
    assert sds[0] == pytest.approx(math.sqrt(1.5), abs=1e-9)


def test_wall_ehrenfest_identity():
    d = 2e-5
    for t in (0.0, 0.7, 2.5):
        fd = SP.mass * (
            wall_packet_moments(SP, t + d).x_mean - wall_packet_moments(SP, t - d).x_mean
        ) / (2.0 * d)
        assert abs(fd - wall_packet_moments(SP, t).p_mean) < 1e-9


def test_wall_force_values():
    assert wall_packet_force(SP, 0.0) == pytest.approx(
        -2.0 / (SP.alpha * math.sqrt(math.pi) * SP.t0), rel=1e-14
    )
    assert wall_packet_force(SP, SP.t0) == pytest.approx(
        wall_packet_force(SP, 0.0) * 2.0**-1.5, rel=1e-14
    )


def test_wall_force_matches_momentum_derivative():
    d = 1e-4
    for t in (0.0, 0.6, 2.0):
        fd = (
            wall_packet_moments(SP, t + d).p_mean - wall_packet_moments(SP, t - d).p_mean
        ) / (2.0 * d)
        assert abs(fd - wall_packet_force(SP, t)) < 1e-8


def test_wall_force_negative_and_shrinking():
    ts = np.linspace(0.0, 6.0, 25)
    vals = [wall_packet_force(SP, t) for t in ts]
    assert all(v < 0 for v in vals)
    mags = [abs(v) for v in vals]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_wall_force_at_tiny_alpha():
    # alpha * t0 underflows to 0 at alpha = 1e-110 (the force is -1.13e330)
    assert wall_packet_force(PacketParams(0.0, 0.0, 1e-100), 0.0) == -1.1283791670955128e300
    with pytest.raises(ValueError, match="t = 0.0"):
        wall_packet_force(PacketParams(0.0, 0.0, 1e-110), 0.0)


def test_wall_uncertainty_coefficients():
    u0 = wall_packet_uncertainty(SP, 0.0)
    assert u0 == pytest.approx(0.5 * math.sqrt(3.0 * (3.0 * math.pi - 8.0) / math.pi), rel=1e-14)
    assert round(u0, 2) == 0.58
    t = 1e6 * SP.t0
    free_product = 0.5 * SP.hbar * math.sqrt(1.0 + (t / SP.t0) ** 2)
    assert round(wall_packet_uncertainty(SP, t) / free_product, 2) == 0.45


def test_wall_uncertainty_consistent_with_moments():
    for t in (0.0, 1.3, 4.0):
        m = wall_packet_moments(SP, t)
        assert abs(wall_packet_uncertainty(SP, t) - m.x_sd * m.p_sd) < 1e-12


def test_wall_positive_momentum_fraction_drops():
    # FFT of the half-line state: reflection folds the positive-momentum
    # half of the distribution to negative values over a time ~ t0
    grid = GridSpec(-48.0, 4801, 0.0)

    def positive_fraction(t):
        st = _wall_state(SP, grid, t)
        xs_full = np.arange(-48.0, 48.0, grid.h)
        vals = np.zeros(xs_full.size, dtype=complex)
        vals[: grid.n_points] = st.values
        phi = np.fft.fft(vals)
        ps = 2.0 * math.pi * np.fft.fftfreq(xs_full.size, d=grid.h) * SP.hbar
        dens = np.abs(phi) ** 2
        # strictly positive vs strictly negative; DC and Nyquist carry no sign
        return float(dens[ps > 0].sum() / (dens[ps > 0].sum() + dens[ps < 0].sum()))

    f0 = positive_fraction(0.0)
    f3 = positive_fraction(3.0 * SP.t0)
    # the t = 0 state is real up to a global phase, so its momentum
    # density is symmetric and the positive fraction is exactly half
    assert f0 == pytest.approx(0.5, abs=1e-9)
    assert f3 < f0 - 0.1
