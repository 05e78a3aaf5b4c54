"""Free Gaussian packet: closed forms against quadrature and identities."""

import math

import numpy as np
import pytest

from wallbounce import PacketParams, autocorrelation_free, free_moments, phi_free, psi_free
from wallbounce.oracle import GridSpec, moment_x, moment_p, overlap, sample, window_grid


PP = PacketParams(x0=-5.0, p0=2.0, alpha=1.0)


def test_params_reject_nonpositive_scales():
    for bad in (dict(alpha=0.0), dict(alpha=-1.0), dict(hbar=0.0), dict(mass=-2.0)):
        kwargs = dict(x0=0.0, p0=0.0, alpha=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            PacketParams(**kwargs)
    # beta**2 is subnormal or overflows; t0 is subnormal or overflows
    for bad in (
        dict(alpha=1e-160),
        dict(alpha=1e200),
        dict(alpha=1e-100, mass=1e-120),
        dict(alpha=1e100, hbar=1e-100, mass=1e300),
    ):
        with pytest.raises(ValueError, match="normal float"):
            PacketParams(x0=0.0, p0=0.0, **bad)
    # p0**2 overflows, where psi's phase and <p^2> need it
    for p0 in (1.35e154, -1e155, 8.5e258):
        with pytest.raises(ValueError, match=r"p0\*\*2 = inf"):
            PacketParams(x0=0.0, p0=p0, alpha=1.0)
    assert PacketParams(x0=0.0, p0=1.3e154, alpha=1.0).p0 == 1.3e154
    # p0**2 + 2/alpha**2, above every kind's <p^2>, overflows
    for bad in (dict(alpha=1e-160, hbar=1e160, mass=1e10), dict(alpha=8.16e-155, hbar=1e154)):
        with pytest.raises(ValueError, match=r"p0\*\*2 \+ 2/alpha\*\*2 = inf"):
            PacketParams(x0=0.0, p0=0.0, **bad)


def test_params_reject_nonfinite():
    with pytest.raises(ValueError):
        PacketParams(x0=math.inf, p0=0.0, alpha=1.0)
    with pytest.raises(ValueError):
        PacketParams(x0=0.0, p0=math.nan, alpha=1.0)


def test_derived_scales():
    p = PacketParams(x0=-1.0, p0=0.5, alpha=2.0, hbar=3.0, mass=0.5)
    assert p.beta == 6.0
    assert p.t0 == 0.5 * 3.0 * 4.0
    assert p.beta_t(0.0) == p.beta
    for t in (0.1, 1.0, 40.0):
        assert p.beta_t(t) > p.beta
        assert p.beta_t(-t) == p.beta_t(t)


def test_psi_free_peak_modulus_at_t0():
    val = psi_free(PP, PP.x0, 0.0)
    expected = (math.sqrt(math.pi) * PP.alpha * PP.hbar) ** -0.5
    assert abs(abs(val) - expected) < 1e-15


def test_psi_free_natural_units_origin():
    p = PacketParams(x0=0.0, p0=0.0, alpha=1.0)
    assert abs(psi_free(p, 0.0, 0.0) - math.pi**-0.25) < 1e-15


def test_psi_free_norm_trapezoid_quadrature():
    # a trapezoid sum, independent of the oracle's Simpson; tails make it
    # spectrally accurate here
    t = 3.0 * PP.t0
    grid = window_grid(PP, 0.0, t, half_line=False)
    density = np.abs(psi_free(PP, grid.points(), t)) ** 2
    norm = (0.5 * (density[0] + density[-1]) + density[1:-1].sum()) * grid.h
    assert abs(norm - 1.0) < 1e-10


def test_phi_free_peak_modulus():
    for t in (0.0, 0.7, 5.0):
        assert abs(abs(phi_free(PP, PP.p0, t)) - math.sqrt(PP.alpha / math.sqrt(math.pi))) < 1e-15


def test_phi_free_modulus_time_invariant():
    ps = np.linspace(PP.p0 - 4.0, PP.p0 + 4.0, 41)
    ref = np.abs(phi_free(PP, ps, 0.0))
    for t in (0.3, 1.0, 12.0):
        np.testing.assert_allclose(np.abs(phi_free(PP, ps, t)), ref, rtol=1e-15, atol=0.0)


def test_phi_to_psi_fourier_oracle():
    # psi(x) = (2 pi hbar)^(-1/2) Int phi(p) e^{ipx/hbar} dp, composite Simpson in p
    pgrid = GridSpec(PP.p0 - 14.0 / PP.alpha, 16001, PP.p0 + 14.0 / PP.alpha)
    w = np.ones(pgrid.n_points)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= pgrid.h / 3.0
    ps = pgrid.points()
    phiv = phi_free(PP, ps, 0.0)
    xs = np.linspace(PP.x0 - 4.0, PP.x0 + 4.0, 9)
    kern = np.exp(1j * np.outer(xs, ps) / PP.hbar)
    reconstructed = kern @ (w * phiv) / math.sqrt(2.0 * math.pi * PP.hbar)
    assert np.max(np.abs(reconstructed - psi_free(PP, xs, 0.0))) < 1e-8


def test_free_moments_trivials():
    p = PacketParams(x0=-5.0, p0=2.0, alpha=1.0)
    m = free_moments(p, 1.0)
    assert m.x_mean == pytest.approx(-3.0, abs=1e-15)
    assert m.p_mean == 2.0
    m0 = free_moments(p, p.t0)
    assert m0.x_sd == pytest.approx(1.0, abs=1e-15)  # beta_t(t0)/sqrt(2) = 1
    assert m0.p_sd == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


def test_moments_reject_inconsistent_values():
    from wallbounce import Moments

    with pytest.raises(ValueError, match="t = 0.0"):
        Moments(0.0, x_mean=2.0, x_var=-3.0, p_mean=0.0, p_var=1.0)


def test_gaussian_spreads_hold_far_from_the_origin():
    # the spreads come from the variances, not from <x^2> - <x>**2, so a mean
    # 1e150 widths from the origin leaves them exact to a few ulps
    from wallbounce import node_packet_moments

    rng = np.random.default_rng(20261021)
    for _ in range(400):
        alpha, hbar, mass = (10.0 ** rng.uniform(-3.0, 3.0, size=3)).tolist()
        # x0/beta and p0*alpha, each up to 1e150 in magnitude
        x_off, p_off = (rng.choice([-1.0, 1.0], size=2) * 10.0 ** rng.uniform(0.0, 150.0, size=2)).tolist()
        p = PacketParams(x_off * alpha * hbar, p_off / alpha, alpha, hbar, mass)
        t = p.t0 * float(rng.uniform(-10.0, 10.0))
        for moments, order in ((free_moments, 0), (node_packet_moments, 1)):
            x_mean = p.center(t)
            if not x_mean * x_mean < math.inf:  # its square overflows: refused, naming t
                with pytest.raises(ValueError, match="t = "):
                    moments(p, t)
                continue
            m = moments(p, t)
            x_sd = math.sqrt(order + 0.5) * p.beta_t(t)
            p_sd = math.sqrt(order + 0.5) / alpha
            assert abs(m.x_sd - x_sd) <= 4.0 * math.ulp(x_sd), (p, t, order)
            assert abs(m.p_sd - p_sd) <= 4.0 * math.ulp(p_sd), (p, t, order)
            assert m.uncertainty_product() >= 0.5 * hbar, (p, t, order)


def test_time_ratios_do_not_overflow():
    # s = t/t0 is 2e300 and 1e155: s*s overflows, s/hypot(1, s) does not
    from wallbounce import p_mean_at_collision, wall_packet_moments

    scale = 1e150 / math.sqrt(math.pi)  # hbar/(beta*sqrt(pi)) at alpha = 1e-150
    assert p_mean_at_collision(PacketParams(-10.0, 5.0, 1e-150)) == pytest.approx(-scale, rel=1e-15)
    wall = PacketParams(0.0, 0.0, 1e-150)
    m = wall_packet_moments(wall, 1e155 * wall.t0)
    assert m.p_mean == pytest.approx(-2.0 * scale, rel=1e-15)
    assert m.p_sd == pytest.approx(1e150 * math.sqrt(1.5 - 4.0 / math.pi), rel=1e-15)


def test_closed_forms_at_huge_time_refuse_or_saturate():
    # beta_t**2 and X(t)**2 overflow at t = 1e200: a Moments is refused with
    # a ValueError that names t, and a single moment saturates
    from wallbounce import (
        ApproximationWindowWarning, node_packet_moments, position_second_moment,
        wall_packet_moments, wall_packet_uncertainty, x_mean_near_collision,
    )

    t = 1e200
    params, wall = PacketParams(-10.0, 5.0, 1.0), PacketParams(0.0, 0.0, 1.0)
    for moments, p in [
        (free_moments, params), (node_packet_moments, params),
        (wall_packet_moments, wall), (wall_packet_uncertainty, wall),
    ]:
        with pytest.raises(ValueError, match="t = 1e"):
            moments(p, t)
    assert position_second_moment(params, t) == math.inf
    # a wall correction that underflows to 0 leaves the free value, not inf * 0
    assert position_second_moment(PacketParams(-100.0, 5.0, 1.0), t) == math.inf
    with pytest.warns(ApproximationWindowWarning):
        assert x_mean_near_collision(params, t) == -math.inf


def test_free_uncertainty_product():
    for t in (0.0, 0.5, 2.0, 17.0):
        m = free_moments(PP, t)
        expected = 0.5 * PP.hbar * math.sqrt(1.0 + (t / PP.t0) ** 2)
        assert m.uncertainty_product() == pytest.approx(expected, rel=1e-14)


def test_free_moments_vs_quadrature():
    t = 1.7
    grid = window_grid(PP, 0.0, t, half_line=False)
    state = sample(lambda x, tt: psi_free(PP, x, tt), grid, t)
    m = free_moments(PP, t)
    assert abs(moment_x(state, 2) - m.x2_mean) < 1e-9
    assert abs(moment_x(state, 1) - m.x_mean) < 1e-9
    assert abs(moment_p(state, 1, hbar=1.0) - m.p_mean) < 1e-8
    assert abs(moment_p(state, 2, hbar=1.0) - m.p2_mean) < 1e-8


def test_normalization_preserved_over_time():
    grid = window_grid(PP, 0.0, 4.0, half_line=False)
    for t in (0.0, 0.5, 1.5, 4.0):
        state = sample(lambda x, tt: psi_free(PP, x, tt), grid, t)
        assert abs(moment_x(state, 0) - 1.0) < 1e-9


def test_ehrenfest_position_law():
    # m d<x>/dt from the closed form equals <p> = p0
    for t in (0.0, 1.0, 3.0):
        d = 1e-3
        fd = PP.mass * (free_moments(PP, t + d).x_mean - free_moments(PP, t - d).x_mean) / (2 * d)
        assert abs(fd - PP.p0) < 1e-8


def test_schrodinger_residual_second_order():
    # i hbar dpsi/dt + hbar^2/2m psi_xx, finite differences; halving (h, dt)
    # must cut the residual by ~4 (second order)
    def residual(h, dt):
        worst = 0.0
        for x, t in ((-4.2, 0.3), (-5.5, 1.1), (-2.0, 2.0)):
            dpsi_dt = (psi_free(PP, x, t + dt) - psi_free(PP, x, t - dt)) / (2 * dt)
            lap = (psi_free(PP, x + h, t) - 2 * psi_free(PP, x, t) + psi_free(PP, x - h, t)) / h**2
            worst = max(worst, abs(1j * PP.hbar * dpsi_dt + PP.hbar**2 / (2 * PP.mass) * lap))
        return worst

    ratio = residual(0.02, 0.02) / residual(0.01, 0.01)
    assert 3.5 < ratio < 4.5


def test_values_finite_over_broad_domain():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = PacketParams(
            x0=rng.uniform(-50.0, 50.0),
            p0=rng.uniform(-20.0, 20.0),
            alpha=10.0 ** rng.uniform(-2, 2),
            hbar=10.0 ** rng.uniform(-1, 1),
            mass=10.0 ** rng.uniform(-1, 1),
        )
        t = rng.uniform(-1e6, 1e6) * p.t0
        xs = p.center(t) + p.beta_t(t) * rng.uniform(-20.0, 20.0, size=5)
        assert np.all(np.isfinite(psi_free(p, xs, t)))
        ps = p.p0 + rng.uniform(-20.0, 20.0, size=5) / p.alpha
        assert np.all(np.isfinite(phi_free(p, ps, t)))


def test_principal_branch_continuity_in_time():
    # Re(1 + it/t0) = 1 > 0 keeps sqrt on the principal sheet; values must
    # vary smoothly through t = 0 and out to large |t|
    ts = np.linspace(-5.0, 5.0, 801)
    vals = np.array([psi_free(PP, PP.x0 + 0.3, t) for t in ts])
    steps = np.abs(np.diff(vals))
    assert np.max(steps) < 0.05


def test_autocorrelation_trivials():
    assert autocorrelation_free(PP, 0.0) == 1.0 + 0.0j
    # (alpha*p0)**2 overflows where p0**2*t/(mass*hbar) does not
    extreme = PacketParams(-0.005, 1.5e129, 3.7e46, 5.3e-79, 8.5e-157)
    assert autocorrelation_free(extreme, 0.0) == 1.0 + 0.0j
    m = free_moments(extreme, 0.0)
    assert math.isfinite(m.x2_mean) and math.isfinite(m.p2_mean)
    p_rest = PacketParams(x0=-3.0, p0=0.0, alpha=1.0)
    a = autocorrelation_free(p_rest, 2.0 * p_rest.t0)
    assert abs(abs(a) ** 2 - 1.0 / math.sqrt(2.0)) < 1e-14


def test_autocorrelation_modulus_closed_form():
    for t in (0.3, 1.0, 4.0):
        u2 = (t / (2.0 * PP.t0)) ** 2
        expected = math.exp(-2.0 * PP.alpha**2 * PP.p0**2 * u2 / (1.0 + u2)) / math.sqrt(1.0 + u2)
        assert abs(autocorrelation_free(PP, t)) ** 2 == pytest.approx(expected, rel=1e-13)


def test_autocorrelation_vs_overlap_oracle():
    grid = window_grid(PP, 0.0, 2.5, half_line=False)
    ref = sample(lambda x, tt: psi_free(PP, x, tt), grid, 0.0)
    for t in (0.5, 1.0, 2.5):
        evolved = sample(lambda x, tt: psi_free(PP, x, tt), grid, t)
        assert abs(autocorrelation_free(PP, t) - overlap(ref, evolved)) < 1e-8


def test_autocorrelation_monotone_decrease():
    ts = np.linspace(0.0, 6.0, 61)
    mags = [abs(autocorrelation_free(PP, t)) for t in ts]
    assert all(a > b for a, b in zip(mags, mags[1:]))
