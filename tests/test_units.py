"""Everything again in non-natural units: hbar and mass must thread through.

A dropped hbar or mass factor is invisible when both equal 1, so this
module re-runs the key closed-form-vs-oracle comparisons at
hbar = 0.7, mass = 2.3, alpha = 1.7.
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
    free_moments,
    momentum_second_moment,
    p_mean_at_collision,
    phase_space_distance,
    position_second_moment,
    psi_bouncer,
    psi_free,
    psi_wall_packet,
    wall_packet_moments,
    wall_packet_uncertainty,
    x_mean_near_collision,
)
from wallbounce.oracle import (
    GridSpec,
    moment_p,
    moment_x,
    overlap,
    propagate,
    sample,
    window_grid,
)
from wallbounce.packets import phi_free

HBAR, MASS, ALPHA = 0.7, 2.3, 1.7
PP = PacketParams(x0=-4.2, p0=3.1, alpha=ALPHA, hbar=HBAR, mass=MASS)


def test_derived_scales_carry_units():
    assert PP.beta == pytest.approx(ALPHA * HBAR)
    assert PP.t0 == pytest.approx(MASS * HBAR * ALPHA**2)


def test_free_closed_forms_vs_oracle():
    t = 1.4 * PP.t0
    grid = window_grid(PP, 0.0, t, half_line=False)
    state = sample(lambda x, tt: psi_free(PP, x, tt), grid, t)
    m = free_moments(PP, t)
    assert abs(moment_x(state, 0) - 1.0) < 1e-10
    assert abs(moment_x(state, 1) - m.x_mean) < 1e-9
    assert abs(moment_x(state, 2) - m.x2_mean) < 1e-9
    assert abs(moment_p(state, 1, hbar=HBAR) - m.p_mean) < 1e-8
    assert abs(moment_p(state, 2, hbar=HBAR) - m.p2_mean) < 1e-8
    ref = sample(lambda x, tt: psi_free(PP, x, tt), grid, 0.0)
    assert abs(autocorrelation_free(PP, t) - overlap(ref, state)) < 1e-9


def test_fourier_relation_with_hbar():
    pgrid = GridSpec(PP.p0 - 14.0 / ALPHA, 16001, PP.p0 + 14.0 / ALPHA)
    w = np.ones(pgrid.n_points)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= pgrid.h / 3.0
    ps = pgrid.points()
    xs = np.linspace(PP.x0 - 2.0, PP.x0 + 2.0, 7)
    kern = np.exp(1j * np.outer(xs, ps) / HBAR)
    rec = kern @ (w * phi_free(PP, ps, 0.0)) / math.sqrt(2.0 * math.pi * HBAR)
    assert np.max(np.abs(rec - psi_free(PP, xs, 0.0))) < 1e-8


def test_mirror_closed_forms_vs_oracle():
    bp = BouncerParams(PP)
    tc = bp.collision_time
    assert tc == pytest.approx(-MASS * PP.x0 / PP.p0)
    grid = window_grid(PP, 0.0, 2.0 * tc, half_line=True)
    ref = sample(lambda x, tt: psi_bouncer(bp, x, tt), grid, 0.0)
    for t in (0.0, tc, 2.0 * tc):
        st = sample(lambda x, tt: psi_bouncer(bp, x, tt), grid, t)
        assert abs(moment_x(st, 0) - 1.0) < 1e-9
        x2 = position_second_moment(bp, t)
        assert abs(moment_x(st, 2) - x2) / x2 < 1e-7
        p2 = momentum_second_moment(bp)
        assert abs(moment_p(st, 2, hbar=HBAR) - p2) / p2 < 1e-6
    for t in (0.5 * tc, 1.7 * tc):
        st = sample(lambda x, tt: psi_bouncer(bp, x, tt), grid, t)
        assert abs(autocorrelation_bouncer(bp, t) - overlap(ref, st)) < 1e-7


def test_near_collision_expansions_with_units():
    params = PacketParams(x0=-9.0 * ALPHA * HBAR, p0=3.0 / ALPHA, alpha=ALPHA, hbar=HBAR, mass=MASS)
    bp = BouncerParams(params)
    assert phase_space_distance(bp) == pytest.approx(90.0, rel=1e-12)
    tc = bp.collision_time
    assert tc / params.t0 == pytest.approx(3.0, rel=1e-12)
    grid = window_grid(params, 0.0, tc + 0.1 * params.t0, half_line=True)
    st = sample(lambda x, tt: psi_bouncer(bp, x, tt), grid, tc)
    x_num = moment_x(st, 1)
    assert abs(x_mean_near_collision(bp, tc, terms=1) - x_num) / abs(x_num) < 0.05
    p_num = moment_p(st, 1, hbar=HBAR)
    assert abs(p_mean_at_collision(bp) - p_num) / abs(p_num) < 0.10


def test_wall_packet_with_units():
    sp = SpecialParams(beta=PP.beta, hbar=HBAR, mass=MASS)
    grid = GridSpec(-12.0 * sp.beta_t(3.0 * sp.t0), 14001, 0.0)
    for t in (0.0, sp.t0, 3.0 * sp.t0):
        st = sample(lambda x, tt: psi_wall_packet(sp, x, tt), grid, t)
        m = wall_packet_moments(sp, t)
        assert abs(moment_x(st, 0) - 1.0) < 1e-10
        assert abs(moment_x(st, 1) - m.x_mean) < 1e-7
        assert abs(moment_p(st, 1, hbar=HBAR) - m.p_mean) < 1e-7
        assert abs(moment_p(st, 2, hbar=HBAR) - m.p2_mean) < 1e-7
    assert wall_packet_uncertainty(sp, 0.0) / HBAR == pytest.approx(0.5832, abs=5e-4)


def test_propagator_with_units():
    bp = BouncerParams(PP)
    t_final = 2.0 * bp.collision_time
    pad = 8.0 * PP.beta_t(t_final)
    h = PP.beta / 220.0
    n = int(math.ceil((pad + abs(PP.x0)) / h)) | 1
    grid = GridSpec(PP.x0 - pad, n, 0.0)
    dt = PP.t0 / 4000.0
    start = sample(lambda x, tt: psi_bouncer(bp, x, tt), grid, 0.0)
    out = propagate(start, dt, int(round(t_final / dt)), hbar=HBAR, mass=MASS)
    exact = sample(lambda x, tt: psi_bouncer(bp, x, tt), grid, out.time)
    err = math.sqrt(float(np.sum(np.abs(out.values - exact.values) ** 2)) * grid.h)
    assert err < 1e-4
