"""Numerical oracle self-tests: quadrature order, stencils, propagation."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import wallbounce
from wallbounce import (
    BouncerParams,
    PacketParams,
    momentum_second_moment,
    oracle,
    psi_bouncer,
    psi_free,
    psi_wall_packet,
    wall_packet_moments,
)
from wallbounce.oracle import (
    MAX_GRID_POINTS,
    GridMismatchError,
    GridSpec,
    GridState,
    StencilConvergenceError,
    TailCaptureError,
    moment_p,
    moment_x,
    overlap,
    propagate,
    sample,
    window_grid,
)
from wallbounce.packets import _BLOCK, free_moments
from wallbounce.validation import NEAR_PARAMS


PP = PacketParams(x0=-5.0, p0=2.0, alpha=1.0)
DEMO = PacketParams(x0=-10.0, p0=5.0, alpha=1.0)


def _l2(a, b, h):
    return math.sqrt(float(np.sum(np.abs(a - b) ** 2)) * h)


# -------------------------------------------------------------------- grid


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(-1.0, 4)  # even
    with pytest.raises(ValueError):
        GridSpec(-1.0, 1)  # too few
    with pytest.raises(ValueError):
        GridSpec(1.0, 5, 0.0)  # x_min >= x_max
    for lo, hi in ((-math.inf, 0.0), (math.nan, 0.0), (-1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(lo, 5, hi)
    # finite bounds whose span overflows would give h = inf and nan points
    with pytest.raises(ValueError, match="finite"):
        GridSpec(-1e308, 3, 1e308)
    assert GridSpec(-1e308, 3).h == 5e307
    # the point budget, checked before anything is allocated
    GridSpec(-1.0, MAX_GRID_POINTS - 1)  # the largest odd count
    with pytest.raises(ValueError, match="budget"):
        GridSpec(-1.0, MAX_GRID_POINTS + 1)  # odd, so the budget check is the one that fires
    with pytest.raises(ValueError, match="budget"):
        GridSpec(-1.0, 2 * 10**9 + 1)  # 30 GiB per complex state
    g = GridSpec(-1.0, 5)
    assert g.h == 0.25
    assert g.points()[-1] == 0.0


def test_gridspec_refuses_a_count_that_is_not_an_integer():
    # a count that is not an integer is refused when the grid is built, not in points()
    for count in (7.5, 7.0, "7", None):
        with pytest.raises(TypeError, match="n_points must be an integer"):
            GridSpec(-1.0, count)
    g = GridSpec(-1.0, np.int64(7))  # a numpy integer is kept as an int
    assert type(g.n_points) is int and g == GridSpec(-1.0, 7)
    assert g.points().size == 7


def _parent_spacing(params, points_per_beta, mirrored):
    # the grid rules before window_grid, frozen as the reference for it, at
    # the spacing the 6th-order momentum oracle allows (k*h <= 0.0232)
    if points_per_beta is not None:
        return params.beta / points_per_beta
    dp = 1.0 / (params.alpha * math.sqrt(2.0))
    carrier = (2.0 if mirrored else 1.0) * abs(params.p0)
    k_max = (carrier + 8.0 * dp) / params.hbar + 4.0 / params.beta
    return min(params.beta / 100.0, 0.0232 / k_max)


def _parent_odd_at_least(n):
    m = max(int(math.ceil(n)), 3)
    return m if m % 2 == 1 else m + 1


def _parent_half_line_grid(params, t_max, *, points_per_beta=None):
    bt = params.beta_t(t_max)
    x_lo = min(params.x0, 0.0) - 12.0 * bt
    h = _parent_spacing(params, points_per_beta, mirrored=True)
    return GridSpec(x_lo, _parent_odd_at_least((0.0 - x_lo) / h + 1.0), 0.0)


def _parent_full_line_grid(params, t_min, t_max, *, points_per_beta=None):
    bt = params.beta_t(max(abs(t_min), abs(t_max)))
    centers = (params.center(t_min), params.center(t_max))
    x_lo = min(centers) - 12.0 * bt
    x_hi = max(centers) + 12.0 * bt
    h = _parent_spacing(params, points_per_beta, mirrored=False)
    return GridSpec(x_lo, _parent_odd_at_least((x_hi - x_lo) / h + 1.0), x_hi)


def _bits(grid):
    return grid.x_min.hex(), grid.n_points, grid.x_max.hex()


def test_window_grid_covers_each_centre_and_keeps_the_parent_grids():
    rng = np.random.default_rng(1212)
    unchanged_half_line = 0
    for _ in range(400):
        half_line = bool(rng.integers(2))
        params = PacketParams(
            x0=rng.uniform(-30.0, 0.0 if half_line else 30.0),
            p0=rng.uniform(-6.0, 6.0),
            alpha=10.0 ** rng.uniform(-0.3, 0.3),
            hbar=10.0 ** rng.uniform(-0.3, 0.3),
            mass=10.0 ** rng.uniform(-0.3, 0.3),
        )
        # windows before, across and after t = 0, some of a single time
        t_min, t_max = sorted(rng.uniform(-8.0, 8.0, 2))
        if rng.random() < 0.2:
            t_min = t_max
        rng.choice([10.0, 12.0, 13.0])  # a retired pad draw, kept so the draws after it stay as seeded
        ppb = None if rng.random() < 0.5 else 64.0
        grid = window_grid(params, t_min, t_max, half_line=half_line, points_per_beta=ppb)
        margin = 12.0 * params.beta_t(max(abs(t_min), abs(t_max)))
        ends = (params.center(t_min), params.center(t_max))
        if half_line:
            # a mirror state's physical part sits at -|X(t)|
            assert grid.x_max == 0.0
            assert all(grid.x_min <= c - margin for c in (params.x0, -abs(ends[0]), -abs(ends[1])))
            if all(abs(c) <= abs(params.x0) for c in ends):
                t_edge = max(abs(t_min), abs(t_max))
                reference = _parent_half_line_grid(params, t_edge, points_per_beta=ppb)
                assert _bits(grid) == _bits(reference)
                unchanged_half_line += 1
        else:
            assert all(grid.x_min <= c - margin and c + margin <= grid.x_max for c in ends)
            reference = _parent_full_line_grid(params, t_min, t_max, points_per_beta=ppb)
            assert _bits(grid) == _bits(reference)
    assert unchanged_half_line >= 20


def test_window_grid_refuses_a_spacing_that_is_not_positive_and_finite():
    # no spacing follows from these: -5 would give a 3-point grid, 0 and inf divide by zero
    for ppb in (-5.0, 0, 0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="points_per_beta must be finite and > 0"):
            window_grid(DEMO, 0.0, 1.0, half_line=True, points_per_beta=ppb)
    assert window_grid(DEMO, 0.0, 1.0, half_line=True, points_per_beta=np.float64(25.0)).n_points > 25


def test_sample_wall_point_exact_zero():
    bp = BouncerParams(DEMO)
    st = sample(lambda x, t: psi_bouncer(bp, x, t), GridSpec(-40.0, 801, 0.0), 1.0)
    assert st.values[-1] == 0.0 + 0.0j


def test_sample_free_norm_self_check():
    grid = window_grid(PP, 0.0, 0.0, half_line=False)
    st = sample(lambda x, t: psi_free(PP, x, t), grid, 0.0)
    assert abs(moment_x(st, 0) - 1.0) < 1e-9


def test_sample_rejects_non_finite():
    grid = GridSpec(-1.0, 5)
    with pytest.raises(ValueError):
        sample(lambda x, t: np.where(x < -0.5, np.inf, 1.0) + 0j, grid, 0.0)
    # a state built directly is checked by the same rule
    for bad in (complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.0, -np.inf)):
        values = np.zeros(5, dtype=complex)
        values[2] = bad
        with pytest.raises(ValueError, match="not all finite"):
            GridState(grid, values, 0.0)
    with pytest.raises(ValueError, match="does not match grid"):
        GridState(grid, np.zeros(4, dtype=complex), 0.0)


def test_grid_state_keeps_its_peak():
    base = _kernel_state(2 * _BLOCK + 1, seed=5)
    for c in (0.0, 1e-170, 1.0, 1e160):  # squares that overflow are accepted
        with np.errstate(over="ignore"):
            st = GridState(base.grid, c * base.values, 0.0)
            assert st.peak2 == np.max(np.square(st.values.real) + np.square(st.values.imag))
    assert st.peak2 == math.inf and "peak2" not in repr(st)
    with pytest.raises(TypeError):
        GridState(st.grid, st.values, 0.0, peak2=0.0)  # measured, never given
    # a nan or an inf beside squares that overflow is still refused
    for bad in (np.nan, np.inf):
        values = st.values.copy()
        values[-1] = bad
        with pytest.raises(ValueError, match="not all finite"), np.errstate(over="ignore"):
            GridState(st.grid, values, 0.0)


def test_grid_state_is_frozen():
    st = GridState(GridSpec(-1.0, 5), np.zeros(5), 0.0)
    assert st.values.dtype == np.complex128
    with pytest.raises(AttributeError):
        st.values = np.full(5, np.nan, dtype=complex)


# --------------------------------------------------------------- quadrature


def test_simpson_toy_values_by_hand():
    # psi = (0, 1, 0) on [0, 1], 3 points, zero at both ends as the tail
    # check asks: Simpson weights h/3 * (1, 4, 1) with h = 1/2 give
    # h/3*(0 + 4 + 0) = 2/3 for the norm and h/3*(0 + 4*(1/2) + 0) = 1/3
    # for the first moment
    psi = np.array([0.0, 1.0, 0.0], dtype=complex)
    st = GridState(GridSpec(0.0, 3, 1.0), psi, 0.0)
    assert moment_x(st, 0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert moment_x(st, 1) == pytest.approx(1.0 / 3.0, rel=1e-15)
    # on [-1, 0], which ends at the wall, the first moment is -1/3 less the
    # wall term h/3 * (f(-2h) - 32 f(-h))/240 = 1/6 * (0 + 32/2)/240 = 1/90
    st = GridState(GridSpec(-1.0, 3), psi, 0.0)
    assert moment_x(st, 0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert moment_x(st, 1) == pytest.approx(-1.0 / 3.0 - 1.0 / 90.0, rel=1e-15)


def test_simpson_exact_for_cubics():
    # Simpson integrates cubics exactly: density x(1-x), zero at both
    # ends, against order 1 gives Int x^2(1-x) dx = 1/12 on [0, 1] (a grid
    # that does not end at the wall, where an odd order takes the wall term)
    grid = GridSpec(0.0, 9, 1.0)
    xs = grid.points()
    st = GridState(grid, np.sqrt(xs * (1.0 - xs)) + 0j, 0.0)
    assert moment_x(st, 1) == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_simpson_fourth_order_richardson():
    # density f(x) = -x(1+x)e^{3x} on [-1, 0] vanishes at the ends but has
    # nonzero endpoint third derivative, so the composite-Simpson error is
    # genuinely O(h^4); exact integral = 1/27 + (5/27) e^{-3} by parts
    exact = 1.0 / 27.0 + (5.0 / 27.0) * math.exp(-3.0)

    def err(n):
        grid = GridSpec(-1.0, n)
        xs = grid.points()
        density = -xs * (1.0 + xs) * np.exp(3.0 * xs)
        st = GridState(grid, np.sqrt(density) + 0j, 0.0)
        return abs(moment_x(st, 0) - exact)

    for coarse, fine in ((25, 49), (49, 97), (97, 193)):
        assert 13.0 < err(coarse) / err(fine) < 19.0


def test_trapezoid_cross_check_rule():
    grid = window_grid(PP, 0.0, 0.0, half_line=False)
    st = sample(lambda x, t: psi_free(PP, x, t), grid, 0.0)
    # the oracle's Simpson against the weight-array trapezoid reference below
    simpson = moment_x(st, 2)
    trapezoid = ref_moment_x(st, 2, "trapezoid")
    assert simpson == pytest.approx(trapezoid, rel=1e-8)


def test_moment_x_rejects_bad_order():
    grid = GridSpec(-1.0, 5)
    st = GridState(grid, np.zeros(5, dtype=complex), 0.0)
    with pytest.raises(ValueError):
        moment_x(st, -1)


def test_moments_refuse_state_nonzero_at_wall_end():
    # a free packet on a half-line grid is not zero at x = 0, the x_max
    # end; the quadratures must refuse it, not integrate half a packet
    grid = GridSpec(-20.0, 2001, 0.0)
    st = sample(lambda x, t: psi_free(PacketParams(x0=-2.0, p0=1.0, alpha=1.0), x, t), grid, 0.0)
    assert abs(st.values[-1]) > 0.05
    with pytest.raises(TailCaptureError, match=r"psi\(x_max\).*x_max >= 10"):
        moment_x(st, 0)
    with pytest.raises(TailCaptureError, match=r"psi\(x_max\)"):
        moment_p(st, 1, hbar=1.0)


def test_tail_capture_error_suggests_wider_grid():
    bp = BouncerParams(DEMO)
    grid = GridSpec(-13.0, 2001, 0.0)  # too narrow for x0 = -10
    st = sample(lambda x, t: psi_bouncer(bp, x, t), grid, 0.0)
    with pytest.raises(TailCaptureError, match="widen the grid"):
        moment_x(st, 0)


# ----------------------------------------------------------------- momentum


def test_moment_p_plane_wave_gaussian():
    grid = window_grid(PP, 0.0, 0.0, half_line=False)
    st = sample(lambda x, t: psi_free(PP, x, t), grid, 0.0)
    assert abs(moment_p(st, 1, hbar=1.0) - PP.p0) < 1e-8


def test_moment_p_rejects_bad_order():
    grid = GridSpec(-1.0, 7)
    st = GridState(grid, np.zeros(7, dtype=complex), 0.0)
    with pytest.raises(ValueError):
        moment_p(st, 3, hbar=1.0)


def test_moment_p_unresolved_grid_raises():
    bp = BouncerParams(DEMO)
    grid = GridSpec(-60.0, 61, 0.0)  # ~1.3 points per carrier wavelength: aliased
    st = sample(lambda x, t: psi_bouncer(bp, x, t), grid, 2.0)
    for order in (1, 2):
        with pytest.raises(StencilConvergenceError):
            moment_p(st, order, hbar=1.0)


def test_moment_p_custom_hbar():
    p = PacketParams(x0=-5.0, p0=2.0, alpha=1.0, hbar=2.0)
    grid = window_grid(p, 0.0, 0.0, half_line=False)
    st = sample(lambda x, t: psi_free(p, x, t), grid, 0.0)
    assert abs(moment_p(st, 1, hbar=2.0) - p.p0) < 1e-8


def test_units_cannot_be_left_out():
    # with a default hbar = 1 this state (p0 = 4, hbar = 2) read <p> = 2
    p = PacketParams(x0=-5.0, p0=4.0, alpha=1.0, hbar=2.0)
    st = sample(lambda x, t: psi_free(p, x, t), window_grid(p, 0.0, 0.0, half_line=False), 0.0)
    with pytest.raises(TypeError):
        moment_p(st, 1)
    with pytest.raises(TypeError):
        propagate(st, 1e-3, 1)
    with pytest.raises(TypeError):
        propagate(st, 1e-3, 1, hbar=2.0)


def test_stencil_tolerance_cannot_be_passed():
    # every caller is judged at the module's STENCIL_RTOL
    p = PacketParams(x0=-5.0, p0=2.0, alpha=1.0)
    st = sample(lambda x, t: psi_free(p, x, t), window_grid(p, 0.0, 0.0, half_line=False), 0.0)
    for order in (1, 2):
        with pytest.raises(TypeError):
            moment_p(st, order, hbar=1.0, rtol=1e3)


def test_momentum_oracle_is_at_round_off_on_automatic_grids():
    # the 6th-order stencil, odd reflection at both ends and the wall term leave
    # round-off on the automatic grids (the 4th-order oracle left about 5e-11 on
    # the free <p>, 6.5e-12 on the bouncer's <p^2> and 2.8e-11 on C08's grid).
    # The free draws keep p0/hbar below the envelope's share of the spacing
    # rule's k_max: where the carrier sets it, (k h)^6/140 nears 1e-12.
    rng = np.random.default_rng(606)
    for _ in range(12):
        alpha, hbar, mass = (10.0 ** rng.uniform(-0.3, 0.3, 3)).tolist()
        x0, p0, t = rng.uniform(-15.0, -3.0), rng.uniform(0.5, 3.0), rng.uniform(-4.0, 4.0)
        p = PacketParams(x0, p0, alpha, hbar, mass)
        free = sample(lambda x, tt: psi_free(p, x, tt), window_grid(p, t, t, half_line=False), t)
        assert abs(moment_p(free, 1, hbar=hbar) - p0) <= 1e-14 * p0, p
        p2 = p0 * p0 + 0.5 / alpha**2
        assert abs(moment_p(free, 2, hbar=hbar) - p2) <= 1e-14 * p2, p
        bouncer = sample(lambda x, tt: psi_bouncer(p, x, tt), window_grid(p, 0.0, abs(t), half_line=True), abs(t))
        p2 = momentum_second_moment(p)
        assert abs(moment_p(bouncer, 2, hbar=hbar) - p2) <= 1e-14 * p2, p
    sp = PacketParams(0.0, 0.0, 1.0)
    grid = GridSpec(-12.0 * sp.beta_t(3.0 * sp.t0), 16001, 0.0)  # C08's grid
    for t in (0.0, sp.t0, 3.0 * sp.t0):
        st = sample(lambda x, tt: psi_wall_packet(sp, x, tt), grid, t)
        m = wall_packet_moments(sp, t)
        got = (moment_x(st, 1), moment_x(st, 2), moment_p(st, 1, hbar=1.0), moment_p(st, 2, hbar=1.0))
        for value, want in zip(got, (m.x_mean, m.x2_mean, m.p_mean, m.p2_mean)):
            assert abs(value - want) <= 1e-13, (t, got)


def test_spectral_p2_matches_the_closed_forms_on_coarse_grids():
    # <p^2> as a sine-basis Parseval sum converges exponentially: on 12 to 50
    # points per beta it is at round-off (measured at most 9.1e-15 relative)
    def check(wavefn, params, grid, times, p2_exact):
        for t in times:
            st = sample(wavefn, grid, float(t))
            want = p2_exact(float(t))
            assert abs(moment_p(st, 2, hbar=params.hbar) - want) <= 1e-13 * want, (params, grid, t)

    for params in (DEMO, NEAR_PARAMS, PacketParams(-6.0, 2.5, 1.2, 0.7, 1.4)):
        t_max = 3.0 * params.collision_time
        for ppb in (12, 25, 50):
            grid = window_grid(params, 0.0, t_max, half_line=True, points_per_beta=ppb)
            p2 = momentum_second_moment(params)
            check(lambda x, t: psi_bouncer(params, x, t), params, grid, np.linspace(0.0, t_max, 9), lambda t: p2)
    # hbar**2 = 1e320 overflows, but <p^2> = 5e299 does not
    for p, times in ((PP, (-2.0, 0.0, 3.0)), (PacketParams(0.0, 0.0, 1e-150, 1e160), (0.0,))):
        for t in times:
            grid = window_grid(p, t, t, half_line=False, points_per_beta=25)
            check(lambda x, tt: psi_free(p, x, tt), p, grid, [t], lambda tt: free_moments(p, tt).p2_mean)
    sp = PacketParams(0.0, 0.0, 1.0)
    grid = window_grid(sp, 0.0, 3.0 * sp.t0, half_line=True, points_per_beta=25)
    times = (0.0, sp.t0, 3.0 * sp.t0)
    check(lambda x, t: psi_wall_packet(sp, x, t), sp, grid, times, lambda t: wall_packet_moments(sp, t).p2_mean)


def test_spectral_p2_refusal_edges():
    # a zero state has no modes to judge and returns 0
    for n in (7, 9, 101):
        assert moment_p(GridState(GridSpec(-1.0, n), np.zeros(n, dtype=complex), 0.0), 2, hbar=1.0) == 0.0
    # below 8 interior points n // 8 is 0, and the top mode alone is judged
    for n in (7, 9):
        st = _kernel_state(n, seed=n)
        with pytest.raises(StencilConvergenceError, match="the top 1 of"):
            moment_p(st, 2, hbar=1.0)
    # the share is a ratio, so the decision does not depend on the state's scale
    for n, refused in ((11, True), (101, False)):
        st = _kernel_state(n, seed=101)
        for c in (1e-130, 1.0, 1e130):
            scaled = GridState(st.grid, c * st.values, 0.0)
            if refused:
                with pytest.raises(StencilConvergenceError):
                    moment_p(scaled, 2, hbar=1.0)
            else:
                want = c * c * moment_p(st, 2, hbar=1.0)
                assert abs(moment_p(scaled, 2, hbar=1.0) - want) <= 1e-13 * want


def test_half_line_first_moment_converges_like_h6():
    # x|psi|^2 is odd about the wall, so Simpson's rule alone keeps an h^4 term
    # there; with the wall term subtracted each halving of h cuts the error of
    # the default bouncer's <x> at t_c about 64 times
    bp = BouncerParams(DEMO)
    tc = bp.collision_time
    sizes = [2**k + 1 for k in (10, 11, 12, 13, 15)]  # the last one as the reference
    means = [moment_x(sample(lambda x, t: psi_bouncer(bp, x, t), GridSpec(-60.0, n), tc), 1) for n in sizes]
    errors = [abs(m - means[-1]) for m in means[:-1]]
    assert errors[-1] > 1e-13  # still well above round-off
    for coarse, half in zip(errors, errors[1:]):
        assert coarse / half > 50.0, errors


# ------------------------------------------------------------------ overlap


def test_overlap_self_is_norm():
    grid = window_grid(PP, 0.0, 0.0, half_line=False)
    st = sample(lambda x, t: psi_free(PP, x, t), grid, 0.0)
    assert overlap(st, st) == pytest.approx(moment_x(st, 0), rel=1e-14)


def test_overlap_conjugate_symmetry():
    grid = window_grid(PP, 0.0, 1.0, half_line=False)
    a = sample(lambda x, t: psi_free(PP, x, t), grid, 0.0)
    b = sample(lambda x, t: psi_free(PP, x, t), grid, 1.0)
    assert abs(overlap(a, b) - overlap(b, a).conjugate()) < 1e-14


def test_overlap_refuses_state_cut_at_x_min():
    # the packet sits at x0 = -5; the grid [-3, 3] cuts it at x_min
    grid = GridSpec(-3.0, 101, 3.0)
    cut = sample(lambda x, t: psi_free(PP, x, t), grid, 0.0)
    whole = GridState(grid, np.exp(-4.0 * grid.points() ** 2).astype(complex), 0.0)
    for a, b in ((cut, whole), (whole, cut), (cut, cut)):
        with pytest.raises(TailCaptureError, match="x_min"):
            overlap(a, b)


def test_overlap_grid_mismatch():
    a = sample(lambda x, t: psi_free(PP, x, t), window_grid(PP, 0.0, 0.0, half_line=False), 0.0)
    b = sample(lambda x, t: psi_free(PP, x, t), GridSpec(-30.0, 3001, 10.0), 0.0)
    with pytest.raises(GridMismatchError):
        overlap(a, b)


# --------------------------------------------------------------- propagation


def test_propagate_zero_state_stays_zero():
    grid = GridSpec(-10.0, 201, 0.0)
    st = GridState(grid, np.zeros(201, dtype=complex), 0.0)
    out = propagate(st, 1e-3, 50, hbar=1.0, mass=1.0)
    assert np.all(out.values == 0)
    assert out.time == pytest.approx(0.05)


def test_propagate_validates_arguments():
    grid = GridSpec(-10.0, 201, 0.0)
    st = GridState(grid, np.zeros(201, dtype=complex), 0.0)
    with pytest.raises(ValueError):
        propagate(st, 0.0, 10, hbar=1.0, mass=1.0)
    with pytest.raises(ValueError):
        propagate(st, 1e-3, -1, hbar=1.0, mass=1.0)
    # no steps: an exact copy at the same time, taken before the tail check
    ramp = GridState(grid, np.arange(201) + 0.5j, 0.7)
    out = propagate(ramp, 1e-3, 0, hbar=1.0, mass=1.0)
    assert out.time == 0.7 and out.values is not ramp.values and np.array_equal(out.values, ramp.values)
    # a nan state cannot be built, so it cannot reach propagate
    with pytest.raises(ValueError, match="not all finite"):
        GridState(grid, np.full(201, np.nan, dtype=complex), 0.0)


@pytest.mark.parametrize("n_points", [3, 5, 41])
@pytest.mark.parametrize("dt", [3e-3, -3e-3])
@pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.7, 1.3)])
def test_propagate_matches_dense_cayley_power(n_points, dt, hbar, mass):
    # independent reference: the dense Cayley/Numerov step matrix raised
    # to the number of steps, (M - icK)^-1 (M + icK) with M = I + K/12
    grid = GridSpec(-1.0, n_points, 0.0)
    rng = np.random.default_rng(n_points)
    values = np.zeros(n_points, dtype=complex)
    values[1:-1] = rng.normal(size=n_points - 2) + 1j * rng.normal(size=n_points - 2)
    st = GridState(grid, values, 0.5)
    steps = 37
    n = n_points - 2
    K = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    M = np.eye(n) + K / 12.0
    c = hbar * dt / (4.0 * mass * grid.h**2)
    step = np.linalg.solve(M - 1j * c * K, M + 1j * c * K)
    want = np.linalg.matrix_power(step, steps) @ values[1:-1]
    out = propagate(st, dt, steps, hbar=hbar, mass=mass)
    assert np.max(np.abs(out.values[1:-1] - want)) < 1e-12
    assert out.values[0] == 0.0 and out.values[-1] == 0.0
    assert out.time == pytest.approx(0.5 + dt * steps, rel=1e-15)
    split = propagate(propagate(st, dt, 15, hbar=hbar, mass=mass), dt, 22, hbar=hbar, mass=mass)
    assert np.max(np.abs(split.values - out.values)) < 1e-12


def test_propagate_refuses_state_nonzero_at_wall_end():
    # a free packet on a half-line grid is not zero at x = 0, where the
    # propagator pins the state; it must refuse, not clip it
    grid = GridSpec(-20.0, 2001, 0.0)
    st = sample(lambda x, t: psi_free(PacketParams(x0=-2.0, p0=1.0, alpha=1.0), x, t), grid, 0.0)
    assert abs(st.values[-1]) > 0.05
    with pytest.raises(TailCaptureError, match=r"psi\(x_max\)"):
        propagate(st, 1e-3, 10, hbar=1.0, mass=1.0)


def test_propagate_norm_conserved_ten_thousand_steps():
    bp = BouncerParams(DEMO)
    grid = GridSpec(-30.0, 3001, 0.0)
    st = sample(lambda x, t: psi_bouncer(bp, x, t), grid, 0.0)
    out = propagate(st, 1e-3, 10_000, hbar=1.0, mass=1.0)
    assert abs(moment_x(out, 0) - 1.0) < 1e-10


def test_propagate_time_reversible():
    bp = BouncerParams(DEMO)
    grid = GridSpec(-30.0, 3001, 0.0)
    st = sample(lambda x, t: psi_bouncer(bp, x, t), grid, 0.0)
    roundtrip = propagate(
        propagate(st, 1e-3, 500, hbar=1.0, mass=1.0), -1e-3, 500, hbar=1.0, mass=1.0
    )
    assert _l2(roundtrip.values, st.values, grid.h) < 1e-10


def test_propagate_discrete_ehrenfest_one_interval():
    # m * d<x>/dt over a short propagated interval vs the midpoint <p>
    bp = BouncerParams(PacketParams(x0=-6.0, p0=2.0, alpha=1.0))
    grid = window_grid(bp, 0.0, 1.0, half_line=True)
    st = sample(lambda x, t: psi_bouncer(bp, x, t), grid, 0.4)
    dt = 1e-3
    steps = 40
    out = propagate(st, dt, steps, hbar=1.0, mass=1.0)
    x0_, x1_ = moment_x(st, 1), moment_x(out, 1)
    mid = propagate(st, dt, steps // 2, hbar=1.0, mass=1.0)
    fd = bp.mass * (x1_ - x0_) / (dt * steps)
    assert abs(fd - moment_p(mid, 1, hbar=1.0)) < 1e-5


def test_propagate_matches_closed_form_through_bounce():
    # short, coarse version of the full convergence study
    bp = BouncerParams(PacketParams(x0=-4.0, p0=2.0, alpha=1.0))
    T = 2.0 * bp.collision_time
    pad = 8.0 * bp.beta_t(T)
    h = bp.beta / 100.0
    n = int(math.ceil((pad + abs(bp.x0)) / h)) | 1
    grid = GridSpec(bp.x0 - pad, n, 0.0)
    st = sample(lambda x, t: psi_bouncer(bp, x, t), grid, 0.0)
    dt = bp.t0 / 1000.0
    out = propagate(st, dt, int(round(T / dt)), hbar=1.0, mass=1.0)
    exact = sample(lambda x, t: psi_bouncer(bp, x, t), grid, out.time)
    assert _l2(out.values, exact.values, grid.h) < 5e-4


# ------------------------------------------------ reference quadrature kernels
#
# The weighted-array kernels the slice-sum quadratures replaced, kept as
# the reference they must reproduce to round-off: the same values, and
# the same exceptions with the same messages on the same inputs.


def ref_weights(grid, rule):
    h = grid.h
    if rule == "simpson":
        w = np.ones(grid.n_points)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (h / 3.0)
    if rule == "trapezoid":
        w = np.full(grid.n_points, h)
        w[0] = w[-1] = 0.5 * h
        return w
    raise ValueError(f"unknown quadrature rule {rule!r}")


def ref_check_tails(state):
    amax = float(np.max(np.abs(state.values)))
    if amax == 0.0:
        return
    grid = state.grid
    half = 0.5 * (grid.x_max - grid.x_min)
    for end, label, wider in ((0, "x_min", grid.x_min - half), (-1, "x_max", grid.x_max + half)):
        if abs(state.values[end]) > 1e-12 * amax:
            raise TailCaptureError(
                f"|psi({label})| = {abs(state.values[end]):.3e} exceeds "
                f"{1e-12:g} * max|psi| = {1e-12 * amax:.3e}; widen the grid "
                f"(e.g. {label} {'<=' if end == 0 else '>='} {wider:.6g})"
            )


def ref_moment_x(state, order, rule="simpson"):
    if order < 0 or int(order) != order:
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")
    ref_check_tails(state)
    x = state.grid.points()
    density = np.abs(state.values) ** 2
    w = ref_weights(state.grid, rule)
    if order == 0:
        return float(np.sum(w * density))
    return float(np.sum(w * x ** int(order) * density))


def ref_differences(v):
    """D_k = v[j+k] - v[j-k] for k = 1, 2, 3 at every j, v odd-reflected through each end."""
    ext = np.concatenate([-v[3:0:-1], v, -v[-2:-5:-1]])
    n = v.size
    return [ext[3 + k : 3 + k + n] - ext[3 - k : 3 - k + n] for k in (1, 2, 3)]


def ref_sine_coefficients(u):
    """Orthonormal DST-I of a real vector, from the rfft of its odd extension [0, u, 0, -u reversed]."""
    ext = np.concatenate([[0.0], u, [0.0], -u[::-1]])
    return -np.fft.rfft(ext)[1 : u.size + 1].imag * math.sqrt(0.5 / (u.size + 1))


def ref_moment_p(state, order, *, hbar):
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    if state.grid.n_points < 7:
        raise ValueError("momentum moments need at least 7 grid points")
    ref_check_tails(state)
    v = state.values
    if not np.any(v):
        return 0.0
    h = state.grid.h
    rtol = oracle.STENCIL_RTOL
    if order == 2:
        # Parseval: Int |psi'|^2 = h * sum kappa_k^2 |c_k|^2 over the interior's sine coefficients
        n = v.size - 2
        kappa = np.arange(1, n + 1) * (math.pi / (state.grid.x_max - state.grid.x_min))
        energy = kappa**2 * (ref_sine_coefficients(v[1:-1].real) ** 2 + ref_sine_coefficients(v[1:-1].imag) ** 2)
        top = max(n // 8, 1)
        total, tail = float(np.sum(energy)), float(np.sum(energy[n - top :]))
        if tail > rtol * total:
            raise StencilConvergenceError(
                f"the top {top} of {n} sine modes carry {tail / total:.3e} of <p^2>, above "
                f"{rtol:g}; refine the grid (h = {h:.3e})"
            )
        return hbar**2 * h * total
    w = ref_weights(state.grid, "simpson")
    d1, d2, d3 = ref_differences(v)
    d6 = (45.0 * d1 - 9.0 * d2 + d3) / (60.0 * h)
    d4 = (8.0 * d1 - d2) / (12.0 * h)
    f6, f4 = hbar * np.imag(np.conj(v) * d6), hbar * np.imag(np.conj(v) * d4)
    m6, m4 = float(np.sum(w * f6)), float(np.sum(w * f4))
    if state.grid.x_max == 0.0:
        # the odd integrand's Euler-Maclaurin term h^4 f'''(0)/180, f'''(0) = 6 c3
        m6, m4 = (m - h**4 * (f[-3] - 32.0 * f[-2]) / (24.0 * h**3) / 30.0 for m, f in ((m6, f6), (m4, f4)))
    scale = max(abs(m6), hbar * math.sqrt(float(np.sum(w * np.abs(d1 / (2.0 * h)) ** 2))))
    e4 = abs(m6 - m4)
    err_est = 5.0 * e4 * math.sqrt(e4 / scale)
    if err_est > rtol * scale:
        raise StencilConvergenceError(
            f"estimated stencil error {err_est:.3e} exceeds rtol*scale = "
            f"{rtol * scale:.3e}; refine the grid (h = {h:.3e})"
        )
    return m6


def ref_overlap(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    w = ref_weights(a.grid, "simpson")
    return complex(np.sum(w * np.conj(a.values) * b.values))


#: block edges: moment_p blocks its n - 6 interior points, and moment_x and
#: overlap their n - 2, so a last block holds 1 or 3 points, or is 1 or 3
#: short of full
KERNEL_SIZES = [
    3, 5, 7, 9, 101, 40001, 2 * _BLOCK + 1, _BLOCK + 3, _BLOCK + 5, 2 * _BLOCK + 3, 2 * _BLOCK + 5,
    _BLOCK + 7, 2 * _BLOCK + 9,
]

#: envelopes on u = (x - x_min)/(x_max - x_min): zero at both ends, or
#: open at one end so that the tail check must refuse the state
ENVELOPES = {
    "closed": lambda u: np.sin(np.pi * u) ** 8,
    "open-x_min": lambda u: np.cos(0.5 * np.pi * u) ** 8,
    "open-x_max": lambda u: np.sin(0.5 * np.pi * u) ** 8,
}


def _kernel_state(n, seed, envelope="closed"):
    """A seeded smooth state on [-1.5, 0.5]: an envelope times three random plane waves."""
    grid = GridSpec(-1.5, n, 0.5)
    x = grid.points()
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    waves = sum(a * np.exp(1j * k * x) for a, k in zip(amps, rng.uniform(-12.0, 12.0, 3)))
    return GridState(grid, ENVELOPES[envelope](0.5 * (x + 1.5)) * waves, 0.0)


def _outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, want, scale):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert abs(got - want) <= 1e-13 * scale


@pytest.mark.parametrize("envelope", list(ENVELOPES))
@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_moment_x_matches_reference_kernel(n, envelope):
    st = _kernel_state(n, seed=n, envelope=envelope)
    norm = _outcome(ref_moment_x, st, 0)
    for order in range(4):
        want = _outcome(ref_moment_x, st, order)
        scale = 1.0 if isinstance(norm, tuple) else norm * 1.5**order
        _assert_same_outcome(_outcome(moment_x, st, order), want, scale)


@pytest.mark.parametrize("envelope", list(ENVELOPES))
@pytest.mark.parametrize("n", KERNEL_SIZES)
@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_moment_p_matches_reference_kernel(n, envelope, hbar, monkeypatch):
    st = _kernel_state(n, seed=10 * n + 1, envelope=envelope)
    # at STENCIL_RTOL the coarse grids raise StencilConvergenceError;
    # a loose tolerance lets them return, so their values are compared too
    strict = oracle.STENCIL_RTOL
    monkeypatch.setattr(oracle, "STENCIL_RTOL", 1e3)
    p2 = _outcome(ref_moment_p, st, 2, hbar=hbar)
    for rtol in (strict, 1e3):
        monkeypatch.setattr(oracle, "STENCIL_RTOL", rtol)
        for order in (1, 2):
            want = _outcome(ref_moment_p, st, order, hbar=hbar)
            scale = 1.0 if isinstance(p2, tuple) else p2 ** (order / 2)
            _assert_same_outcome(_outcome(moment_p, st, order, hbar=hbar), want, scale)


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_zero_state_matches_reference_kernel(n):
    st = GridState(GridSpec(-1.0, n), np.zeros(n, dtype=complex), 0.0)
    for order in range(4):
        assert moment_x(st, order) == ref_moment_x(st, order) == 0.0
    for order in (1, 2):
        assert _outcome(moment_p, st, order, hbar=1.0) == _outcome(ref_moment_p, st, order, hbar=1.0)
    assert overlap(st, st) == ref_overlap(st, st) == 0.0


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_overlap_matches_reference_kernel(n):
    a = _kernel_state(n, seed=n)
    b = _kernel_state(n, seed=n + 7)
    scale = math.sqrt(ref_moment_x(a, 0) * ref_moment_x(b, 0))
    assert abs(overlap(a, b) - ref_overlap(a, b)) <= 1e-13 * scale
    assert abs(overlap(b, a) - ref_overlap(b, a)) <= 1e-13 * scale


#: state scales from squares that underflow to squares that overflow
TAIL_SCALES = [1e-170, 1e-160, 1e-120, 1e-101, 1e-99, 1.0, 1e150]


def _tail_outcome(fn, *args, **kwargs):
    """None, or the type and message of the TailCaptureError a call raised."""
    try:
        fn(*args, **kwargs)
    except TailCaptureError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("envelope", list(ENVELOPES))
@pytest.mark.parametrize("n", [9, 101, 40001])
def test_tail_checks_match_the_reference_at_every_scale(n, envelope, monkeypatch):
    # small scales take the moduli branch, the others compare squares; a loose
    # stencil tolerance lets moment_p return on the grids its stencil refuses
    monkeypatch.setattr(oracle, "STENCIL_RTOL", 1e3)
    base = _kernel_state(n, seed=n, envelope=envelope)
    for c in TAIL_SCALES:
        st = GridState(base.grid, c * base.values, 0.0)
        want = _tail_outcome(ref_check_tails, st)
        assert (want is None) == (envelope == "closed")
        with np.errstate(over="ignore", invalid="ignore"):
            assert _tail_outcome(moment_x, st, 0) == want, c
            assert _tail_outcome(moment_p, st, 1, hbar=1.0) == want, c
            assert _tail_outcome(overlap, st, st) == want, c
            assert _tail_outcome(propagate, st, 1e-3, 1, hbar=1.0, mass=1.0) == want, c


def test_tail_checks_make_no_pass(monkeypatch):
    # each GridState measures its peak once; the tail checks read it
    a, b = _kernel_state(40001, seed=1), _kernel_state(40001, seed=2)
    calls = []
    blocks = oracle._blocks
    monkeypatch.setattr(oracle, "_blocks", lambda *args: calls.append(args[0]) or blocks(*args))
    monkeypatch.setattr(oracle, "STENCIL_RTOL", 1e3)  # so the order-1 mean takes no scale pass
    for name, call, passes in [
        ("overlap", lambda: overlap(a, b), 1),  # conj(a) * b
        ("moment_x", lambda: moment_x(a, 1), 1),  # re^2 + im^2 times x
        ("moment_p 1", lambda: moment_p(a, 1, hbar=1.0), 1),  # both stencils' sums
        ("moment_p 2", lambda: moment_p(a, 2, hbar=1.0), 0),  # a sine transform, no block pass
        ("propagate", lambda: propagate(a, 1e-3, 10, hbar=1.0, mass=1.0), 1),  # its result
    ]:
        calls.clear()
        call()
        assert len(calls) == passes, name


def test_moment_p_scales_with_a_large_state():
    # |m6 - m4|**1.5 would overflow here; the estimate is formed without it
    st = _kernel_state(101, seed=101)
    big = GridState(st.grid, 1e130 * st.values, 0.0)
    coarse = _kernel_state(11, seed=101)  # too coarse for the stencil and for the sine series
    for order in (1, 2):
        want = 1e260 * moment_p(st, order, hbar=1.0)
        assert abs(moment_p(big, order, hbar=1.0) - want) <= 1e-12 * abs(want)
        for state in (coarse, GridState(coarse.grid, 1e130 * coarse.values, 0.0)):  # the same decision at either scale
            with pytest.raises(StencilConvergenceError):
                moment_p(state, order, hbar=1.0)


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_moments_allocate_no_extra_squared_modulus():
    # every quadrature forms its integrand in block-sized rows: re^2 + im^2
    # times x for moment_x, whose only grid-sized array is the x grid (8 bytes
    # a point) at order >= 1; moment_p order 1 and overlap hold their
    # differences and products there too.  moment_p order 2 is a sine
    # transform: _dst1 holds the 2(n + 1)-point complex odd extension (32 bytes
    # a point), the FFT's output (32) and the scaled coefficients (16) at once
    grid = GridSpec(-30.0, 600_001, 30.0)
    state = sample(lambda x, t: psi_free(PP, x, t), grid, 0.0)
    n = grid.n_points
    assert _traced_peak(moment_x, state, 0) <= 0.25 * 8 * n
    assert _traced_peak(moment_x, state, 1) <= 1.25 * 8 * n
    assert _traced_peak(moment_p, state, 1, hbar=1.0) <= 0.25 * 8 * n
    assert _traced_peak(moment_p, state, 2, hbar=1.0) <= (80 + 0.25 * 8) * n
    assert _traced_peak(overlap, state, state) <= 0.25 * 8 * n


def test_cli_bytes_do_not_depend_on_blas_threads():
    # every quadrature sum is a pairwise numpy sum; a BLAS reduction
    # (dot, vdot) would round differently with the number of threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(wallbounce.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "wallbounce.cli", "moments", "--kind", "bouncer", "--nt", "3"],
            env=env, capture_output=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\r\n") == 9  # 5 metadata lines, the header and 3 rows
