"""Mirror solution on the half-line: closed forms against the oracle."""

import math

import numpy as np
import pytest

from wallbounce import (
    ApproximationWindowWarning,
    BouncerParams,
    DegenerateMirrorError,
    PacketParams,
    autocorrelation_bouncer,
    autocorrelation_free,
    collision_force_scale,
    effective_force,
    energy_shift,
    free_moments,
    in_expansion_window,
    mirror_normalization,
    momentum_second_moment,
    node_packet_moments,
    overlap_correction,
    p_mean_at_collision,
    phase_space_distance,
    position_second_moment,
    psi_bouncer,
    x_mean_near_collision,
)
from wallbounce.oracle import (
    GridSpec,
    GridState,
    moment_p,
    moment_x,
    overlap,
    sample,
    window_grid,
)
from wallbounce.packets import psi_free


DEMO = PacketParams(x0=-10.0, p0=5.0, alpha=1.0)
# z0 = 90, t_c = 3 t0: deep in the regime where the collision expansions hold
NEAR = PacketParams(x0=-9.0, p0=3.0, alpha=1.0)


@pytest.fixture(scope="module")
def demo_bp():
    return BouncerParams(DEMO)


@pytest.fixture(scope="module")
def near_bp():
    return BouncerParams(NEAR)


@pytest.fixture(scope="module")
def near_grid():
    return window_grid(NEAR, 0.0, 2.0 * BouncerParams(NEAR).collision_time, half_line=True)


def _bouncer_state(bp, grid, t):
    return sample(lambda x, tt: psi_bouncer(bp, x, tt), grid, t)


# ---------------------------------------------------------------- parameters


def test_constructor_rejects_positive_x0():
    with pytest.raises(ValueError):
        BouncerParams(PacketParams(x0=0.5, p0=1.0, alpha=1.0))


@pytest.mark.parametrize("x0, p0", [(-10.0, 5.0), (0.0, 1.0), (-1.0, -1.0), (0.0, 0.0)])
def test_constructor_returns_its_packet_params(x0, p0):
    # a check, not a second parameter type: the bouncer takes PacketParams
    p = PacketParams(x0=x0, p0=p0, alpha=1.0)
    assert type(BouncerParams(p)) is PacketParams
    assert BouncerParams(p) is p


def test_phase_space_distance_values():
    p = PacketParams(x0=-3.0, p0=4.0, alpha=1.0)
    assert phase_space_distance(p) == pytest.approx(25.0, abs=1e-14)
    assert phase_space_distance(PacketParams(x0=0.0, p0=0.0, alpha=1.0)) == 0.0
    # a square that overflows is an infinite distance, not an OverflowError
    assert phase_space_distance(PacketParams(x0=-1e160, p0=5.0, alpha=1.0)) == math.inf
    assert phase_space_distance(PacketParams(x0=-10.0, p0=1e150, alpha=1e10)) == math.inf


def test_phase_space_distance_both_forms_agree():
    rng = np.random.default_rng(7)
    for _ in range(30):
        p = PacketParams(
            x0=-rng.uniform(0.1, 8.0),
            p0=rng.uniform(0.0, 6.0),
            alpha=rng.uniform(0.3, 3.0),
            hbar=rng.uniform(0.5, 2.0),
            mass=rng.uniform(0.5, 2.0),
        )
        m = free_moments(p, 0.0)
        alt = 0.5 * ((p.x0 / m.x_sd) ** 2 + (p.p0 / m.p_sd) ** 2)
        assert phase_space_distance(p) == pytest.approx(alt, rel=1e-12)


def test_collision_time():
    assert BouncerParams(DEMO).collision_time == pytest.approx(2.0)
    assert BouncerParams(PacketParams(x0=-1.0, p0=-1.0, alpha=1.0)).collision_time is None
    assert BouncerParams(PacketParams(x0=0.0, p0=1.0, alpha=1.0)).collision_time is None
    assert PacketParams(x0=-4.0, p0=2.0, alpha=1.0, mass=3.0).collision_time == 6.0
    for x0, p0 in [(0.0, 1.0), (0.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (-1.0, -2.0), (1.0, -1.0)]:
        assert PacketParams(x0=x0, p0=p0, alpha=1.0).collision_time is None, (x0, p0)


# ------------------------------------------------------------- normalization


def test_normalization_ln2():
    # distance = ln 2  ->  N = sqrt(2)
    p = PacketParams(x0=-math.sqrt(math.log(2.0)), p0=0.0, alpha=1.0)
    assert mirror_normalization(p) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_normalization_large_distance_expansion():
    p = PacketParams(x0=-math.sqrt(29.0), p0=0.0, alpha=1.0)
    assert abs((mirror_normalization(p) - 1.0) - 0.5 * math.exp(-29.0)) < 1e-15


def test_normalization_degenerate_raises():
    with pytest.raises(DegenerateMirrorError):
        mirror_normalization(PacketParams(x0=0.0, p0=0.0, alpha=1.0))


def test_normalization_vs_quadrature():
    p = PacketParams(x0=-1.5, p0=1.0, alpha=1.0)  # z0 = 3.25, N clearly > 1
    n = mirror_normalization(p)
    grid = window_grid(p, 0.0, 0.0, half_line=True)
    xs = grid.points()
    raw = GridState(grid, psi_free(p, xs, 0.0) - psi_free(p, -xs, 0.0), 0.0)
    assert abs(n * n * moment_x(raw, 0) - 1.0) < 1e-10


# --------------------------------------------------------- overlap correction


def test_overlap_correction_limit_and_values():
    assert overlap_correction(0.0) == 1.0
    assert overlap_correction(1e-12) == pytest.approx(1.0, abs=1e-11)
    assert overlap_correction(math.log(2.0)) == pytest.approx(math.log(2.0), rel=1e-14)
    assert overlap_correction(50.0) < 1e-19
    assert overlap_correction(math.inf) == 0.0
    with pytest.raises(ValueError):
        overlap_correction(-0.1)


def test_overlap_correction_strictly_decreasing_in_unit_interval():
    zs = np.concatenate([np.logspace(-9, 1.6, 200), np.linspace(0.0, 60.0, 200)])
    zs = np.unique(zs)
    vals = [overlap_correction(z) for z in zs]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------- wavefunction


def test_boundary_zero_for_all_times(demo_bp):
    for t in (0.0, 1.0, 2.0, 5.0):
        assert psi_bouncer(demo_bp, 0.0, t) == 0.0 + 0.0j
    xs = np.array([-1.0, 0.0, 0.5, 3.0])
    vals = psi_bouncer(demo_bp, xs, 1.3)
    assert vals[1] == 0 and vals[2] == 0 and vals[3] == 0
    assert vals[0] != 0


def test_norm_at_t0_and_after_bounce(demo_bp):
    grid = window_grid(DEMO, 0.0, 4.0, half_line=True)
    for t in (0.0, 4.0):  # t = 0 and t = 2 t_c
        assert abs(moment_x(_bouncer_state(demo_bp, grid, t), 0) - 1.0) < 1e-9


def test_norm_moderate_distance():
    p = PacketParams(x0=-5.0, p0=2.0, alpha=1.0)  # distance 29
    bp = BouncerParams(p)
    grid = window_grid(p, 0.0, 0.0, half_line=True)
    assert abs(moment_x(_bouncer_state(bp, grid, 0.0), 0) - 1.0) < 1e-10


def test_norm_conserved_at_sampled_times(demo_bp):
    grid = window_grid(DEMO, 0.0, 5.0, half_line=True)
    for t in (0.5, 1.7, 2.0, 2.3, 3.6, 5.0):
        assert abs(moment_x(_bouncer_state(demo_bp, grid, t), 0) - 1.0) < 1e-8


def test_antisymmetry_half_line_is_half_of_full_line():
    p = PacketParams(x0=-2.0, p0=1.5, alpha=1.0)
    length = 12.0 * p.beta_t(1.0) + abs(p.x0)
    n_half = 20001
    half = GridSpec(-length, n_half, 0.0)
    full = GridSpec(-length, 2 * n_half - 1, length)
    xs_h, xs_f = half.points(), full.points()
    diff_h = GridState(half, psi_free(p, xs_h, 1.0) - psi_free(p, -xs_h, 1.0), 1.0)
    diff_f = GridState(full, psi_free(p, xs_f, 1.0) - psi_free(p, -xs_f, 1.0), 1.0)
    assert abs(moment_x(diff_h, 0) - 0.5 * moment_x(diff_f, 0)) < 1e-10


# ------------------------------------------------------------- even moments


def test_x2_zero_distance_limit_matches_wall_packet():
    # distance -> 0 at t = 0 gives 3 beta^2/2, the wall-packet value
    p = PacketParams(x0=-1e-9, p0=0.0, alpha=1.0)
    bp = BouncerParams(p)
    assert position_second_moment(bp, 0.0) == pytest.approx(1.5 * p.beta**2, rel=1e-12)


def test_x2_large_distance_is_free():
    p = PacketParams(x0=-math.sqrt(29.0), p0=0.0, alpha=1.0)
    bp = BouncerParams(p)
    free = free_moments(p, 0.7).x2_mean
    assert position_second_moment(bp, 0.7) == pytest.approx(free, rel=1e-10)


def test_x2_vs_quadrature_across_bounce(demo_bp):
    grid = window_grid(DEMO, 0.0, 4.0, half_line=True)
    for t in np.linspace(0.0, 4.0, 9):
        closed = position_second_moment(demo_bp, t)
        numeric = moment_x(_bouncer_state(demo_bp, grid, t), 2)
        assert abs(numeric - closed) / closed < 1e-7


def test_p2_zero_distance_limit():
    p = PacketParams(x0=-1e-9, p0=0.0, alpha=1.0)
    expected = 1.5 * (p.hbar / p.beta) ** 2
    assert momentum_second_moment(BouncerParams(p)) == pytest.approx(expected, rel=1e-8)


def test_p2_large_distance_is_free():
    p = PacketParams(x0=-40.0, p0=0.0, alpha=1.0)
    expected = 0.5 * (p.hbar / p.beta) ** 2
    assert momentum_second_moment(BouncerParams(p)) == pytest.approx(expected, rel=1e-12)


def test_p2_vs_derivative_quadrature(demo_bp):
    grid = window_grid(DEMO, 0.0, 2.0, half_line=True)
    closed = momentum_second_moment(demo_bp)
    for t in (0.0, 2.0):  # t = 0 and t = t_c
        numeric = moment_p(_bouncer_state(demo_bp, grid, t), 2, hbar=1.0)
        assert abs(numeric - closed) / closed < 1e-6


def test_p2_time_invariance_of_oracle(demo_bp):
    grid = window_grid(DEMO, 0.0, 4.0, half_line=True)
    values = [
        moment_p(_bouncer_state(demo_bp, grid, t), 2, hbar=1.0) for t in (0.0, 1.0, 2.0, 4.0)
    ]
    for a in values:
        for b in values:
            assert abs(a - b) / abs(a) < 1e-6


# ------------------------------------------------------------- energy shift


def test_energy_shift_at_origin_is_two():
    bp = BouncerParams(PacketParams(x0=0.0, p0=0.0, alpha=1.0))
    assert energy_shift(bp) == pytest.approx(2.0, abs=1e-12)


def test_energy_shift_suppressed_value():
    # distance = 29 with p0*beta/hbar = 2  ->  2 F(29)/9
    p = PacketParams(x0=-5.0, p0=2.0, alpha=1.0)
    assert phase_space_distance(p) == 29.0
    expected = 2.0 * overlap_correction(29.0) / 9.0
    assert energy_shift(BouncerParams(p)) == pytest.approx(expected, rel=1e-14)
    assert expected < 2e-12


def test_energy_shift_equals_exact_p2_ratio():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = PacketParams(
            x0=-rng.uniform(0.2, 4.0), p0=rng.uniform(0.0, 3.0), alpha=rng.uniform(0.5, 2.0)
        )
        bp = BouncerParams(p)
        p2_free = free_moments(p, 0.0).p2_mean
        ratio = (momentum_second_moment(bp) - p2_free) / p2_free
        assert energy_shift(bp) == pytest.approx(ratio, rel=1e-12)


def test_exact_identities_hold_exactly():
    # alpha, hbar, mass, -x0 and p0 log-uniform over 1e-3 to 1e3; t = 0 in half
    # the draws and |t|/t0 log-uniform over 1e-3 to 1e3 in the rest.  No
    # tolerance: the wall never lowers <p^2>, A(0) is 1, |A| is at most 1, N is
    # at least 1, the overlap correction lies in [0, 1], and the free and node
    # packets' uncertainty products are at least hbar/2 and 3*hbar/2.
    # (Below about 1e-7 t0 the rounding of A_bouncer's parts can still put |A|
    # an ulp above 1, so that range is not drawn yet.)
    rng = np.random.default_rng(7)
    for _ in range(2000):
        alpha, hbar, mass, distance, p0 = (10.0 ** rng.uniform(-3.0, 3.0, 5)).tolist()
        p = PacketParams(-distance, p0, alpha, hbar, mass)
        t = 0.0 if rng.random() < 0.5 else float(rng.choice([-1.0, 1.0]) * p.t0 * 10.0 ** rng.uniform(-3.0, 3.0))
        assert momentum_second_moment(p) >= free_moments(p, t).p2_mean, p
        assert free_moments(p, t).uncertainty_product() >= 0.5 * hbar, (p, t)
        assert node_packet_moments(p, t).uncertainty_product() >= 1.5 * hbar, (p, t)
        assert autocorrelation_free(p, 0.0) == autocorrelation_bouncer(p, 0.0) == 1.0, p
        assert abs(autocorrelation_free(p, t)) <= 1.0 and abs(autocorrelation_bouncer(p, t)) <= 1.0, (p, t)
        assert energy_shift(p) >= 0.0, p
        assert mirror_normalization(p) >= 1.0, p
        assert 0.0 <= overlap_correction(phase_space_distance(p)) <= 1.0, p


# ------------------------------------------------- near-collision expansions


def test_x_mean_leading_term_at_collision(near_bp):
    tc = near_bp.collision_time
    assert x_mean_near_collision(near_bp, tc) == pytest.approx(
        -NEAR.beta_t(tc) / math.sqrt(math.pi)
    )
    with pytest.raises(ValueError, match="terms must be 1 or 2"):
        x_mean_near_collision(near_bp, tc, terms=3)


def test_x_mean_symmetric_in_center_offset(near_bp):
    # the expansion depends on X(t)^2 only: at equal times (equal beta_t),
    # packets whose centers sit at +delta and -delta give the same value
    tc = near_bp.collision_time
    for delta in (0.1, 0.4):
        ahead = BouncerParams(PacketParams(x0=NEAR.x0 + delta, p0=NEAR.p0, alpha=NEAR.alpha))
        behind = BouncerParams(PacketParams(x0=NEAR.x0 - delta, p0=NEAR.p0, alpha=NEAR.alpha))
        assert ahead.center(tc) == pytest.approx(-behind.center(tc), abs=1e-12)
        assert x_mean_near_collision(ahead, tc) == pytest.approx(
            x_mean_near_collision(behind, tc), rel=1e-12
        )


def test_x_mean_window_warning(near_bp):
    tc = near_bp.collision_time
    assert in_expansion_window(near_bp, tc)
    assert not in_expansion_window(near_bp, 0.0)
    with pytest.warns(ApproximationWindowWarning):
        x_mean_near_collision(near_bp, 0.0)


def test_x_mean_vs_oracle_within_5pct(near_bp, near_grid):
    tc = near_bp.collision_time
    numeric = moment_x(_bouncer_state(near_bp, near_grid, tc), 1)
    closed = x_mean_near_collision(near_bp, tc)
    assert abs(closed - numeric) / abs(numeric) < 0.05


def test_p_mean_asymptote():
    p = PacketParams(x0=-300.0, p0=3.0, alpha=1.0)  # t_c = 100 t0
    val = p_mean_at_collision(BouncerParams(p))
    assert val == pytest.approx(-1.0 / (math.sqrt(math.pi) * p.alpha), rel=1e-4)


def test_p_mean_at_spreading_time():
    p = PacketParams(x0=-1.0, p0=1.0, alpha=1.0)  # t_c = t0
    expected = -p.hbar / (p.beta * math.sqrt(2.0 * math.pi))
    assert p_mean_at_collision(BouncerParams(p)) == pytest.approx(expected, rel=1e-14)


def test_p_mean_requires_collision():
    with pytest.raises(ValueError):
        p_mean_at_collision(BouncerParams(PacketParams(x0=-1.0, p0=-1.0, alpha=1.0)))


def test_p_mean_vs_oracle_within_10pct(near_bp, near_grid):
    tc = near_bp.collision_time
    numeric = moment_p(_bouncer_state(near_bp, near_grid, tc), 1, hbar=1.0, rtol=1e-3)
    closed = p_mean_at_collision(near_bp)
    assert abs(closed - numeric) / abs(numeric) < 0.10


def test_effective_force_ratio_to_estimate(near_bp):
    assert effective_force(near_bp) / collision_force_scale(near_bp) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-14
    )


def test_effective_force_quadratic_in_momentum():
    # doubling x0 and p0 keeps t_c and beta_t(t_c) fixed, quadrupling the force
    a = BouncerParams(PacketParams(x0=-9.0, p0=3.0, alpha=1.0))
    b = BouncerParams(PacketParams(x0=-18.0, p0=6.0, alpha=1.0))
    assert b.collision_time == a.collision_time
    assert effective_force(b) == pytest.approx(4.0 * effective_force(a), rel=1e-14)


def test_effective_force_requires_collision():
    with pytest.raises(ValueError):
        effective_force(BouncerParams(PacketParams(x0=-1.0, p0=0.0, alpha=1.0)))


def test_effective_force_vs_oracle_second_difference(near_bp, near_grid):
    tc = near_bp.collision_time
    d = 0.05 * NEAR.t0
    xs = [moment_x(_bouncer_state(near_bp, near_grid, t), 1) for t in (tc - d, tc, tc + d)]
    fd = NEAR.mass * (xs[2] - 2.0 * xs[1] + xs[0]) / d**2
    assert abs(fd - effective_force(near_bp)) / abs(effective_force(near_bp)) < 0.15


# ------------------------------------------------------------ autocorrelation


def test_autocorrelation_bouncer_at_zero(demo_bp):
    assert autocorrelation_bouncer(demo_bp, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_autocorrelation_bouncer_reduces_to_free():
    p = PacketParams(x0=-20.0, p0=10.0, alpha=1.0)  # distance = 500
    bp = BouncerParams(p)
    for t in (0.2, 1.0, 3.0):
        assert abs(autocorrelation_bouncer(bp, t) - autocorrelation_free(p, t)) < 1e-12


def test_autocorrelation_bouncer_limits():
    # an infinite distance: the free autocorrelation itself
    far = PacketParams(x0=-10.0, p0=1e60, alpha=1e100, hbar=1e-100)
    assert phase_space_distance(far) == math.inf
    assert autocorrelation_bouncer(far, 0.0) == 1.0
    for t in (0.0, 0.3 * far.t0, -2.0 * far.t0):
        assert autocorrelation_bouncer(far, t) == autocorrelation_free(far, t)
    # a subnormal distance: the factor's z -> 0 limit 1/(1 + i*t/2t0)
    near = PacketParams(x0=-1e-176, p0=-3.2e-160, alpha=361.8, hbar=0.0025, mass=0.58)
    assert 0.0 < phase_space_distance(near) < np.finfo(float).tiny
    for t in (0.0, 76.0, -3.0):
        want = autocorrelation_free(near, t) / (1.0 + 0.5j * t / near.t0)
        assert abs(autocorrelation_bouncer(near, t) - want) <= 1e-15 * abs(want)


def test_autocorrelation_bouncer_degenerate_raises():
    with pytest.raises(DegenerateMirrorError):
        autocorrelation_bouncer(BouncerParams(PacketParams(x0=0.0, p0=0.0, alpha=1.0)), 1.0)


def test_autocorrelation_bouncer_vs_overlap_small_distance():
    # small distance makes the mirror factor matter; oracle pins the branch
    p = PacketParams(x0=-1.0, p0=1.0, alpha=1.0)
    bp = BouncerParams(p)
    grid = window_grid(p, 0.0, 4.0, half_line=True)
    ref = _bouncer_state(bp, grid, 0.0)
    for t in (0.3, 1.0, 2.0, 4.0):
        num = overlap(ref, _bouncer_state(bp, grid, t))
        assert abs(autocorrelation_bouncer(bp, t) - num) < 1e-7


def test_autocorrelation_bouncer_monotone_modulus(demo_bp):
    ts = np.linspace(0.0, 6.0, 61)
    mags = [abs(autocorrelation_bouncer(demo_bp, t)) for t in ts]
    assert all(a > b for a, b in zip(mags, mags[1:]))


# ----------------------------------------------------------------- invariants


def test_oracle_ehrenfest_across_bounce(demo_bp):
    grid = window_grid(DEMO, 0.0, 4.0, half_line=True)
    d = 0.002 * DEMO.t0

    def xbar(t):
        return moment_x(_bouncer_state(demo_bp, grid, t), 1)

    for t in (0.5, 1.9, 2.0, 2.1, 3.5):
        fd = DEMO.mass * (xbar(t + d) - xbar(t - d)) / (2.0 * d)
        pbar = moment_p(_bouncer_state(demo_bp, grid, t), 1, hbar=1.0, rtol=1e-4)
        assert abs(fd - pbar) < 1e-4


def test_oracle_far_from_wall_is_classical(demo_bp):
    grid = window_grid(DEMO, 0.0, 0.5, half_line=True)
    for t in (0.0, 0.4):
        assert abs(DEMO.center(t)) > 6.0 * DEMO.beta_t(t)
        numeric = moment_x(_bouncer_state(demo_bp, grid, t), 1)
        assert abs(numeric - (-abs(DEMO.center(t)))) < 1e-3 * DEMO.beta_t(t)
