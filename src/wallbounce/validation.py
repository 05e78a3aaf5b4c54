"""Acceptance suite: every closed form checked against the numerical oracle.

Each criterion is a self-contained check returning a pass/fail record
with its measured numbers; :func:`run_all` executes them in order and
never raises (errors are recorded as failures).  Every check builds its
own grid, and no caller can replace it: the grids and step sizes below
were fixed by a halving convergence study, and the quadrature grids
come from the oscillation-aware defaults in :mod:`wallbounce.oracle`,
whose spacing the latest halving study (CHANGES.md, under the 6th-order
momentum oracle) doubled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bouncer import (
    autocorrelation_bouncer,
    collision_force_scale,
    effective_force,
    energy_shift,
    momentum_second_moment,
    p_mean_at_collision,
    position_second_moment,
    psi_bouncer,
    x_mean_near_collision,
)
from .oracle import (
    GridSpec,
    GridState,
    moment_p,
    moment_x,
    overlap,
    propagate,
    sample,
    window_grid,
)
from .packets import PacketParams, free_moments
from .special import (
    psi_wall_packet,
    wall_packet_moments,
    wall_packet_uncertainty,
)

__all__ = ["CriterionResult", "CRITERION_IDS", "run_all", "DEMO_PARAMS"]

#: deep in the regime where the near-collision expansions are sharp
DEMO_PARAMS = PacketParams(x0=-10.0, p0=5.0, alpha=1.0)

#: z0 = 90 and t_c = 3 t0, satisfying the expansion-regime requirements
NEAR_PARAMS = PacketParams(x0=-9.0, p0=3.0, alpha=1.0)

_RNG_SEED = 20240517


@dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    detail: str = ""
    measured: dict = field(default_factory=dict)


def _state(params: PacketParams, grid: GridSpec, t: float) -> GridState:
    return sample(lambda x, tt: psi_bouncer(params, x, tt), grid, t)


def _check_normalization():
    rng = np.random.default_rng(_RNG_SEED)
    worst = [0.0, 0.0]  # at t = 0 and at 2 t_c
    for _ in range(20):
        z = 10.0 ** rng.uniform(math.log10(0.1), math.log10(50.0))
        theta = rng.uniform(0.25, 1.32)
        params = PacketParams(
            x0=-math.sqrt(z) * math.cos(theta), p0=math.sqrt(z) * math.sin(theta), alpha=1.0
        )
        grid = window_grid(params, 0.0, 2.0 * params.collision_time, half_line=True)
        for i, t in enumerate((0.0, 2.0 * params.collision_time)):
            worst[i] = max(worst[i], abs(moment_x(_state(params, grid, t), 0) - 1.0))
    worst0, worst2 = worst
    passed = worst0 < 1e-9 and worst2 < 1e-8
    detail = f"worst |N^2*norm - 1|: {worst0:.3e} at t=0 (tol 1e-9), {worst2:.3e} at 2t_c (tol 1e-8)"
    return passed, detail, {"worst_t0": worst0, "worst_2tc": worst2}


def _check_even_moments():
    t_max = 3.0 * DEMO_PARAMS.collision_time
    grid = window_grid(DEMO_PARAMS, 0.0, t_max, half_line=True)
    worst_x2 = worst_p2 = 0.0
    p2_closed = momentum_second_moment(DEMO_PARAMS)
    p2_vals = []
    for t in np.linspace(0.0, t_max, 9):
        st = _state(DEMO_PARAMS, grid, float(t))
        x2 = moment_x(st, 2)
        p2 = moment_p(st, 2, hbar=DEMO_PARAMS.hbar, rtol=2e-6)
        worst_x2 = max(worst_x2, abs(x2 - position_second_moment(DEMO_PARAMS, float(t))) / x2)
        worst_p2 = max(worst_p2, abs(p2 - p2_closed) / p2_closed)
        p2_vals.append(p2)
    spread = (max(p2_vals) - min(p2_vals)) / p2_closed
    passed = worst_x2 < 1e-6 and worst_p2 < 1e-6 and spread < 1e-6
    detail = (
        f"worst rel err over [0, 3t_c]: x^2 {worst_x2:.3e}, p^2 {worst_p2:.3e}; "
        f"p^2 time spread {spread:.3e} (tol 1e-6 each)"
    )
    return passed, detail, {"x2": worst_x2, "p2": worst_p2, "p2_spread": spread}


def _check_energy_shift_limit():
    params = PacketParams(x0=0.0, p0=0.0, alpha=1.0)
    p2_free = free_moments(params, 0.0).p2_mean
    exact_ratio = (momentum_second_moment(params) - p2_free) / p2_free
    err_ratio = abs(exact_ratio - 2.0)
    err_shift = abs(energy_shift(params) - 2.0)
    passed = err_ratio < 1e-12 and err_shift < 1e-12
    detail = f"|ratio - 2| = {err_ratio:.3e}, |shift - 2| = {err_shift:.3e} (tol 1e-12)"
    return passed, detail, {"ratio_err": err_ratio, "shift_err": err_shift}


def _check_collision_position():
    tc = NEAR_PARAMS.collision_time
    grid = window_grid(NEAR_PARAMS, 0.0, tc + 0.7, half_line=True)
    x_num = moment_x(_state(NEAR_PARAMS, grid, tc), 1)
    lead = x_mean_near_collision(NEAR_PARAMS, tc, terms=1)
    rel = abs(lead - x_num) / abs(x_num)
    improved = []
    for dt in (-0.6, -0.3, 0.3, 0.45, 0.6):
        t = tc + dt
        xn = moment_x(_state(NEAR_PARAMS, grid, t), 1)
        e1 = abs(x_mean_near_collision(NEAR_PARAMS, t, terms=1) - xn)
        e2 = abs(x_mean_near_collision(NEAR_PARAMS, t, terms=2) - xn)
        improved.append(e2 < e1)
    passed = rel < 0.05 and all(improved)
    detail = (
        f"leading term off by {100 * rel:.2f}% at t_c (tol 5%); "
        f"two-term tighter at {sum(improved)}/5 nearby times"
    )
    return passed, detail, {"rel_err_tc": rel, "improved": sum(improved)}


def _check_collision_momentum():
    worst = 0.0
    dists = []
    asymptote = -1.0 / (math.sqrt(math.pi) * NEAR_PARAMS.alpha)
    for tc_over_t0 in (3.0, 10.0, 30.0):
        params = PacketParams(x0=-3.0 * tc_over_t0, p0=3.0, alpha=1.0)
        tc = params.collision_time
        closed = p_mean_at_collision(params)
        grid = window_grid(params, 0.0, tc, half_line=True)
        numeric = moment_p(_state(params, grid, tc), 1, hbar=params.hbar, rtol=1e-3)
        worst = max(worst, abs(closed - numeric) / abs(numeric))
        dists.append(abs(closed - asymptote))
    monotone = all(a > b for a, b in zip(dists, dists[1:]))
    passed = worst < 0.10 and monotone
    detail = (
        f"worst oracle mismatch {100 * worst:.2f}% (tol 10%); distance to "
        f"asymptote {dists[0]:.2e} -> {dists[1]:.2e} -> {dists[2]:.2e} (monotone: {monotone})"
    )
    return passed, detail, {"worst_rel": worst, "monotone": monotone}


def _check_effective_force():
    tc = NEAR_PARAMS.collision_time
    grid = window_grid(NEAR_PARAMS, 0.0, tc + 0.2, half_line=True)
    d = 0.05 * NEAR_PARAMS.t0
    xs = [moment_x(_state(NEAR_PARAMS, grid, t), 1) for t in (tc - d, tc, tc + d)]
    fd = NEAR_PARAMS.mass * (xs[2] - 2.0 * xs[1] + xs[0]) / d**2
    closed = effective_force(NEAR_PARAMS)
    rel = abs(fd - closed) / abs(closed)
    ratio = fd / collision_force_scale(NEAR_PARAMS)
    ratio_rel = abs(ratio - 1.0 / math.sqrt(math.pi)) / (1.0 / math.sqrt(math.pi))
    passed = rel < 0.15 and ratio_rel < 0.15
    detail = (
        f"second difference off by {100 * rel:.2f}% (tol 15%); "
        f"ratio to dimensional estimate {ratio:.4f} vs 1/sqrt(pi) = {1.0 / math.sqrt(math.pi):.4f}"
    )
    return passed, detail, {"rel_err": rel, "ratio": ratio}


def _check_autocorrelation():
    t_max = 3.0 * DEMO_PARAMS.collision_time
    grid = window_grid(DEMO_PARAMS, 0.0, t_max, half_line=True)
    ref = _state(DEMO_PARAMS, grid, 0.0)
    ts = np.linspace(0.0, t_max, 25)
    worst = 0.0
    mags = []
    for t in ts:
        closed = autocorrelation_bouncer(DEMO_PARAMS, float(t))
        numeric = overlap(ref, _state(DEMO_PARAMS, grid, float(t)))
        worst = max(worst, abs(closed - numeric))
        mags.append(abs(closed))
    monotone = all(a > b for a, b in zip(mags, mags[1:]))
    passed = worst < 1e-6 and monotone
    detail = f"worst |closed - overlap| = {worst:.3e} (tol 1e-6); |A| monotone: {monotone}"
    return passed, detail, {"worst_abs": worst, "monotone": monotone}


def _check_wall_packet_moments():
    sp = PacketParams(0.0, 0.0, 1.0)
    grid = GridSpec(-12.0 * sp.beta_t(3.0 * sp.t0), 16001, 0.0)
    worst = 0.0
    for t in (0.0, sp.t0, 3.0 * sp.t0):
        st = sample(lambda x, tt: psi_wall_packet(sp, x, tt), grid, t)
        m = wall_packet_moments(sp, t)
        x1, x2 = moment_x(st, 1), moment_x(st, 2)
        p1 = moment_p(st, 1, hbar=sp.hbar, rtol=1e-5)
        p2 = moment_p(st, 2, hbar=sp.hbar, rtol=1e-5)
        worst = max(
            worst,
            abs(x1 - m.x_mean),
            abs(x2 - m.x2_mean),
            abs(math.sqrt(x2 - x1**2) - m.x_sd),
            abs(p1 - m.p_mean),
            abs(p2 - m.p2_mean),
            abs(math.sqrt(p2 - p1**2) - m.p_sd),
        )
    sds = [wall_packet_moments(sp, float(t)).p_sd for t in np.linspace(0.0, 20.0, 201)]
    decreasing = all(a > b for a, b in zip(sds, sds[1:]))
    end_start = abs(sds[0] - math.sqrt(1.5) * sp.hbar / sp.beta)
    end_limit = abs(
        wall_packet_moments(sp, 1e5 * sp.t0).p_sd
        - math.sqrt(1.5 - 4.0 / math.pi) * sp.hbar / sp.beta
    )
    passed = worst < 1e-7 and decreasing and end_start < 1e-9 and end_limit < 1e-9
    detail = (
        f"worst moment error {worst:.3e} (tol 1e-7); dp strictly decreasing: {decreasing}; "
        f"endpoint errors {end_start:.1e}, {end_limit:.1e} (tol 1e-9)"
    )
    return passed, detail, {"worst": worst, "decreasing": decreasing}


def _check_uncertainty_coefficients():
    sp = PacketParams(0.0, 0.0, 1.0)
    u0 = wall_packet_uncertainty(sp, 0.0) / sp.hbar
    t = 1e6 * sp.t0
    free_product = 0.5 * sp.hbar * math.sqrt(1.0 + (t / sp.t0) ** 2)
    slope_ratio = wall_packet_uncertainty(sp, t) / free_product
    passed = round(u0, 2) == 0.58 and round(slope_ratio, 2) == 0.45
    detail = f"initial product {u0:.4f} hbar (want 0.58); long-time slope ratio {slope_ratio:.4f} (want 0.45)"
    return passed, detail, {"u0": u0, "slope_ratio": slope_ratio}


def _check_zero_distance_limit():
    eps = math.sqrt(5e-7)  # distance 1e-6 split evenly
    params = PacketParams(x0=-eps, p0=eps, alpha=1.0)
    sp = PacketParams(0.0, 0.0, 1.0)
    xs = np.linspace(-8.0, 0.0, 321)
    worst = 0.0
    for t in (0.0, 0.3, 1.0, 2.5, 6.0):
        a = np.abs(psi_bouncer(params, xs, float(t)))
        b = np.abs(psi_wall_packet(sp, xs, float(t)))
        worst = max(worst, float(np.max(np.abs(a - b))))
    passed = worst < 1e-3
    detail = f"max moduli difference {worst:.3e} over the (x, t) sample (tol 1e-3)"
    return passed, detail, {"worst": worst}


def _propagation_error(params: PacketParams, points_per_beta: int, dt_divisor: int) -> float:
    t_final = 2.0 * params.collision_time
    pad = 8.0 * params.beta_t(t_final)
    h = params.beta / points_per_beta
    n = int(math.ceil((pad + abs(params.x0)) / h)) | 1
    grid = GridSpec(params.x0 - pad, n, 0.0)
    dt = params.t0 / dt_divisor
    steps = int(round(t_final / dt))
    start = _state(params, grid, 0.0)
    evolved = propagate(start, dt, steps, hbar=params.hbar, mass=params.mass)
    # compare at the time the stepper actually landed on (steps * dt)
    exact = _state(params, grid, evolved.time)
    return math.sqrt(float(np.sum(np.abs(evolved.values - exact.values) ** 2)) * grid.h)


def _check_propagator():
    # convergence-study grid: h = beta/200, dt = t0/4000 (stated bounds are
    # h <= beta/200, dt <= t0/2000); halving both isolates the O(dt^2) term
    err_coarse = _propagation_error(DEMO_PARAMS, 200, 4000)
    err_fine = _propagation_error(DEMO_PARAMS, 400, 8000)
    ratio = err_coarse / err_fine
    passed = err_coarse < 1e-4 and abs(ratio / 4.0 - 1.0) < 0.20
    detail = (
        f"L2 error at study grid {err_coarse:.3e} (tol 1e-4); halving ratio "
        f"{ratio:.2f} vs 4 expected for the 2nd-order-in-time step (within 20%)"
    )
    return passed, detail, {"err": err_coarse, "ratio": ratio}


_CRITERIA = [
    ("C01", "mirror normalization exact for 20 random parameter sets, conserved to 2 t_c", _check_normalization),
    ("C02", "closed-form <x^2>(t) and <p^2> match quadrature to 1e-6 over [0, 3 t_c]", _check_even_moments),
    ("C03", "kinetic-energy shift ratio equals 2 exactly in the zero-offset limit", _check_energy_shift_limit),
    ("C04", "collision softening: <x>(t_c) = -beta_t/sqrt(pi) within 5%, two-term tighter", _check_collision_position),
    ("C05", "collision momentum within 10% of closed form, monotone approach to asymptote", _check_collision_momentum),
    ("C06", "effective wall force within 15%, ratio to dimensional estimate 1/sqrt(pi)", _check_effective_force),
    ("C07", "bouncing autocorrelation matches overlap to 1e-6, modulus monotone", _check_autocorrelation),
    ("C08", "wall-packet moments match oracle to 1e-7; momentum spread decreasing", _check_wall_packet_moments),
    ("C09", "uncertainty product coefficients 0.58 and 0.45 to two decimals", _check_uncertainty_coefficients),
    ("C10", "mirror solution reduces to the wall packet at phase-space distance 1e-6", _check_zero_distance_limit),
    ("C11", "hard-wall propagator reproduces the closed form to 1e-4 with 2nd-order scaling", _check_propagator),
]

CRITERION_IDS = [cid for cid, _, _ in _CRITERIA]


def run_all(criteria: list[str] | None = None, progress=None) -> list[CriterionResult]:
    """Run the acceptance criteria and return one result record per criterion.

    Each check runs on its own grid.  criteria selects a subset by id;
    progress, if given, is called with one line before each check.
    """
    selected = set(criteria) if criteria is not None else None
    unknown = (selected or set()) - set(CRITERION_IDS)
    if unknown:
        raise ValueError(f"unknown criterion ids: {sorted(unknown)}")
    results = []
    for cid, description, check in _CRITERIA:
        if selected is not None and cid not in selected:
            continue
        if progress is not None:
            progress(f"running {cid}: {description}")
        try:
            passed, detail, measured = check()
        except Exception as exc:  # surfaced as a failed criterion, not a crash
            passed, detail, measured = False, f"{type(exc).__name__}: {exc}", {}
        results.append(CriterionResult(cid, description, bool(passed), detail, measured))  # not np.bool_
    return results
