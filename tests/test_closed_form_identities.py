"""Every closed-form wavefunction is psi_free times an exact factor.

The references below are the explicit formulas, each packet built from
its own amplitude, phase and envelope, and the bouncer as the plain
difference psi(x) - psi(-x) of two free packets.  The library must agree
with them wherever that difference is well conditioned, stay finite
where a careless factor would overflow, and keep its accuracy as the
mirror distance z goes to 0, where the plain difference loses it.

The evaluators work in real arithmetic on blocks of points, with the
phase from a half-angle tangent: their values must not depend on where
the block boundaries fall or on the shape of the input, must stay exact
where the tangent is huge, must allocate little beyond the result, and
must keep their accuracy on numpy's non-AVX-512 loops.
"""

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
    SpecialParams,
    autocorrelation_bouncer,
    autocorrelation_free,
    mirror_normalization,
    phase_space_distance,
    psi_bouncer,
    psi_free,
    psi_node_packet,
    psi_wall_packet,
)
from wallbounce.packets import _BLOCK

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
    diff = ref_psi_free(bp, x, t) - ref_psi_free(bp, -x, t)
    return np.where(x < 0.0, mirror_normalization(bp) * diff, 0.0 + 0.0j)


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
            assert phase_space_distance(bp) >= 1e-2
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
    assert phase_space_distance(bp) == pytest.approx(z, rel=1e-12)
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


def _kinds():
    """Each wavefunction as psi(x, t), on a packet with hbar and mass off 1."""
    p = PacketParams(x0=-3.0, p0=2.0, alpha=0.8, hbar=0.7, mass=1.3)
    bp = BouncerParams(p)
    wall = SpecialParams(beta=1.1, hbar=0.7, mass=1.3)
    return {
        "free": lambda x, t: psi_free(p, x, t),
        "node": lambda x, t: psi_node_packet(p, x, t),
        "bouncer": lambda x, t: psi_bouncer(bp, x, t),
        "wall": lambda x, t: psi_wall_packet(wall, x, t),
    }


@pytest.mark.parametrize("kind", ["free", "node", "bouncer", "wall"])
def test_values_do_not_depend_on_block_boundaries(kind):
    psi = _kinds()[kind]
    xs = np.linspace(-25.0, 3.0, 2 * _BLOCK + 3)
    for t in (0.0, 1.7, -2.0, 9.0):  # before and after the bouncer's collision
        whole = psi(xs, t)
        for start in (5, 2):  # xs[2:] ends in a block of one point
            assert np.array_equal(psi(xs[start:], t).view(float), whole[start:].view(float))


@pytest.mark.parametrize("kind", ["free", "node", "bouncer", "wall"])
def test_scalar_and_2d_inputs_match_1d(kind):
    psi = _kinds()[kind]
    xs = np.linspace(-25.0, 3.0, 1001)
    for t in (0.0, 1.7, 9.0):
        flat = psi(xs, t)
        tol = 1e-15 * float(np.max(np.abs(flat)))
        grid = psi(xs[:-1].reshape(40, 25), t)
        assert grid.shape == (40, 25)
        assert float(np.max(np.abs(grid.reshape(-1) - flat[:-1]))) <= tol
        for i in range(0, xs.size, 50):
            value = psi(float(xs[i]), t)
            assert np.ndim(value) == 0
            assert abs(value - flat[i]) <= tol


def _nearest_roots(a, b, c, targets):
    """Doubles nearest the roots u of a*u**2 + b*u + c = target, and their neighbours."""
    roots = []
    for target in targets:
        disc = b * b - 4.0 * a * (c - target)
        if disc >= 0.0:
            roots += [(-b + s * math.sqrt(disc)) / (2.0 * a) for s in (1.0, -1.0)]
    return np.array(roots)


def test_large_half_angle_tangent_stays_finite_and_exact():
    # points where theta/2 is near an odd multiple of pi/2, so that
    # h = tan(theta/2) is huge and cos(theta) near -1: in psi_free's phase,
    # in the node packet's (theta/2 + pi/4 - atan(tau)/2) and in the
    # bouncer's mirror factor
    p = PacketParams(x0=-3.0, p0=2.0, alpha=0.8, hbar=0.7, mass=1.3)
    bp = BouncerParams(p)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for t in (0.4, 2.5, 7.0):
            tau = t / p.t0
            bt2 = p.beta**2 * (1.0 + tau * tau)
            a = 0.25 * tau / bt2
            b = 0.5 * p.p0 / p.hbar
            c = 0.25 * (p.p0**2 * t / (p.mass * p.hbar) - math.atan(tau))
            odd = [(k + 0.5) * math.pi for k in range(-6, 7)]
            u = _nearest_roots(a, b, c, odd)
            x = p.center(t) + u[np.abs(u) < 4.0 * math.sqrt(bt2)]
            x = np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])
            half = (x - p.center(t)) * ((x - p.center(t)) * a + b) + c
            assert np.max(np.abs(np.tan(half))) > 1e10
            got = psi_free(p, x, t)
            assert np.all(np.isfinite(got))
            _assert_close(got, ref_psi_free(p, x, t), tol=1e-13)
            c_node = c + 0.25 * math.pi - 0.5 * math.atan(tau)
            u = _nearest_roots(a, b, c_node, odd)
            x = p.center(t) + u[np.abs(u) < 4.0 * math.sqrt(bt2)]
            x = np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])
            half = (x - p.center(t)) * ((x - p.center(t)) * a + b) + c_node
            assert np.max(np.abs(np.tan(half))) > 1e10
            got = psi_node_packet(p, x, t)
            assert np.all(np.isfinite(got))
            _assert_close(got, ref_psi_node(p, x, t), tol=1e-13)
            # the mirror factor's half angle is Im(q)/2 = -s*Im(k)*x for x < 0
            big_x = p.center(t)
            k = 1j * p.p0 / p.hbar + big_x / (p.beta**2 * (1.0 + 1j * tau))
            s = -1.0 if big_x > 0.0 else 1.0
            xm = np.array([(j + 0.5) * math.pi / (-s * k.imag) for j in range(-8, 9)])
            xm = xm[(xm < 0.0) & (xm > big_x - 6.0 * math.sqrt(bt2))]
            assert xm.size
            xm = np.concatenate([np.nextafter(xm, -np.inf), xm, np.nextafter(xm, np.inf)])
            got = psi_bouncer(bp, xm, t)
            assert np.all(np.isfinite(got))
            _assert_close(got, ref_psi_bouncer(bp, xm, t), tol=1e-12)


def test_far_points_are_exactly_zero():
    # past |x - X| ~ 1e154 the squared offset overflows and the phase is
    # infinite, but |psi| is 0 there, and so is psi
    far = np.array([-1e200, -1e160, 1e160, 1e200])
    with np.errstate(over="ignore"):
        for psi in _kinds().values():
            for t in (0.0, 1.7, 9.0):
                assert np.all(psi(far, t) == 0.0)


@pytest.mark.parametrize("x0,t", [(-10.0, 1.0), (-10.0, 3.0)])  # X(t) < 0 and X(t) > 0
def test_bouncer_memory_is_its_output(x0, t):
    # the mirror factor is applied in place, block by block: apart from the
    # result (16 bytes a point) only block-sized temporaries are allocated
    bp = BouncerParams(PacketParams(x0=x0, p0=5.0, alpha=1.0))
    xs = np.linspace(-60.0, 0.0, 600_001)
    tracemalloc.start()
    try:
        psi_bouncer(bp, xs, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * xs.size


def _cpu_features():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_features__


@pytest.mark.skipif(
    not _cpu_features().get("X86_V4"), reason="numpy reports no X86_V4 (AVX-512) dispatch target"
)
def test_accuracy_with_avx512_dispatch_off():
    # tan, exp and expm1 then take numpy's AVX2 or scalar libm loops
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4")
    src = os.path.dirname(os.path.dirname(wallbounce.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    check = (
        "from numpy._core._multiarray_umath import __cpu_features__ as f; "
        "assert not f.get('X86_V4'); import pytest, sys; sys.exit(pytest.main(sys.argv[1:]))"
    )
    # the last two pin the CLI outputs and the gates' measured values
    selected = (
        "reference_formulas or tends_to_wall_packet or large_half_angle or block_boundaries"
        " or output_matches_the_reference or measured_values_match_the_reference"
    )
    here = os.path.dirname(__file__)
    files = [__file__, os.path.join(here, "test_cli.py"), os.path.join(here, "test_acceptance.py")]
    proc = subprocess.run(
        [sys.executable, "-c", check, "-q", "-p", "no:cacheprovider", *files, "-k", selected],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout and "failed" not in proc.stdout
