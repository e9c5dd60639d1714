import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import swingcert as sc
from swingcert.core import DerivedConstants
from swingcert.certificate import (
    DEFAULT_GRID_FLOOR,
    DEFAULT_GRID_POINTS,
    REL_MARGIN_THRESHOLD,
    _certificate_map,
    _pieces,
    certificate_grid,
    exp_sin_moment,
    p_bounds_for_band,
    velocity_band,
)

from oracles import piecewise_sine


def envelope_g(tau, omega_min, omega_max):
    return piecewise_sine(_pieces(omega_min, omega_max)[0], tau)


def envelope_h(tau, omega_min, omega_max):
    return piecewise_sine(_pieces(omega_min, omega_max)[1], tau)


def p_bounds(dc, d):
    """(P_l, P_u) at one d, from the certificate's own grid pass."""
    _, P_l, P_u, *_ = _certificate_map(dc, (d,))
    return float(P_l[0]), float(P_u[0])


def adaptive_simpson(f, a, b, tol=1e-12, depth=40):
    """Recursive Simpson quadrature, refined until the local estimate settles."""

    def simpson(lo, hi):
        mid = 0.5 * (lo + hi)
        return (hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi)), mid

    def recurse(lo, hi, whole, level):
        estimate_l, m_lo = simpson(lo, 0.5 * (lo + hi))
        estimate_r, m_hi = simpson(0.5 * (lo + hi), hi)
        if level <= 0 or abs(estimate_l + estimate_r - whole) < 15.0 * tol:
            return estimate_l + estimate_r + (estimate_l + estimate_r - whole) / 15.0
        return (
            recurse(lo, 0.5 * (lo + hi), estimate_l, level - 1)
            + recurse(0.5 * (lo + hi), hi, estimate_r, level - 1)
        )

    whole, _ = simpson(a, b)
    return recurse(a, b, whole, depth)


# rest angles ----------------------------------------------------------------

def _rest_angles(beta, d):
    """Scalar oracle: (psi1, psi2) with sin(psi1) = beta + d and sin(psi2) =
    beta - d, None unless |beta| + d < 1."""
    if abs(beta) + d >= 1.0:
        return None
    return math.asin(beta + d), math.asin(beta - d)


def _band_rest_angles(dc, beta, d):
    band = sc.velocity_band(dataclasses.replace(dc, beta=beta), d)
    return band.psi1, band.psi2


def test_rest_angles_symmetric(dc_n30):
    psi1, psi2 = _band_rest_angles(dc_n30, 0.0, 0.5)
    assert abs(psi1 - math.pi / 6) < 1e-12
    assert abs(psi2 + math.pi / 6) < 1e-12


def test_rest_angles_example(dc_n30):
    psi1, psi2 = _band_rest_angles(dc_n30, 0.58, 0.41)
    assert abs(psi1 - math.asin(0.99)) < 1e-12
    assert abs(psi2 - math.asin(0.17)) < 1e-12


@pytest.mark.parametrize("beta,d", [(0.6, 0.4), (0.0, 1.0), (-0.7, 0.35), (1.1, 0.01)])
def test_rest_angles_undefined(beta, d, dc_n30):
    assert np.all(np.isnan(_band_rest_angles(dc_n30, beta, d)))


# velocity_band --------------------------------------------------------------

def test_velocity_band_fallback(dc_n30):
    band = sc.velocity_band(dc_n30, 1.5)
    assert not band.refined
    assert band.S_n == -1.0 and band.S_p == 1.0
    width = band.omega_p - band.omega_n
    assert abs(width - (2.0 + 2.0 * 1.5) / dc_n30.alpha) < 1e-12


def test_velocity_band_width_identity(dc_n30):
    rng = np.random.default_rng(31)
    for d in rng.uniform(1e-4, dc_n30.Gamma, size=50):
        band = sc.velocity_band(dc_n30, float(d))
        width = band.omega_max_d - band.omega_min_d
        expected = (band.S_p - band.S_n + 2.0 * d) / dc_n30.alpha
        assert abs(width - expected) < 1e-10
        assert band.omega_min_d < band.omega_max_d
        assert band.S_n <= band.S_p


def test_velocity_band_small_d(dc_n30):
    band1 = sc.velocity_band(dc_n30, 0.01)
    band2 = sc.velocity_band(dc_n30, 0.005)
    assert band1.band_ok and band2.band_ok
    w1 = band1.omega_max_d - band1.omega_min_d
    w2 = band2.omega_max_d - band2.omega_min_d
    assert abs(w1 / w2 - 2.0) < 0.05  # width proportional to d


def test_velocity_band_ordering_when_refined(dc_n30):
    band = sc.velocity_band(dc_n30, 0.05)
    assert band.refined
    assert band.psi2 <= band.psi1
    assert band.phi2 <= band.phi1


def test_velocity_band_rejects_nonpositive_d(dc_n30):
    with pytest.raises(ValueError):
        sc.velocity_band(dc_n30, 0.0)
    with pytest.raises(ValueError):
        sc.velocity_band(dc_n30, -0.1)
    for bad in (0.0, -1e-3, math.nan):
        grid = np.geomspace(DEFAULT_GRID_FLOOR * dc_n30.Gamma, dc_n30.Gamma, 20)
        grid[7] = bad
        with pytest.raises(ValueError):
            velocity_band(dc_n30, grid)


def _reference_band(dc, d):
    """(refined, omega_min_d, omega_max_d) for one d, in scalar math."""
    alpha, beta = dc.alpha, dc.beta
    pair = _rest_angles(beta, d)
    refined = pair is not None and all(alpha > 2.0 * math.sin(abs(psi) / 2.0) for psi in pair)
    S_n, S_p = -1.0, 1.0
    if refined:
        slack = 4.0 * d / alpha**2
        S_n = -math.sin(min(math.pi / 2, pair[0] + slack))
        S_p = -math.sin(max(-math.pi / 2, pair[1] - slack))
    shift = dc.rho * dc.omega_g
    return refined, (S_n + beta - d) / alpha + shift, (S_p + beta + d) / alpha + shift


@pytest.mark.parametrize("design", ["params_n1", "params_n30"])
def test_velocity_band_array_equals_scalar_calls(design, request):
    # Both grids mix refined points, fallback points with rest angles and
    # points without them; n=1 also has points where the band fails.
    dc = sc.derive_constants(request.getfixturevalue(design))
    grid = certificate_grid(dc.Gamma)
    band = velocity_band(dc, grid)
    assert (not np.all(band.band_ok)) == (design == "params_n1")
    assert np.any(band.refined) and np.any(np.isnan(band.psi1))
    assert np.any(~band.refined & ~np.isnan(band.psi1))
    for k, d in enumerate(grid):
        # numpy's arcsin/sin may differ from math's in the last bits.
        refined, w_min, w_max = _reference_band(dc, float(d))
        assert band.refined[k] == refined
        assert band.omega_min_d[k] == pytest.approx(w_min, rel=1e-12)
        assert band.omega_max_d[k] == pytest.approx(w_max, rel=1e-12)
        point = velocity_band(dc, float(d))
        for f in dataclasses.fields(point):
            value, expected = getattr(point, f.name), getattr(band, f.name)[k]
            assert value.shape == ()
            assert value == expected or (np.isnan(value) and np.isnan(expected))
        assert point.band_ok == band.band_ok[k]


def test_velocity_band_fallback_is_exact_when_assumption_fails():
    # alpha far below the capture threshold: S values must be exactly -1, 1.
    dc = DerivedConstants(p=1.0, i_v=1.0, V_r=1.0, rho=1.0, P_inf=0.2,
                             alpha=0.05, beta=0.3, Gamma=1.2,
                             phi=math.atan2(1.0, 1.0), Lambda=-0.3, omega_g=1.0)
    for d in (0.05, 0.2, 0.6, 0.69):
        band = sc.velocity_band(dc, d)
        assert not band.refined
        assert band.S_n == -1.0 and band.S_p == 1.0


# envelopes ------------------------------------------------------------------

def test_envelope_endpoints_and_crest():
    w_min, w_max = 2.0, 3.5
    assert envelope_g(0.0, w_min, w_max) == 0.0
    assert envelope_h(0.0, w_min, w_max) == 0.0
    assert abs(envelope_g(math.pi / (2 * w_max), w_min, w_max) - 1.0) < 1e-12
    assert abs(envelope_h(3 * math.pi / (2 * w_max), w_min, w_max) + 1.0) < 1e-12


def test_envelope_continuity_at_breakpoints():
    # Adjacent pieces of each table agree where one ends and the next starts.
    for table in _pieces(2.0, 3.5):
        for (_, end, w0, ph0), (start, _, w1, ph1) in zip(table, table[1:]):
            assert end == start
            assert abs(math.sin(w0 * end + ph0) - math.sin(w1 * start + ph1)) < 1e-12


def test_envelope_degenerate_band():
    w = 3.7
    taus_g = np.linspace(0.0, 2 * math.pi / w, 101)
    assert np.max(np.abs(envelope_g(taus_g, w, w) - np.sin(w * taus_g))) == 0.0
    assert np.max(np.abs(envelope_h(taus_g, w, w) - np.sin(w * taus_g))) == 0.0


def test_envelope_domain_errors():
    # The envelopes exist only for a positive band with omega_max <= 2 omega_min.
    with pytest.raises(ValueError, match="band condition"):
        p_bounds_for_band(1.0, 1.0, 2.5)
    with pytest.raises(ValueError, match="0 < omega_min"):
        p_bounds_for_band(1.0, -1.0, -0.5)


def test_envelopes_bound_admissible_sines():
    # g/h must dominate/minorise sin of any admissible accumulated phase.
    w_min, w_max = 2.0, 3.5
    rng = np.random.default_rng(32)
    for _ in range(20):
        w = rng.uniform(w_min, w_max)
        taus = np.linspace(0.0, 2 * math.pi / w_max, 200)
        assert np.all(np.sin(w * taus) <= envelope_g(taus, w_min, w_max) + 1e-12)
        taus = np.linspace(0.0, 2 * math.pi / w, 200)
        assert np.all(np.sin(w * taus) >= envelope_h(taus, w_min, w_max) - 1e-12)


# exp_sin_moment -------------------------------------------------------------

def test_exp_sin_moment_constant_piece():
    a, t0, t1 = 1.7, 0.2, 2.4
    got = exp_sin_moment(a, 0.0, t0, t1, phase=math.pi / 2)
    expected = (math.exp(-a * t0) - math.exp(-a * t1)) / a
    assert abs(got - expected) < 1e-14


def test_exp_sin_moment_empty_interval():
    assert exp_sin_moment(2.0, 3.0, 1.1, 1.1, 0.0) == 0.0


def test_exp_sin_moment_requires_positive_decay():
    with pytest.raises(ValueError):
        exp_sin_moment(0.0, 1.0, 0.0, 1.0, 0.0)


def test_exp_sin_moment_against_adaptive_simpson():
    rng = np.random.default_rng(33)
    for _ in range(40):
        a = rng.uniform(0.1, 8.0)
        w = rng.uniform(0.0, 15.0)
        t0 = rng.uniform(0.0, 2.0)
        t1 = t0 + rng.uniform(0.0, 3.0)
        phase = rng.uniform(-math.pi, math.pi)
        got = exp_sin_moment(a, w, t0, t1, phase=phase)
        ref = adaptive_simpson(lambda x: math.exp(-a * x) * math.sin(w * x + phase),
                               t0, t1)
        assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))


# p_bounds -------------------------------------------------------------------

def test_p_bounds_fallback_on_band_violation(dc_n30):
    # Construct constants whose band is violated for moderate d.
    dc = DerivedConstants(p=1.0, i_v=1.0, V_r=1.0, rho=1.0, P_inf=0.3,
                             alpha=0.4, beta=0.0, Gamma=1.3,
                             phi=math.atan2(1.0, 1.0), Lambda=0.0, omega_g=1.0)
    P_l, P_u = p_bounds(dc, 1.2)
    assert (P_l, P_u) == (0.0, 1.0)


def test_p_bounds_collapse_to_p_inf(dc_n30):
    for d, tol in [(1e-4, 5e-3), (1e-6, 5e-5)]:
        P_l, P_u = p_bounds(dc_n30, d)
        assert abs(P_u - dc_n30.P_inf) < tol
        assert abs(dc_n30.P_inf - P_l) < tol
        assert P_l <= P_u


def test_p_bounds_match_quadrature_oracle():
    rng = np.random.default_rng(34)
    for _ in range(100):
        p_rho = rng.uniform(0.05, 10.0)
        w_min = rng.uniform(0.2, 30.0)
        w_max = w_min * rng.uniform(1.0, 2.0)
        P_l, P_u = p_bounds_for_band(p_rho, w_min, w_max)
        T_max, T_min = 2 * math.pi / w_max, 2 * math.pi / w_min
        breaks_g = [math.pi / (2 * w_max), math.pi / (2 * w_min),
                    3 * math.pi / (w_min + w_max)]
        ig, _ = quad(lambda x: math.exp(-p_rho * x) * envelope_g(x, w_min, w_max),
                     0.0, T_max, points=breaks_g, limit=200)
        breaks_h = [math.pi / (w_min + w_max), 3 * math.pi / (2 * w_max),
                    3 * math.pi / (2 * w_min)]
        ih, _ = quad(lambda x: math.exp(-p_rho * x) * envelope_h(x, w_min, w_max),
                     0.0, T_min, points=breaks_h, limit=200)
        Pu_ref = p_rho * ig / (1.0 - math.exp(-p_rho * T_max))
        T = T_max if ih < 0.0 else T_min
        Pl_ref = p_rho * ih / (1.0 - math.exp(-p_rho * T))
        assert abs(P_u - Pu_ref) < 1e-8 * max(1.0, abs(Pu_ref))
        assert abs(P_l - Pl_ref) < 1e-8 * max(1.0, abs(Pl_ref))
        assert P_l <= P_u + 1e-12


# nscr and the certificate ---------------------------------------------------

def test_nscr_fallback_value(dc_n30):
    dc = DerivedConstants(p=1.0, i_v=1.0, V_r=1.4, rho=1.0, P_inf=0.3,
                             alpha=0.4, beta=0.0, Gamma=1.4 * 1.3,
                             phi=math.atan2(1.0, 1.0), Lambda=0.0, omega_g=1.0)
    d = 1.2  # band-violating for these constants
    assert p_bounds(dc, d) == (0.0, 1.0)
    assert abs(sc.nscr(dc, d) - dc.V_r * (1.0 - dc.P_inf)) < 1e-14


def test_nscr_domain(dc_n30):
    with pytest.raises(ValueError):
        sc.nscr(dc_n30, 0.0)
    with pytest.raises(ValueError):
        sc.nscr(dc_n30, dc_n30.Gamma * 1.01)


def test_nscr_nonnegative_and_below_identity_for_n30(dc_n30):
    grid = certificate_grid(dc_n30.Gamma)
    values = np.array([sc.nscr(dc_n30, float(d)) for d in grid])
    assert np.all(values >= 0.0)
    assert np.all(values < grid)


def test_nscr_fails_for_n1(params_n1):
    dc = sc.derive_constants(params_n1)
    grid = np.geomspace(DEFAULT_GRID_FLOOR * dc.Gamma, dc.Gamma, 500)
    values = np.array([sc.nscr(dc, float(d)) for d in grid])
    assert np.any(values >= grid)


def test_nscr_right_continuous(dc_n30):
    rng = np.random.default_rng(35)
    for d in rng.uniform(1e-3, dc_n30.Gamma * 0.99, size=10):
        base = sc.nscr(dc_n30, float(d))
        diffs = [abs(sc.nscr(dc_n30, float(d) + eps) - base)
                 for eps in (1e-4, 1e-6, 1e-8)]
        assert diffs[-1] < 1e-6
        assert diffs[-1] <= diffs[0] + 1e-12


def test_nscr_vanishes_at_small_d(dc_n30):
    assert sc.nscr(dc_n30, 1e-8) < 1e-6


def test_check_certificate_500kw(params_n30):
    report = sc.check_certificate(params_n30)
    assert report.certified
    assert report.verdict == "certified-agas"
    assert report.margin > 0.0
    assert report.rel_margin > 1e-3
    assert bool(np.all(report.band_ok))
    assert report.hyperbolicity_ok
    assert len(report.d_grid) == 2000
    assert report.d_grid[-1] == sc.derive_constants(params_n30).Gamma


def test_check_certificate_n1_fails(params_n1):
    report = sc.check_certificate(params_n1)
    assert not report.certified
    assert report.verdict == "not-certified"


def test_check_certificate_large_bias_fails(params_n1):
    # |beta| >= 1: no equilibria and nscr(d) > d at small d.
    dc = sc.derive_constants(params_n1)
    T_m = params_n1.D_p * params_n1.omega_g - params_n1.m_if * dc.i_v * (
        -1.2 - dc.V_r * dc.P_inf
    )
    params = params_n1.replace(T_m=T_m)
    assert abs(sc.derive_constants(params).beta - 1.2) < 1e-9
    report = sc.check_certificate(params)
    assert not report.certified
    assert not report.hyperbolicity_ok
    small = report.d_grid < 0.1
    assert np.any(report.nscr_values[small] > report.d_grid[small])


def test_certificate_csv_format(params_n30):
    report = sc.check_certificate(params_n30)
    text = sc.certificate_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "d,nscr,omega_min_d,omega_max_d,band_ok"
    assert len(lines) == 1 + DEFAULT_GRID_POINTS
    first = lines[1].split(",")
    assert len(first) == 5
    assert float(first[0]) > 0.0
    assert first[4] in ("0", "1")


def _reference_certificate_csv(report):
    """Row-by-row formatting of every numpy scalar, as a reference."""
    lines = ["d,nscr,omega_min_d,omega_max_d,band_ok"]
    for d, v, lo, hi, ok in zip(report.d_grid, report.nscr_values, report.omega_min_d,
                                report.omega_max_d, report.band_ok):
        lines.append(f"{d:.17g},{v:.17g},{lo:.17g},{hi:.17g},{int(ok)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("design", ["params_n1", "params_n30"])
def test_certificate_csv_equals_reference_formatter(design, request):
    report = sc.check_certificate(request.getfixturevalue(design))
    assert sc.certificate_csv(report) == _reference_certificate_csv(report)


def test_demo_certificate_writes_csv(params_n1, params_n30, tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(sc.__file__))
    env = dict(os.environ, MPLBACKEND="Agg")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, os.path.join(root, "demos", "demo_certificate.py")],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    for n, params in ((1, params_n1), (30, params_n30)):
        expected = sc.certificate_csv(sc.check_certificate(params))
        assert (tmp_path / f"certificate_n{n}.csv").read_text() == expected


def test_certificate_report_dict(params_n30):
    report = sc.check_certificate(params_n30)
    doc = report.to_dict()
    assert doc["verdict"] == report.verdict
    assert doc["n_grid"] == DEFAULT_GRID_POINTS
    # The per-d arrays go to the CSV, one row per grid point.
    assert "nscr" not in doc
    assert len(sc.certificate_csv(report).splitlines()) == 1 + DEFAULT_GRID_POINTS


def test_certificate_grid_spacing():
    grid = certificate_grid(2.0)
    assert len(grid) == DEFAULT_GRID_POINTS == 2000
    assert grid[0] == pytest.approx(2e-6)
    assert grid[-1] == 2.0
    ratios = grid[1:] / grid[:-1]
    assert ratios == pytest.approx(np.full(len(ratios), ratios[0]), rel=1e-12)


def test_certificate_grid_is_fixed(params_n30):
    # The grid size is not an argument, so no caller can pick a coarser one.
    with pytest.raises(TypeError):
        sc.check_certificate(params_n30, n_points=2)
    with pytest.raises(TypeError):
        certificate_grid(2.0, 2)


def test_check_certificate_fails_design_a_coarse_grid_would_pass(spec_500kw):
    # nscr(d) >= d only for d in about [8.9e-3, 5.6e-2]*Gamma: 268 of the
    # 2000 points fail, and a grid of 2 points would miss every one.
    spec = dataclasses.replace(spec_500kw, d_p=2.5, H_seconds=5.0)
    params = sc.apply_virtual_inductor(sc.size_parameters(spec), 30.0)
    report = sc.check_certificate(params)
    assert report.verdict == "not-certified"
    assert report.rel_margin < 0.0
    failing = report.nscr_values >= report.d_grid
    assert failing.sum() == 268
    d_fail = report.d_grid[failing] / report.d_grid[-1]
    assert 8e-3 < d_fail.min() and d_fail.max() < 6e-2


def test_check_certificate_refuses_a_margin_below_grid_resolution(spec_500kw):
    # At n = 18.325 every grid point passes, but the relative margin is
    # 6.43e-4, below REL_MARGIN_THRESHOLD, so the design is not certified
    # and the report says why.
    params = sc.apply_virtual_inductor(sc.size_parameters(spec_500kw), 18.325)
    report = sc.check_certificate(params)
    assert bool(np.all(report.nscr_values < report.d_grid))
    assert bool(np.all(report.band_ok)) and report.hyperbolicity_ok
    assert 0.0 < report.rel_margin < REL_MARGIN_THRESHOLD
    assert report.rel_margin == pytest.approx(6.43e-4, abs=1e-6)
    assert report.verdict == "not-certified"
    assert report.notes == [
        f"grid-resolution: relative margin {report.rel_margin:.3e} below threshold "
        "1.0e-03; condition may fail between grid points"]


@pytest.mark.parametrize("design", ["params_n1", "params_n30"])
def test_check_certificate_equals_pointwise_nscr(design, request):
    # n=1 takes the (0, 1) fallback on part of the grid, n=30 the closed
    # form everywhere; the grid pass and nscr(d) must be one computation.
    params = request.getfixturevalue(design)
    dc = sc.derive_constants(params)
    report = sc.check_certificate(params)
    assert (not np.all(report.band_ok)) == (design == "params_n1")
    for d, value in zip(report.d_grid, report.nscr_values):
        assert value == sc.nscr(dc, float(d))


def test_p_bounds_for_band_arrays_equal_scalar_calls():
    rng = np.random.default_rng(36)
    p_rho = 1.3
    w_min = rng.uniform(0.2, 30.0, size=50)
    w_max = w_min * rng.uniform(1.0, 2.0, size=50)
    P_l, P_u = p_bounds_for_band(p_rho, w_min, w_max)
    for k in range(len(w_min)):
        assert (P_l[k], P_u[k]) == p_bounds_for_band(p_rho, float(w_min[k]), float(w_max[k]))
    w_max[17] = 2.5 * w_min[17]
    with pytest.raises(ValueError):
        p_bounds_for_band(p_rho, w_min, w_max)


def test_certificate_soundness_against_simulation(params_n1):
    # An independently certified variant (stronger droop at fixed actual
    # torque raises the damping without moving the bias) must have every
    # sampled trajectory converge.
    base = sc.apply_virtual_inductor(params_n1, 30.0)
    T_a = base.T_m - base.D_p * base.omega_g
    params = base.replace(D_p=300.0, T_m=T_a + 300.0 * base.omega_g)
    dc = sc.derive_constants(params)
    assert abs(dc.beta - sc.derive_constants(base).beta) < 1e-9
    report = sc.check_certificate(params)
    assert report.certified
    stats = sc.basin_sample(params, n=15, seed=77)
    assert stats.converged_stable == 15
