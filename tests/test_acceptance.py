"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion lines
bypass output capture, so they appear on the terminal either way.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import swingcert as sc
from swingcert.certificate import p_bounds_for_band
from swingcert.simulator import IntegratorConfig, PeriodicOrbit
from swingcert.swing import gamma_along

from conftest import agrees_with_printed


@contextmanager
def criterion(capsys, number, title):
    def announce(outcome):
        with capsys.disabled():
            print(f"[acceptance] {number:2d} {title}: {outcome}", flush=True)

    try:
        yield
    except BaseException:
        announce("FAIL")
        raise
    announce("PASS")


def test_criterion_01_design_reproduction(spec_500kw, capsys):
    with criterion(capsys, 1, "500 kW parameter sizing"):
        sc.size_parameters(spec_500kw)  # warm-up
        t0 = time.perf_counter()
        params = sc.size_parameters(spec_500kw)
        elapsed = time.perf_counter() - t0
        for value, printed in [
            (params.D_p, "168.87"), (params.T_m, "54640"), (params.J, "20.26"),
            (params.L_s, "0.0275"), (params.R_s, "1.08"), (params.m_if, "33.11"),
        ]:
            assert agrees_with_printed(value, printed), (value, printed)
        assert elapsed < 1e-3


def test_criterion_02_derived_constants(params_n30, capsys):
    with criterion(capsys, 2, "derived constants (n=30)"):
        sc.derive_constants(params_n30)  # warm-up
        t0 = time.perf_counter()
        dc = sc.derive_constants(params_n30)
        elapsed = time.perf_counter() - t0
        for value, printed in [
            (dc.p, "39.27"), (dc.i_v, "39.78"), (dc.alpha, "0.83"),
            (dc.beta, "0.58"), (dc.rho, "0.1"), (dc.V_r, "1.57"),
            (dc.P_inf, "0.12"),
        ]:
            assert agrees_with_printed(value, printed), (value, printed)
        assert elapsed < 1e-3


def test_criterion_03_certificate_pass_fail_pair(params_n30, params_n1, capsys):
    with criterion(capsys, 3, "certificate verdicts (n=30 pass, n=1 fail)"):
        t0 = time.perf_counter()
        report30 = sc.check_certificate(params_n30)
        t30 = time.perf_counter() - t0
        t0 = time.perf_counter()
        report1 = sc.check_certificate(params_n1)
        t1 = time.perf_counter() - t0
        assert report30.certified
        assert np.all(report30.nscr_values < report30.d_grid)
        assert np.all(report30.band_ok)
        assert report30.margin > 0.0
        assert not report1.certified
        assert t30 < 1.0 and t1 < 1.0


def test_criterion_04a_periodic_orbit(params_rs216, capsys):
    with criterion(capsys, 4, "a: periodic orbit for the doubled-resistor variant"):
        t0 = time.perf_counter()
        config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=20.0,
                                  n_samples=20001)
        traj = sc.simulate_full(params_rs216, sc.SgState(0.0, 0.0, 0.0, 0.0),
                                config)
        verdict = sc.detect_convergence(traj, sc.solve_equilibria(params_rs216),
                                        params=params_rs216)
        elapsed = time.perf_counter() - t0
        assert isinstance(verdict, PeriodicOrbit)
        assert abs(verdict.period - 0.16) <= 0.02
        assert verdict.omega_below_grid is True
        assert elapsed < 30.0


def test_criterion_04b_weak_droop_all_unstable(params_dp15, capsys):
    with criterion(capsys, 4, "b: weak-droop variant has only unstable equilibria"):
        t0 = time.perf_counter()
        points = sc.solve_equilibria(params_dp15)
        elapsed = time.perf_counter() - t0
        assert len(points) == 2
        assert all(pt.classification.value == "unstable" for pt in points)
        assert elapsed < 30.0


def test_criterion_05_ese_equivalence(params_n30, capsys):
    with criterion(capsys, 5, "swing-reduction equivalence over 10 s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240817)
        box = sc.simulator.default_basin_box(params_n30)
        deviations = []
        for _ in range(20):
            initial = sc.SgState(*[rng.uniform(lo, hi) for lo, hi in box])
            deviations.append(sc.cross_validate(params_n30, initial, t_end=10.0,
                                                rel_tol=1e-9, abs_tol=1e-11))
        elapsed = time.perf_counter() - t0
        assert max(deviations) < 1e-4
        assert all(d < 1e-5 for d in deviations[:3])  # tight-tolerance bound
        assert elapsed < 60.0


def test_criterion_06_a0_closed_form(params_n30, params_n1, params_rs216,
                                     params_dp15, capsys):
    with criterion(capsys, 6, "constant characteristic coefficient closed form"):
        sets = [params_n30, params_n1, params_rs216, params_dp15]
        rng = np.random.default_rng(6)
        for scale in rng.uniform(0.5, 2.0, size=4):
            sets.append(params_n30.replace(J=params_n30.J * scale,
                                           D_p=params_n30.D_p * scale))
        checked = 0
        for params in sets:
            for pt in sc.solve_equilibria(params):
                ref = sc.a0_closed_form(params, pt.state.delta)
                assert abs(pt.char_coeffs[3] - ref) <= 1e-10 * abs(ref)
                checked += 1
        assert checked >= 8


def _quad_envelope_integral(p_rho, pieces):
    """Adaptive quadrature of e^{-p rho tau} times a piecewise sinusoid,
    one quad call per smooth piece: (omega, phase, tau_lo, tau_hi)."""
    total = 0.0
    for omega, phase, lo, hi in pieces:
        val, _ = quad(
            lambda x: math.exp(-p_rho * x) * math.sin(omega * x + phase),
            lo, hi, epsabs=1e-12, epsrel=1e-12,
        )
        total += val
    return total


def test_criterion_07_p_bound_oracle(capsys):
    with criterion(capsys, 7, "memory-term bounds match adaptive quadrature"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        for _ in range(100):
            p_rho = rng.uniform(0.05, 10.0)
            w_min = rng.uniform(0.2, 30.0)
            w_max = w_min * rng.uniform(1.0, 2.0)
            P_l, P_u = p_bounds_for_band(p_rho, w_min, w_max)
            T_max, T_min = 2 * math.pi / w_max, 2 * math.pi / w_min
            b1, b2 = math.pi / (2 * w_max), math.pi / (2 * w_min)
            b3 = 3 * math.pi / (w_min + w_max)
            ig = _quad_envelope_integral(p_rho, [
                (w_max, 0.0, 0.0, b1), (0.0, math.pi / 2, b1, b2),
                (w_min, 0.0, b2, b3), (w_max, 0.0, b3, T_max),
            ])
            c1 = math.pi / (w_min + w_max)
            c2, c3 = 3 * math.pi / (2 * w_max), 3 * math.pi / (2 * w_min)
            ih = _quad_envelope_integral(p_rho, [
                (w_min, 0.0, 0.0, c1), (w_max, 0.0, c1, c2),
                (0.0, -math.pi / 2, c2, c3), (w_min, 0.0, c3, T_min),
            ])
            Pu_ref = p_rho * ig / (1.0 - math.exp(-p_rho * T_max))
            T = T_max if ih < 0.0 else T_min
            Pl_ref = p_rho * ih / (1.0 - math.exp(-p_rho * T))
            assert abs(P_u - Pu_ref) < 1e-8 * max(1.0, abs(Pu_ref))
            assert abs(P_l - Pl_ref) < 1e-8 * max(1.0, abs(Pl_ref))
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0


def _confinement_failures(alpha, beta, d, n_grid=10, t_end=400.0):
    """Count grid initial states whose angle tail escapes both admissible
    interval families (rest band with slack, or the mirrored band)."""
    psi1, psi2 = math.asin(beta + d), math.asin(beta - d)  # the rest angles
    slack = 4.0 * d / alpha**2
    k = n_grid * n_grid
    psi0, dot0 = np.meshgrid(
        np.linspace(-math.pi, math.pi, n_grid, endpoint=False),
        np.linspace(-2.0, 2.0, n_grid),
    )
    y0 = np.concatenate([psi0.ravel(), dot0.ravel()])

    def rhs(t, y):
        psi, psi_dot = y[:k], y[k:]
        return np.concatenate(
            [psi_dot, -alpha * psi_dot - np.sin(psi) + beta + 0.99 * d * math.sin(t)]
        )

    # The grid is one numpy system of 2k states, so it runs on scipy's RK45
    # (the suite's reference integrator) rather than on the package's
    # integrator, whose stage arithmetic is on Python floats.
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="RK45", rtol=1e-8, atol=1e-10,
                    t_eval=np.linspace(0.0, t_end, 4001))
    assert sol.status == 0
    tail = sol.y[:k, sol.t >= 0.8 * t_end].T
    failures = 0
    for j in range(k):
        samples = tail[:, j]
        mid = 0.5 * (psi1 + psi2)
        m = round((float(np.mean(samples)) - mid) / (2 * math.pi))
        in_rest = np.all(
            (samples > 2 * m * math.pi + psi2 - slack)
            & (samples < 2 * m * math.pi + psi1 + slack)
        )
        mid2 = math.pi - mid
        m2 = round((float(np.mean(samples)) - mid2) / (2 * math.pi))
        in_mirror = np.all(
            (samples > (2 * m2 + 1) * math.pi - psi1)
            & (samples < (2 * m2 + 1) * math.pi - psi2)
        )
        if not (in_rest or in_mirror):
            failures += 1
    return failures


def test_criterion_08_pendulum_confinement(capsys):
    with criterion(capsys, 8, "forced-pendulum angle confinement"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(314)
        triples = []
        while len(triples) < 10:
            beta = rng.uniform(-0.6, 0.6)
            d = rng.uniform(0.08, min(0.35, 0.93 - abs(beta)))
            # |beta| + d <= 0.93, so both rest angles exist.
            psi1, psi2 = math.asin(beta + d), math.asin(beta - d)
            threshold = 2.0 * max(math.sin(abs(psi1) / 2), math.sin(abs(psi2) / 2))
            alpha = 1.25 * threshold + rng.uniform(0.3, 1.2)
            triples.append((alpha, beta, d))
        for alpha, beta, d in triples:
            assert _confinement_failures(alpha, beta, d) == 0, (alpha, beta, d)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0


def test_criterion_09_basin_sampling(params_n30, capsys):
    with criterion(capsys, 9, "100 sampled initial states converge (n=30)"):
        t0 = time.perf_counter()
        stats = sc.basin_sample(params_n30, n=100, seed=2024)
        elapsed = time.perf_counter() - t0
        assert stats.converged_stable == 100
        assert elapsed < 120.0


def test_criterion_10_bound_consistency(params_n30, dc_n30, capsys):
    with criterion(capsys, 10, "velocity and memory-term bounds along trajectories"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1010)
        box = sc.simulator.default_basin_box(params_n30)
        config = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, t_end=10.0,
                                  n_samples=5001)
        for _ in range(5):
            initial = sc.SgState(*[rng.uniform(lo, hi) for lo, hi in box])
            traj = sc.simulate_ese(params_n30, initial, config)
            gamma, P = gamma_along(traj.times, traj.states, params_n30,
                                   (initial.i_d, initial.i_q, initial.delta))
            measure = traj.times >= 1.0
            check = traj.times >= 7.0
            d = 1.05 * float(np.max(np.abs(gamma[measure]))) + 1e-9
            assert d < dc_n30.Gamma
            band = sc.velocity_band(dc_n30, d)
            P_l, P_u = sc.p_bounds(dc_n30, d)
            rho_omega = dc_n30.rho * (traj.states[:, 1] + params_n30.omega_g)
            assert np.all(rho_omega[check] > band.omega_min_d)
            assert np.all(rho_omega[check] < band.omega_max_d)
            assert np.all(P[check] >= P_l - 1e-3)
            assert np.all(P[check] <= P_u + 1e-3)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
