import math

import numpy as np
import pytest
from scipy.integrate import simpson

import swingcert as sc
from swingcert.simulator import IntegratorConfig, combined_full_ese_rhs, integrate
from swingcert.swing import gamma_along, pendulum_rhs_fn, reconstruct_iq


def _random_states(params, n, seed):
    rng = np.random.default_rng(seed)
    box = sc.simulator.default_basin_box(params)
    return [sc.SgState(*[rng.uniform(lo, hi) for lo, hi in box]) for _ in range(n)]


def test_ese_rhs_at_time_zero(params_n30):
    dc = sc.derive_constants(params_n30)
    state0 = sc.SgState(14.0, -30.0, 320.0, 0.6)
    ese0, init = sc.ese_from_full(state0, params_n30)
    d = sc.ese_rhs_fn(params_n30, init)(0.0, ese0.as_array().tolist())
    # Empty memory: the convolution term contributes nothing at t=0 and
    # f(0) = i_q(0) - i_v cos(delta(0) + phi).
    f0 = state0.i_q - dc.i_v * math.cos(state0.delta + dc.phi)
    expected = (
        params_n30.T_m
        - params_n30.D_p * params_n30.omega_g
        + params_n30.m_if * f0
        - params_n30.D_p * ese0.eta_dot
        - params_n30.m_if * dc.i_v * math.sin(ese0.eta)
    ) / params_n30.J
    assert d[0] == ese0.eta_dot
    assert d[2] == 1.0
    assert d[3] == 0.0
    assert abs(d[1] - expected) < 1e-9 * max(1.0, abs(expected))


def test_full_ese_equivalence_tight(params_n30):
    for state in _random_states(params_n30, 3, seed=101):
        dev = sc.cross_validate(params_n30, state, t_end=10.0)
        assert dev < 1e-5


def test_full_ese_equivalence_near_rest(params_n30, equilibria_n30):
    stable = [pt for pt in equilibria_n30 if pt.classification.value == "stable"][0]
    initial = sc.SgState(0.0, 0.0, params_n30.omega_g, stable.state.delta)
    assert sc.cross_validate(params_n30, initial, t_end=10.0) < 1e-8


def test_iq_reconstruction(params_n30):
    state0 = sc.SgState(40.0, 40.0, 350.0, -1.0)
    rhs, y0 = combined_full_ese_rhs(params_n30, state0)
    traj = integrate(rhs, y0, IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13,
                                               t_end=2.0, n_samples=801))
    init = (state0.i_d, state0.i_q, state0.delta)
    iq_sim = traj.states[:, 1]
    iq_rec = reconstruct_iq(traj.times, traj.states[:, 4:], params_n30, init)
    assert np.max(np.abs(iq_rec - iq_sim)) < 1e-5 * np.max(np.abs(iq_sim))


def test_currents_match_variation_of_constants_oracle(params_n30):
    # Independent reconstruction of (i_d, i_q) at the final time from the
    # state-transition rotation and Simpson quadrature over the samples.
    state0 = sc.SgState(40.0, 40.0, 350.0, -1.0)
    config = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, t_end=1.0, n_samples=20001)
    traj = sc.simulate_full(params_n30, state0, config)
    t = traj.times
    omega = traj.column("omega")
    delta = traj.column("delta")
    p = params_n30.R_s / params_n30.L_s
    theta = delta - delta[0] + params_n30.omega_g * t  # accumulated rotor phase
    u1 = params_n30.V * np.sin(delta) / params_n30.L_s
    u2 = (params_n30.V * np.cos(delta) - params_n30.m_if * omega) / params_n30.L_s
    phase = theta[-1] - theta
    kernel = np.exp(-p * (t[-1] - t))
    f1 = kernel * (np.cos(phase) * u1 + np.sin(phase) * u2)
    f2 = kernel * (-np.sin(phase) * u1 + np.cos(phase) * u2)
    i_d = math.exp(-p * t[-1]) * (
        math.cos(theta[-1]) * state0.i_d + math.sin(theta[-1]) * state0.i_q
    ) + simpson(f1, x=t)
    i_q = math.exp(-p * t[-1]) * (
        -math.sin(theta[-1]) * state0.i_d + math.cos(theta[-1]) * state0.i_q
    ) + simpson(f2, x=t)
    scale = max(np.abs(traj.states[-1, :2]))
    assert abs(i_d - traj.states[-1, 0]) < 1e-6 * scale
    assert abs(i_q - traj.states[-1, 1]) < 1e-6 * scale


def test_forcing_gamma_at_time_zero(params_n30):
    dc = sc.derive_constants(params_n30)
    state0 = sc.SgState(5.0, 10.0, 300.0, -0.4)
    ese0, init = sc.ese_from_full(state0, params_n30)
    (gamma,), (P,) = gamma_along([0.0], [ese0.as_array()], params_n30, init)
    assert P == 0.0
    # At t = 0 the accumulated phase is zero, so f(0) = i_q(0) - i_v cos(delta(0) + phi).
    f0 = state0.i_q - dc.i_v * math.cos(state0.delta + dc.phi)
    expected = f0 / dc.i_v + dc.V_r * dc.P_inf
    assert abs(gamma - expected) < 1e-12 * max(1.0, abs(expected))


def test_memory_term_bounded(params_n30):
    dc = sc.derive_constants(params_n30)
    config = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, t_end=8.0, n_samples=4001)
    for state in _random_states(params_n30, 3, seed=55):
        traj = sc.simulate_ese(params_n30, state, config)
        init = (state.i_d, state.i_q, state.delta)
        _, P = gamma_along(traj.times, traj.states, params_n30, init)
        assert np.max(np.abs(P)) < 1.0
        w_mag = np.hypot(traj.states[:, 2], traj.states[:, 3])
        bound = (1.0 - np.exp(-dc.p * traj.times)) / dc.p
        assert np.all(w_mag <= bound * (1.0 + 1e-9) + 1e-12)


def test_gamma_bounded_by_big_gamma(params_n30):
    dc = sc.derive_constants(params_n30)
    config = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, t_end=8.0, n_samples=4001)
    for state in _random_states(params_n30, 3, seed=56):
        traj = sc.simulate_ese(params_n30, state, config)
        gamma, _ = gamma_along(traj.times, traj.states, params_n30,
                               (state.i_d, state.i_q, state.delta))
        tail = traj.times > 5.0 / dc.p
        assert np.max(np.abs(gamma[tail])) <= dc.Gamma


def test_memory_term_settles_to_p_inf(params_n30, equilibria_n30):
    dc = sc.derive_constants(params_n30)
    stable = [pt for pt in equilibria_n30 if pt.classification.value == "stable"][0]
    config = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=1.0, n_samples=501)
    traj = sc.simulate_ese(params_n30, stable.state, config)
    P_end = dc.p * traj.states[-1, 3]
    assert abs(P_end - dc.P_inf) < 1e-6


def test_pendulum_equilibrium(params_n30):
    lam = 0.6
    pp = sc.PendulumParams(alpha=1.0, beta=math.sin(lam))
    psi_dot, psi_dd = pendulum_rhs_fn(pp)(0.0, (lam, 0.0))
    assert psi_dot == 0.0
    assert abs(psi_dd) < 1e-15


def test_pendulum_requires_positive_damping():
    with pytest.raises(ValueError):
        sc.PendulumParams(alpha=0.0, beta=0.1)


def test_pendulum_velocity_bound():
    rng = np.random.default_rng(77)
    for _ in range(5):
        alpha = rng.uniform(0.3, 2.0)
        beta = rng.uniform(-0.8, 0.8)
        d = rng.uniform(0.05, 0.5)
        pp = sc.PendulumParams(alpha=alpha, beta=beta,
                               forcing=lambda t, d=d: 0.99 * d * math.sin(t))
        y0 = [rng.uniform(-math.pi, math.pi), rng.uniform(-3, 3)]
        traj = integrate(pendulum_rhs_fn(pp), y0,
                         IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=60.0,
                                          n_samples=3001))
        bound = abs(y0[1]) + (abs(beta) + d + 1.0) / alpha
        assert np.max(np.abs(traj.states[:, 1])) < bound


def test_pendulum_energy_derivative():
    alpha, beta, d = 0.8, 0.2, 0.3
    pp = sc.PendulumParams(alpha=alpha, beta=beta,
                           forcing=lambda t: 0.99 * d * math.sin(t))
    traj = integrate(pendulum_rhs_fn(pp), [1.0, 0.5],
                     IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, t_end=5.0,
                                      n_samples=20001))
    psi = traj.states[:, 0]
    psi_dot = traj.states[:, 1]
    E = sc.pendulum_energy(psi, psi_dot)
    dt = traj.times[1] - traj.times[0]
    fd = (E[2:] - E[:-2]) / (2 * dt)
    gamma = 0.99 * d * np.sin(traj.times)
    expected = -alpha * psi_dot**2 + (beta + gamma) * psi_dot
    assert np.max(np.abs(fd - expected[1:-1])) < 1e-4 * np.max(np.abs(expected))


def test_pendulum_energy_values():
    assert sc.pendulum_energy(0.0, 0.0) == 0.0
    assert abs(sc.pendulum_energy(math.pi, 0.0) - 2.0) < 1e-15
    rng = np.random.default_rng(78)
    psi = rng.uniform(-10, 10, size=100)
    psi_dot = rng.uniform(-5, 5, size=100)
    assert np.all(sc.pendulum_energy(psi, psi_dot) >= 0.0)


def test_pendulum_coordinate_round_trip(dc_n30, params_n30):
    rng = np.random.default_rng(79)
    for _ in range(25):
        state = sc.SgState(0.0, 0.0, rng.uniform(0, 700), rng.uniform(-10, 10))
        psi, psi_prime = sc.to_pendulum_coords(state, dc_n30)
        delta, omega = sc.from_pendulum_coords(psi, psi_prime, dc_n30)
        assert abs(delta - state.delta) < 1e-12
        assert abs(omega - state.omega) < 1e-9 * max(1.0, abs(state.omega))


def test_pendulum_coords_at_equilibrium(dc_n30, params_n30, equilibria_n30):
    stable = [pt for pt in equilibria_n30 if pt.classification.value == "stable"][0]
    psi, psi_prime = sc.to_pendulum_coords(stable.state, dc_n30)
    assert psi_prime == 0.0


def test_stable_rest_angle_balances_bias(params_n30, dc_n30, equilibria_n30):
    # Steady state of the normalised pendulum: sin(psi) = beta + gamma_ss,
    # checked on the simulated tail where gamma has settled.
    stable = [pt for pt in equilibria_n30 if pt.classification.value == "stable"][0]
    initial = sc.SgState(stable.state.i_d * 1.05, stable.state.i_q * 0.95,
                         params_n30.omega_g + 5.0, stable.state.delta + 0.2)
    config = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=8.0, n_samples=4001)
    traj = sc.simulate_ese(params_n30, initial, config)
    gamma, _ = gamma_along(traj.times, traj.states, params_n30,
                           (initial.i_d, initial.i_q, initial.delta))
    tail = traj.times > 6.0
    psi_tail = traj.states[tail, 0]
    residual = np.sin(psi_tail) - (dc_n30.beta + gamma[tail])
    assert np.max(np.abs(residual)) < 1e-6
