import math

import numpy as np
from scipy.integrate import simpson

import swingcert as sc
from swingcert.simulator import IntegratorConfig, combined_full_ese_rhs, integrate
from swingcert.swing import eta_from_delta, gamma_along


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
    # The ESE implies the full model's quadrature current:
    # i_q = -i_v sin(eta) - (m_if / L_s) P + e^{-p t} f(t), with e^{-p t} f
    # read back from gamma = e^{-p t} f / i_v + V_r (P_inf - P).
    dc = sc.derive_constants(params_n30)
    state0 = sc.SgState(40.0, 40.0, 350.0, -1.0)
    rhs, y0 = combined_full_ese_rhs(params_n30, state0)
    traj = integrate(rhs, y0, IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13,
                                               t_end=2.0, n_samples=801))
    init = (state0.i_d, state0.i_q, state0.delta)
    iq_sim = traj.states[:, 1]
    gamma, P = gamma_along(traj.times, traj.states[:, 4:], params_n30, init)
    forced = dc.i_v * (gamma - dc.V_r * (dc.P_inf - P))
    iq_rec = -dc.i_v * np.sin(traj.states[:, 4]) - params_n30.m_if / params_n30.L_s * P + forced
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


def _pendulum_run(params, state, config):
    """psi' = rho eta', psi, the pendulum forcing gamma and the constants
    along an ESE run, in the normal form psi'' + alpha psi' + sin(psi) =
    beta + gamma(s) with s = t / rho."""
    dc = sc.derive_constants(params)
    traj = sc.simulate_ese(params, state, config)
    gamma, _ = gamma_along(traj.times, traj.states, params,
                           (state.i_d, state.i_q, state.delta))
    return traj, dc.rho * traj.states[:, 1], traj.states[:, 0], gamma, dc


def test_pendulum_equilibrium(params_n30, params_n1, params_rs216, params_dp15):
    # Every equilibrium of the full model is a rest point of its pendulum
    # normal form: sin(psi) = beta.
    for params in (params_n30, params_n1, params_rs216, params_dp15):
        dc = sc.derive_constants(params)
        for pt in sc.solve_equilibria(params):
            assert abs(math.sin(eta_from_delta(pt.state.delta, dc)) - dc.beta) < 1e-12


def test_pendulum_coords_at_equilibrium(params_n30, params_n1, params_rs216, params_dp15):
    # The pendulum velocity psi' = rho (omega - omega_g) is exactly zero at
    # every equilibrium.
    for params in (params_n30, params_n1, params_rs216, params_dp15):
        dc = sc.derive_constants(params)
        for pt in sc.solve_equilibria(params):
            assert dc.rho * (pt.state.omega - params.omega_g) == 0.0


def test_pendulum_velocity_bound(params_n30, params_rs216):
    # The velocity trap of a damped forced pendulum: |psi'| never exceeds
    # |psi'(0)| + (|beta| + sup|gamma| + 1) / alpha.
    config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=6.0, n_samples=3001)
    for params in (params_n30, params_rs216):
        for state in _random_states(params, 3, seed=77):
            _, psi_dot, _, gamma, dc = _pendulum_run(params, state, config)
            bound = abs(psi_dot[0]) + (abs(dc.beta) + np.max(np.abs(gamma)) + 1.0) / dc.alpha
            assert np.max(np.abs(psi_dot)) < bound


def test_pendulum_energy_derivative(params_n30):
    # Along an ESE run, E = psi'^2/2 + 1 - cos(psi) changes at the rate the
    # normal form gives: dE/ds = -alpha psi'^2 + (beta + gamma) psi'.
    state = sc.SgState(5.0, -5.0, 320.0, 0.3)
    config = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, t_end=0.5, n_samples=20001)
    traj, psi_dot, psi, gamma, dc = _pendulum_run(params_n30, state, config)
    E = 0.5 * psi_dot**2 + (1.0 - np.cos(psi))
    ds = (traj.times[1] - traj.times[0]) / dc.rho
    fd = (E[2:] - E[:-2]) / (2 * ds)
    expected = -dc.alpha * psi_dot**2 + (dc.beta + gamma) * psi_dot
    assert np.max(np.abs(fd - expected[1:-1])) < 1e-4 * np.max(np.abs(expected))


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
