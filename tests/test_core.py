import json
import math

import numpy as np
import pytest

import swingcert as sc
from swingcert.core import TWO_PI, residual_scale, scaled_residual

from conftest import LINE_V, OMEGA_G, agrees_with_printed


def _valid_kwargs():
    return dict(J=20.26, D_p=168.87, T_m=54640.0, m_if=51.67,
                L_s=0.82506, R_s=32.4, V=LINE_V, omega_g=OMEGA_G)


@pytest.mark.parametrize("field", ["J", "D_p", "T_m", "m_if", "L_s", "R_s", "V", "omega_g"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_parameter_validation_names_field(field, bad):
    kwargs = _valid_kwargs()
    kwargs[field] = bad
    with pytest.raises(sc.ParameterError, match=field):
        sc.SgParameters(**kwargs)


def test_parameter_dict_round_trip():
    params = sc.SgParameters(**_valid_kwargs())
    again = sc.SgParameters.from_dict(json.loads(json.dumps(params.to_dict())))
    assert again == params


def test_parameter_dict_rejects_unknown_and_missing():
    params = sc.SgParameters(**_valid_kwargs())
    data = params.to_dict()
    data["bogus"] = 1.0
    with pytest.raises(sc.ParameterError, match="bogus"):
        sc.SgParameters.from_dict(data)
    del data["bogus"]
    del data["L_s"]
    with pytest.raises(sc.ParameterError, match="L_s"):
        sc.SgParameters.from_dict(data)


def test_parameter_dict_values_must_be_numbers():
    data = sc.SgParameters(**_valid_kwargs()).to_dict()
    # A string that float() parses is a number.
    assert sc.SgParameters.from_dict({**data, "J": str(data["J"])}) == \
        sc.SgParameters.from_dict(data)
    for value in (None, False, [1.0], {"J": 1.0}, "1.0 kg", 10**400):
        with pytest.raises(sc.ParameterError, match="'J' must be a number"):
            sc.SgParameters.from_dict({**data, "J": value})


def test_derived_constants_500kw_n30(params_n30):
    dc = sc.derive_constants(params_n30)
    for value, printed in [
        (dc.p, "39.27"), (dc.i_v, "39.78"), (dc.alpha, "0.83"),
        (dc.beta, "0.58"), (dc.rho, "0.1"), (dc.V_r, "1.57"),
        (dc.P_inf, "0.12"),
    ]:
        assert agrees_with_printed(value, printed), (value, printed)
    assert dc.Gamma == (1.0 + dc.P_inf) * dc.V_r
    assert 0.0 < dc.phi < math.pi / 2
    assert 0.0 < dc.P_inf <= 0.5


def test_p_inf_vanishes_with_resistance(params_n30):
    values = []
    for scale in (1.0, 1e-3, 1e-6):
        dc = sc.derive_constants(params_n30.replace(R_s=params_n30.R_s * scale))
        values.append(dc.P_inf)
        assert abs(dc.P_inf - dc.p * OMEGA_G / (OMEGA_G**2 + dc.p**2)) < 1e-15
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-6


def test_lambda_equals_minus_beta_for_random_params():
    rng = np.random.default_rng(42)
    for _ in range(50):
        params = sc.SgParameters(
            J=rng.uniform(0.5, 100), D_p=rng.uniform(1, 500),
            T_m=rng.uniform(100, 1e5), m_if=rng.uniform(1, 100),
            L_s=rng.uniform(1e-3, 2.0), R_s=rng.uniform(0.01, 50),
            V=rng.uniform(100, 2e4), omega_g=rng.uniform(50, 500),
        )
        dc = sc.derive_constants(params)
        scale = max(abs(dc.Lambda), abs(dc.beta), 1.0)
        assert abs(dc.Lambda + dc.beta) <= 1e-12 * scale


def _park(theta, x_abc):
    """(d, q, 0) components of three-phase ``x_abc`` at rotor angle theta,
    by the power-invariant Park matrix (unitary, inverse = transpose)."""
    a, b = theta - TWO_PI / 3.0, theta + TWO_PI / 3.0
    U = math.sqrt(2.0 / 3.0) * np.array([
        [math.cos(theta), math.cos(a), math.cos(b)],
        [-math.sin(theta), -math.sin(a), -math.sin(b)],
        [1.0 / math.sqrt(2.0)] * 3,
    ])
    return U @ np.asarray(x_abc, dtype=float)


def test_park_of_balanced_grid_voltage():
    rng = np.random.default_rng(9)
    for _ in range(20):
        theta_g = rng.uniform(-10, 10)
        delta = rng.uniform(-math.pi, math.pi)
        V = 10392.3
        v_abc = math.sqrt(2.0 / 3.0) * V * np.array(
            [math.sin(theta_g), math.sin(theta_g - TWO_PI / 3), math.sin(theta_g + TWO_PI / 3)]
        )
        v_d, v_q, v_0 = _park(delta + theta_g, v_abc)
        assert abs(v_d - (-V * math.sin(delta))) < 1e-8 * V
        assert abs(v_q - (-V * math.cos(delta))) < 1e-8 * V
        assert abs(v_0) < 1e-8 * V


def test_emf_zero_speed():
    assert np.all(sc.emf(0.0, 0.0, 51.67) == 0.0)


def test_emf_phases_sum_to_zero():
    rng = np.random.default_rng(10)
    for _ in range(50):
        theta = rng.uniform(-10, 10)
        omega = rng.uniform(-500, 500)
        e = sc.emf(theta, omega, 51.67)
        scale = max(1.0, np.max(np.abs(e)))
        assert abs(e.sum()) < 1e-9 * scale


def test_emf_in_rotor_frame(params_n30):
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = rng.uniform(-10, 10)
        omega = rng.uniform(-500, 500)
        e_dq0 = _park(theta, sc.emf(theta, omega, params_n30.m_if))
        expected = np.array([0.0, -params_n30.m_if * omega, 0.0])
        assert np.max(np.abs(e_dq0 - expected)) < 1e-9 * max(1.0, abs(omega) * params_n30.m_if)


def test_model_rhs_delta_component_exact(params_n30):
    rhs = sc.full_rhs(params_n30)
    rng = np.random.default_rng(12)
    for _ in range(50):
        y = rng.normal(scale=[100, 100, 400, 5]).tolist()
        assert rhs(0.0, y)[3] == y[2] - params_n30.omega_g


def test_model_rhs_two_pi_equivariance(params_n30):
    # 0.5 + 2*pi is exact in binary64, so the shifted evaluation must agree
    # bitwise thanks to the remainder-based angle reduction.
    rhs = sc.full_rhs(params_n30)
    assert rhs(0.0, [12.0, -7.0, 320.0, 0.5]) == rhs(0.0, [12.0, -7.0, 320.0, 0.5 + TWO_PI])
    rng = np.random.default_rng(13)
    for _ in range(30):
        y = rng.normal(scale=[100, 100, 400, 5]).tolist()
        shifted = y[:3] + [y[3] + TWO_PI]
        assert np.allclose(rhs(0.0, y), rhs(0.0, shifted), rtol=1e-12, atol=1e-9)


def test_model_rhs_vanishes_at_equilibria(params_n30, equilibria_n30):
    for pt in equilibria_n30:
        assert scaled_residual(pt.state, params_n30) < 1e-9


def test_storage_energy_zero_state(params_n30):
    W, Wdot, C = sc.storage_energy(sc.SgState(0, 0, 0, 0), params_n30)
    assert W == 0.0
    assert Wdot == 0.0
    assert Wdot <= C


def test_storage_energy_dissipation_bound(params_n30):
    rng = np.random.default_rng(14)
    _, _, C = sc.storage_energy(sc.SgState(0, 0, 0, 0), params_n30)
    for _ in range(1000):
        state = sc.SgState(*rng.normal(scale=[200, 200, 800, 10]))
        _, Wdot, _ = sc.storage_energy(state, params_n30)
        assert Wdot <= C


def test_storage_energy_matches_finite_differences(params_n30):
    config = sc.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, t_end=0.05,
                                 n_samples=5001)
    traj = sc.simulate_full(params_n30, sc.SgState(10.0, -25.0, 330.0, 0.8), config)
    W = np.empty(len(traj.times))
    Wdot = np.empty(len(traj.times))
    for i, row in enumerate(traj.states):
        W[i], Wdot[i], _ = sc.storage_energy(sc.SgState(*row), params_n30)
    dt = traj.times[1] - traj.times[0]
    fd = (W[2:] - W[:-2]) / (2.0 * dt)
    assert np.max(np.abs(fd - Wdot[1:-1])) < 1e-4 * np.max(np.abs(Wdot))


def test_residual_scale_positive(params_n30):
    assert np.all(residual_scale(params_n30) > 0)
