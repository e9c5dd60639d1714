import math

import numpy as np
import pytest

import swingcert as sc
from swingcert.core import ParameterError

from conftest import LINE_V, OMEGA_G, agrees_with_printed


def test_500kw_sizing(spec_500kw, params_n1):
    for value, printed in [
        (params_n1.D_p, "168.87"), (params_n1.T_m, "54640"),
        (params_n1.J, "20.26"), (params_n1.L_s, "0.0275"),
        (params_n1.R_s, "1.08"), (params_n1.m_if, "33.11"),
    ]:
        assert agrees_with_printed(value, printed), (value, printed)


def test_virtual_inductor_500kw(params_n1):
    p30 = sc.apply_virtual_inductor(params_n1, 30.0)
    assert agrees_with_printed(p30.L_s, "0.82506")
    assert agrees_with_printed(p30.R_s, "32.4")
    assert agrees_with_printed(p30.m_if, "51.67")
    # untouched fields
    assert p30.J == params_n1.J
    assert p30.D_p == params_n1.D_p
    assert p30.T_m == params_n1.T_m
    assert p30.V == params_n1.V


def test_actual_torque_independent_of_droop(spec_500kw):
    base = sc.size_parameters(spec_500kw)
    doubled = sc.size_parameters(
        sc.NominalSpec(**{**spec_500kw.to_dict(), "d_p": 2 * spec_500kw.d_p})
    )
    assert abs(doubled.D_p - 0.5 * base.D_p) < 1e-9 * base.D_p
    T_a = spec_500kw.P_n / spec_500kw.omega_g
    for params in (base, doubled):
        assert abs((params.T_m - params.D_p * params.omega_g) - T_a) < 1e-9 * T_a


def test_inertia_linear_in_h(spec_500kw):
    h12 = sc.size_parameters(
        sc.NominalSpec(**{**spec_500kw.to_dict(), "H_seconds": 12.0})
    )
    base = sc.size_parameters(spec_500kw)
    assert abs(h12.J - 6.0 * base.J) < 1e-9 * base.J


def test_sizing_reconstruction_invariants(spec_500kw):
    params = sc.size_parameters(spec_500kw)
    V_rms = spec_500kw.V_rms
    I_rms = spec_500kw.I_rms
    assert abs((params.J * spec_500kw.omega_g**2 / 2) / spec_500kw.P_n
               - spec_500kw.H_seconds) < 1e-12 * spec_500kw.H_seconds
    assert abs(spec_500kw.omega_g * params.L_s * I_rms / V_rms
               - spec_500kw.L_drop_pct / 100.0) < 1e-12
    assert abs(params.R_s * I_rms / V_rms - spec_500kw.R_drop_pct / 100.0) < 1e-12


def test_field_flux_cases(spec_500kw):
    # The field flux is fitted by sizing and re-fitted by the virtual inductor.
    base = sc.size_parameters(spec_500kw)
    assert agrees_with_printed(base.m_if, "33.11")
    assert agrees_with_printed(sc.apply_virtual_inductor(base, 30.0).m_if, "51.67")
    # zero-drop limit: grid-matched EMF
    tiny = sc.NominalSpec(**{**spec_500kw.to_dict(), "L_drop_pct": 1e-10})
    limiting = sc.size_parameters(tiny).m_if
    expected = math.sqrt(3.0) * spec_500kw.V_rms / spec_500kw.omega_g
    assert abs(limiting - expected) < 1e-6 * expected
    with pytest.raises(ParameterError):
        sc.NominalSpec(**{**spec_500kw.to_dict(), "L_drop_pct": 0.0})


def test_virtual_inductor_identity(params_n1):
    same = sc.apply_virtual_inductor(params_n1, 1.0)
    assert same == params_n1


def test_virtual_inductor_preserves_p(params_n1):
    p30 = sc.apply_virtual_inductor(params_n1, 30.0)
    assert abs(p30.R_s / p30.L_s - params_n1.R_s / params_n1.L_s) < 1e-12 * (
        params_n1.R_s / params_n1.L_s
    )


def test_virtual_inductor_composes(params_n1):
    a = sc.apply_virtual_inductor(sc.apply_virtual_inductor(params_n1, 5.0), 6.0)
    b = sc.apply_virtual_inductor(params_n1, 30.0)
    for field in ("L_s", "R_s", "m_if"):
        assert abs(getattr(a, field) - getattr(b, field)) < 1e-12 * getattr(b, field)


def test_virtual_inductor_scales_damping(params_n1):
    # At fixed field flux the dimensionless damping scales exactly like
    # sqrt(n); with the flux re-fitted it picks up the factor
    # sqrt(m_if_old / m_if_new), which stays within 10% of 1 for small n
    # (at n=30 the flux grows 1.56x, so the raw sqrt(n) claim breaks there).
    alpha1 = sc.derive_constants(params_n1).alpha
    for n in (4.0, 30.0):
        fixed_flux = params_n1.replace(L_s=n * params_n1.L_s, R_s=n * params_n1.R_s)
        ratio = sc.derive_constants(fixed_flux).alpha / alpha1
        assert abs(ratio - math.sqrt(n)) < 1e-9 * math.sqrt(n)
    for n in (2.0, 4.0, 8.0):
        scaled = sc.apply_virtual_inductor(params_n1, n)
        ratio = sc.derive_constants(scaled).alpha / alpha1
        assert abs(ratio - math.sqrt(n)) < 0.1 * math.sqrt(n)
        expected = math.sqrt(n * params_n1.m_if / scaled.m_if)
        assert abs(ratio - expected) < 1e-9 * expected


def test_virtual_inductor_rejects_small_n(params_n1):
    with pytest.raises(ParameterError):
        sc.apply_virtual_inductor(params_n1, 0.5)


def test_virtual_inductor_rejects_non_positive_nominal_power(params_n1):
    # T_m = D_p*omega_g/2 implies P_n = (T_m - D_p*omega_g)*omega_g < 0.
    params = params_n1.replace(T_m=0.5 * params_n1.D_p * params_n1.omega_g)
    with pytest.raises(ParameterError, match="non-positive nominal power"):
        sc.apply_virtual_inductor(params, 30.0)


def test_inverter_command_passthrough():
    v = np.array([1.0, -0.5, -0.5])
    e = np.array([2.0, -1.0, -1.0])
    assert np.array_equal(sc.inverter_voltage_command(v, e, 1.0), e)


def test_inverter_command_limit():
    v = np.array([1.0, -0.5, -0.5])
    e = np.array([2.0, -1.0, -1.0])
    g = sc.inverter_voltage_command(v, e, 1e9)
    assert np.max(np.abs(g - v)) < 1e-8


def test_inverter_command_fixed_point():
    v = np.array([0.3, 0.1, -0.4])
    for n in (1.0, 2.5, 50.0):
        assert np.allclose(sc.inverter_voltage_command(v, v, n), v, rtol=0, atol=1e-15)


def test_inverter_command_rejects_small_n():
    with pytest.raises(ParameterError):
        sc.inverter_voltage_command([0.0] * 3, [0.0] * 3, 0.9)


def test_nominal_spec_validation():
    with pytest.raises(ParameterError, match="P_n"):
        sc.NominalSpec(P_n=0.0, V=LINE_V, omega_g=OMEGA_G)
    with pytest.raises(ParameterError, match="n"):
        sc.NominalSpec(P_n=1e5, V=LINE_V, omega_g=OMEGA_G, n=0.5)


def test_nominal_spec_dict_round_trip(spec_500kw):
    again = sc.NominalSpec.from_dict(spec_500kw.to_dict())
    assert again == spec_500kw
    with pytest.raises(ParameterError, match="bogus"):
        sc.NominalSpec.from_dict({**spec_500kw.to_dict(), "bogus": 1.0})
    with pytest.raises(ParameterError, match="V"):
        sc.NominalSpec.from_dict({"P_n": 1e5, "omega_g": OMEGA_G})
