import math

import numpy as np
import pytest

import swingcert as sc
from swingcert.core import TWO_PI, scaled_residual
from swingcert.equilibria import (
    Stability,
    char_poly,
    classify_char_poly,
    local_basin,
    quartic_eigenvalues,
    routh_hurwitz_unstable_count,
)



def _params_with_lambda(base, target):
    """Adjust T_m so the equilibrium cosine hits ``target`` exactly."""
    dc = sc.derive_constants(base)
    T_m = base.D_p * base.omega_g - base.m_if * dc.i_v * (target - dc.V_r * dc.P_inf)
    return base.replace(T_m=T_m)


def test_no_equilibria_when_lambda_exceeds_one(params_n1):
    params = _params_with_lambda(params_n1, -1.5)
    assert abs(sc.derive_constants(params).Lambda + 1.5) < 1e-9
    assert sc.solve_equilibria(params) == []


def test_single_nonhyperbolic_point_at_lambda_boundary(params_n1):
    params = _params_with_lambda(params_n1, -1.0)
    points = sc.solve_equilibria(params)
    assert len(points) == 1
    pt = points[0]
    assert pt.classification is Stability.NON_HYPERBOLIC
    a0 = pt.char_coeffs[3]
    p = params.R_s / params.L_s
    a0_scale = params.m_if * params.V * math.hypot(p, params.omega_g) / (
        params.J * params.L_s
    )
    assert abs(a0) < 1e-9 * a0_scale


def test_two_equilibria_for_500kw(params_n30, equilibria_n30):
    assert len(equilibria_n30) == 2
    dc = sc.derive_constants(params_n30)
    for pt in equilibria_n30:
        assert scaled_residual(pt.state, params_n30) < 1e-9
        assert pt.state.omega == params_n30.omega_g
        assert -math.pi - dc.phi <= pt.state.delta < math.pi - dc.phi
    iq = (params_n30.D_p * params_n30.omega_g - params_n30.T_m) / params_n30.m_if
    assert equilibria_n30[0].state.i_q == equilibria_n30[1].state.i_q == iq


def test_linearize_bottom_row(params_n30, equilibria_n30):
    for pt in equilibria_n30:
        A = sc.linearize(params_n30, pt)
        assert np.all(A[3] == np.array([0.0, 0.0, 1.0, 0.0]))


def test_linearize_trace(params_n30, equilibria_n30):
    p = params_n30.R_s / params_n30.L_s
    for pt in equilibria_n30:
        A = sc.linearize(params_n30, pt)
        expected = -2.0 * p - params_n30.D_p / params_n30.J
        assert abs(np.trace(A) - expected) < 1e-9 * abs(expected)


def test_linearize_matches_finite_differences(params_n30, equilibria_n30):
    rhs = sc.full_rhs(params_n30)
    scales = np.array([50.0, 50.0, 300.0, 1.0])
    for pt in equilibria_n30:
        A = sc.linearize(params_n30, pt)
        x0 = pt.state.as_array()
        J_fd = np.empty((4, 4))
        for j in range(4):
            h = 1e-6 * scales[j]
            e = np.zeros(4)
            e[j] = h
            J_fd[:, j] = (np.asarray(rhs(0.0, x0 + e)) - np.asarray(rhs(0.0, x0 - e))) / (2 * h)
        scale = np.max(np.abs(A))
        assert np.max(np.abs(A - J_fd)) < 1e-6 * scale


def test_linearize_rejects_non_equilibrium(params_n30):
    with pytest.raises(sc.ParameterError, match="not an equilibrium"):
        sc.linearize(params_n30, sc.SgState(100.0, 100.0, 200.0, 1.0))


def test_char_poly_zero_matrix():
    assert sc.char_poly(np.zeros((4, 4))) == (0.0, 0.0, 0.0, 0.0)


def test_char_poly_constant_term_is_determinant():
    rng = np.random.default_rng(21)
    for _ in range(25):
        A = rng.normal(size=(4, 4))
        a0 = sc.char_poly(A)[3]
        assert abs(a0 - np.linalg.det(A)) < 1e-9 * max(1.0, abs(np.linalg.det(A)))


def test_char_poly_matches_numpy():
    rng = np.random.default_rng(22)
    for _ in range(25):
        A = rng.normal(size=(4, 4))
        coeffs = np.asarray(sc.char_poly(A))
        ref = np.poly(A)[1:]
        assert np.max(np.abs(coeffs - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_a0_sign_flips_between_branches(params_n30, equilibria_n30):
    a0_1 = equilibria_n30[0].char_coeffs[3]
    a0_2 = equilibria_n30[1].char_coeffs[3]
    assert a0_1 * a0_2 < 0.0


def test_a0_closed_form(params_n30, params_n1, params_rs216, params_dp15):
    for params in (params_n30, params_n1, params_rs216, params_dp15):
        for pt in sc.solve_equilibria(params):
            a0 = pt.char_coeffs[3]
            ref = sc.a0_closed_form(params, pt.state.delta)
            assert abs(a0 - ref) <= 1e-10 * abs(ref)


def test_classification_500kw_n30(equilibria_n30):
    kinds = {pt.branch: pt.classification for pt in equilibria_n30}
    assert kinds[1] is Stability.STABLE
    assert kinds[2] is Stability.UNSTABLE


def test_classification_dp15_both_unstable(params_dp15):
    points = sc.solve_equilibria(params_dp15)
    assert len(points) == 2
    assert all(pt.classification is Stability.UNSTABLE for pt in points)


def test_classify_matches_eigvals(params_n30, equilibria_n30):
    for pt in equilibria_n30:
        A = sc.linearize(params_n30, pt)
        ref = np.sort_complex(np.linalg.eigvals(A))
        got = np.sort_complex(np.array(pt.eigenvalues))
        assert np.max(np.abs(ref - got)) < 1e-6 * np.max(np.abs(ref))


def test_routh_hurwitz_agrees_with_eigenvalues(params_n30, params_dp15):
    for params in (params_n30, params_dp15):
        for pt in sc.solve_equilibria(params):
            count = routh_hurwitz_unstable_count(pt.char_coeffs)
            n_unstable = sum(1 for z in pt.eigenvalues if z.real > 0)
            assert count is not None
            assert count == n_unstable


def test_quartic_eigenvalues_known_roots():
    # (s+1)(s+2)(s-3)(s+0.5)
    roots = np.array([-2.0, -1.0, -0.5, 3.0])
    coeffs = np.poly(roots)[1:]
    got = np.sort(quartic_eigenvalues(tuple(coeffs)).real)
    assert np.max(np.abs(got - np.sort(roots))) < 1e-10


def test_classification_invariant_under_sheet_shift(params_n30, equilibria_n30):
    for pt in equilibria_n30:
        shifted = sc.SgState(pt.state.i_d, pt.state.i_q, pt.state.omega,
                             pt.state.delta + TWO_PI)
        verdict, eig = classify_char_poly(char_poly(sc.linearize(params_n30, shifted)))
        assert verdict is pt.classification
        assert np.max(np.abs(np.array(eig) - np.array(pt.eigenvalues))) < 1e-7 * max(
            abs(z) for z in pt.eigenvalues
        )
        A = sc.linearize(params_n30, shifted)
        assert np.allclose(A, sc.linearize(params_n30, pt), rtol=1e-12, atol=1e-12)


def test_classify_matrix_nonhyperbolic_band():
    # Eigenvalues at -1, -2, +-i: the zero-real-part pair must be flagged.
    A = np.diag([-1.0, -2.0, 0.0, 0.0]).astype(float)
    A[2, 3] = 1.0
    A[3, 2] = -1.0
    verdict, _ = classify_char_poly(char_poly(A))
    assert verdict is Stability.NON_HYPERBOLIC


def test_equilibrium_report_serialization(equilibria_n30):
    doc = equilibria_n30[0].to_dict()
    assert set(doc) == {"delta_e", "i_d_e", "i_q_e", "branch", "classification",
                        "eigenvalues"}
    assert len(doc["eigenvalues"]) == 4
    assert all(set(z) == {"re", "im"} for z in doc["eigenvalues"])


@pytest.mark.parametrize("design", ["params_n30", "params_rs216"])
def test_local_basin_decreases_lyapunov_function(design, request):
    # dV/dt from the exact model is negative on and inside the proven level
    # set, on the equilibrium's own sheet and one sheet either side.
    params = request.getfixturevalue(design)
    stable = [pt for pt in sc.solve_equilibria(params)
              if pt.classification is Stability.STABLE][0]
    P, c = local_basin(params, stable)
    assert c > 0.0
    assert np.allclose(P, P.T, rtol=0.0, atol=0.0)
    P_inv = np.linalg.inv(P)
    assert math.sqrt(c * P_inv[3, 3]) < 0.1  # far below pi: sheets stay apart

    rng = np.random.default_rng(2016)
    n = 10_000
    u = rng.standard_normal((n, 4))
    u /= np.linalg.norm(u, axis=1)[:, None]
    r = np.where(np.arange(n) < n // 4, 1.0, rng.uniform(0.1, 1.0, n))
    L = np.linalg.cholesky(P)
    x = math.sqrt(c) * r[:, None] * np.linalg.solve(L.T, u.T).T  # x^T P x = r^2 c
    y = stable.state.as_array() + x
    y[:, 3] += TWO_PI * rng.integers(-1, 2, n)
    rhs = sc.full_rhs(params)
    e = stable.state.as_array()
    rates = []
    for row in y:
        dx = row - e
        dx[3] = math.remainder(dx[3], TWO_PI)
        rates.append(2.0 * float(dx @ P @ np.array(rhs(0.0, row))))
    assert max(rates) < 0.0


def test_local_basin_needs_stable_point(params_n30, equilibria_n30):
    unstable = [pt for pt in equilibria_n30 if pt.classification is Stability.UNSTABLE][0]
    with pytest.raises(ValueError):
        local_basin(params_n30, unstable)
