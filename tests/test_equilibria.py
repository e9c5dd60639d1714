import functools
import math

import numpy as np
import pytest

import swingcert as sc
from swingcert import equilibria, interval
from swingcert.core import TWO_PI, NumericalError
from swingcert.equilibria import (
    Stability,
    char_poly,
    classify_char_poly,
    linearize,
    local_basin,
    quartic_eigenvalues,
    routh_hurwitz_unstable_count,
)

from basin_soundness import sampled_level, shell_rates, stable_point
from oracles import a0_closed_form, scaled_residual



def _params_with_lambda(base, target):
    """Adjust T_m so the equilibrium cosine hits ``target`` exactly."""
    dc = sc.derive_constants(base)
    T_m = base.D_p * base.omega_g - base.m_if * dc.i_v * (target - dc.V_r * dc.P_inf)
    return base.replace(T_m=T_m)


def test_no_equilibria_when_lambda_exceeds_one(params_n1):
    params = _params_with_lambda(params_n1, -1.5)
    assert abs(sc.derive_constants(params).Lambda + 1.5) < 1e-9
    assert sc.solve_equilibria(params) == []


def test_single_nonhyperbolic_point_at_lambda_boundary(params_n1, params_n30):
    # Lambda = -1 up to rounding (n=30: -1.0000000000000013) leaves the one
    # point of branch 2, a saddle-node with a zero eigenvalue.
    for base in (params_n1, params_n30):
        params = _params_with_lambda(base, -1.0)
        points = sc.solve_equilibria(params)
        assert len(points) == 1
        pt = points[0]
        assert pt.branch == 2
        assert pt.state.delta == pytest.approx(-4.588, abs=1e-3)
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
        A = linearize(params_n30, pt.state)
        assert np.all(A[3] == np.array([0.0, 0.0, 1.0, 0.0]))


def test_linearize_trace(params_n30, equilibria_n30):
    p = params_n30.R_s / params_n30.L_s
    for pt in equilibria_n30:
        A = linearize(params_n30, pt.state)
        expected = -2.0 * p - params_n30.D_p / params_n30.J
        assert abs(np.trace(A) - expected) < 1e-9 * abs(expected)


def test_linearize_matches_finite_differences(params_n30, equilibria_n30):
    rhs = sc.full_rhs(params_n30)
    scales = np.array([50.0, 50.0, 300.0, 1.0])
    for pt in equilibria_n30:
        A = linearize(params_n30, pt.state)
        x0 = pt.state.as_array()
        J_fd = np.empty((4, 4))
        for j in range(4):
            h = 1e-6 * scales[j]
            e = np.zeros(4)
            e[j] = h
            J_fd[:, j] = (np.asarray(rhs(0.0, x0 + e)) - np.asarray(rhs(0.0, x0 - e))) / (2 * h)
        scale = np.max(np.abs(A))
        assert np.max(np.abs(A - J_fd)) < 1e-6 * scale


@pytest.mark.parametrize("state", [(5.0, -5.0, 320.0, 0.3), (80.0, -60.0, 500.0, 2.0),
                                   (0.0, 0.0, 0.0, 0.0)])
def test_linearize_matches_finite_differences_off_equilibrium(state, params_n30):
    # Away from an equilibrium omega is not omega_g, so the entries (0, 1)
    # and (1, 0), d(di_d/dt)/d(i_q) = omega and d(di_q/dt)/d(i_d) = -omega,
    # read the state's omega.
    rhs = sc.full_rhs(params_n30)
    x0 = np.array(state)
    A = linearize(params_n30, sc.SgState(*state))
    J_fd = np.empty((4, 4))
    for j, scale in enumerate((50.0, 50.0, 300.0, 1.0)):
        e = np.zeros(4)
        e[j] = 1e-6 * scale
        J_fd[:, j] = (np.subtract(rhs(0.0, (x0 + e).tolist()), rhs(0.0, (x0 - e).tolist()))
                      / (2 * e[j]))
    assert (A[0, 1], A[1, 0]) == (state[2], -state[2])
    assert np.max(np.abs(A - J_fd)) < 1e-6 * np.max(np.abs(A))


def test_char_poly_zero_matrix():
    assert char_poly(np.zeros((4, 4))) == (0.0, 0.0, 0.0, 0.0)


def test_char_poly_rejects_a_matrix_that_is_not_4x4():
    with pytest.raises(ValueError, match="4x4"):
        char_poly(np.eye(3))


def test_char_poly_constant_term_is_determinant():
    rng = np.random.default_rng(21)
    for _ in range(25):
        A = rng.normal(size=(4, 4))
        a0 = char_poly(A)[3]
        assert abs(a0 - np.linalg.det(A)) < 1e-9 * max(1.0, abs(np.linalg.det(A)))


def test_char_poly_matches_numpy():
    rng = np.random.default_rng(22)
    for _ in range(25):
        A = rng.normal(size=(4, 4))
        coeffs = np.asarray(char_poly(A))
        ref = np.poly(A)[1:]
        assert np.max(np.abs(coeffs - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))


def _per_minor_char_poly(A):
    """char_poly as one det call per principal minor, summed in
    combinations order: the oracle for the batched minors."""
    from itertools import combinations

    sums = []
    for k in (1, 2, 3, 4):
        total = 0.0
        for idx in combinations(range(4), k):
            total += float(np.linalg.det(A[np.ix_(idx, idx)]))
        sums.append(total)
    return (-sums[0], sums[1], -sums[2], sums[3])


def test_char_poly_equals_per_minor_loop_bit_for_bit(params_n1, params_n30, params_rs216,
                                                      params_dp15):
    rng = np.random.default_rng(23)
    matrices = [rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-6, 6, size=(4, 4))
                for _ in range(2000)]
    matrices += [np.ones((4, 4)), np.diag([1.0, 0.0, -2.0, 3.0])]
    for params in (params_n1, params_n30, params_rs216, params_dp15):
        matrices += [linearize(params, pt.state) for pt in sc.solve_equilibria(params)]
    for A in matrices:
        assert [c.hex() for c in char_poly(A)] == [c.hex() for c in _per_minor_char_poly(A)]


def test_a0_sign_flips_between_branches(params_n30, equilibria_n30):
    a0_1 = equilibria_n30[0].char_coeffs[3]
    a0_2 = equilibria_n30[1].char_coeffs[3]
    assert a0_1 * a0_2 < 0.0


def test_a0_closed_form(params_n30, params_n1, params_rs216, params_dp15):
    for params in (params_n30, params_n1, params_rs216, params_dp15):
        for pt in sc.solve_equilibria(params):
            a0 = pt.char_coeffs[3]
            ref = a0_closed_form(params, pt.state.delta)
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
        A = linearize(params_n30, pt.state)
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


@pytest.mark.parametrize("coeffs", [(0.0, 1.0, 1.0, 1.0), (1.0, 2.0, 2.0, 1.0),
                                    (1.0, 3.0, 2.0, 2.0), (1.0, 3.0, 2.0, 0.0)],
                         ids=["a3", "b1", "c1", "a0"])
def test_routh_hurwitz_gives_no_count_at_a_zero_pivot(coeffs):
    assert routh_hurwitz_unstable_count(coeffs) is None


def test_classify_char_poly_rejects_roots_that_disagree_with_routh_hurwitz(monkeypatch):
    # Stable coefficients, but the roots handed back are mirrored into the
    # right half plane: 4 unstable roots against a Routh-Hurwitz count of 0.
    roots = np.array([-4.0, -3.0, -2.0, -1.0])
    coeffs = tuple(np.poly(roots)[1:].tolist())
    monkeypatch.setattr(equilibria, "quartic_eigenvalues", lambda c: -roots[::-1] + 0j)
    with pytest.raises(NumericalError, match="Routh-Hurwitz disagreement"):
        classify_char_poly(coeffs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quartic_eigenvalues_rejects_non_finite_coefficients(bad):
    with pytest.raises(NumericalError, match="non-finite"):
        quartic_eigenvalues((1.0, bad, 1.0, 1.0))


def test_classification_invariant_under_sheet_shift(params_n30, equilibria_n30):
    for pt in equilibria_n30:
        shifted = sc.SgState(pt.state.i_d, pt.state.i_q, pt.state.omega,
                             pt.state.delta + TWO_PI)
        verdict, eig = classify_char_poly(char_poly(linearize(params_n30, shifted)))
        assert verdict is pt.classification
        assert np.max(np.abs(np.array(eig) - np.array(pt.eigenvalues))) < 1e-7 * max(
            abs(z) for z in pt.eigenvalues
        )
        A = linearize(params_n30, shifted)
        assert np.allclose(A, linearize(params_n30, pt.state), rtol=1e-12, atol=1e-12)


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
    P, c, _ = local_basin(params, stable)
    assert c > 0.0
    assert np.allclose(P, P.T, rtol=0.0, atol=0.0)
    P_inv = np.linalg.inv(P)
    # The library's cap, well short of the pi at which sheets would merge.
    assert math.sqrt(c * P_inv[3, 3]) <= math.pi / 2

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


def _drawn_design(index: int):
    """A seeded design drawn as the certify-sweep benchmark draws them."""
    rng = np.random.default_rng([2016, index])
    spec = sc.NominalSpec(
        P_n=500e3, V=6000.0 * math.sqrt(3.0), omega_g=100.0 * math.pi,
        d_p=rng.uniform(1.0, 6.0), H_seconds=rng.uniform(1.0, 10.0),
        L_drop_pct=rng.uniform(2.0, 6.0), R_drop_pct=rng.uniform(0.2, 1.0),
        n=math.exp(rng.uniform(0.0, math.log(100.0))))
    params = sc.size_parameters(spec)
    return sc.apply_virtual_inductor(params, spec.n) if spec.n > 1.0 else params


@functools.lru_cache(maxsize=None)
def _proof(params):
    point = stable_point(params)
    return (point, *local_basin(params, point))


SOUNDNESS_DESIGNS = ["params_n30", "params_rs216"] + [f"draw-{i}" for i in range(10)]


def _design(name, request):
    if name.startswith("draw-"):
        return _drawn_design(int(name[5:]))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("design", SOUNDNESS_DESIGNS)
def test_local_basin_level_within_sampled_minimum(design, request):
    # The proven level never exceeds min (q/K)^2 over 10**5 directions.  A
    # second, independent sample finds a minimum within 10% of the first,
    # so a level 1.1x above the sampled minimum would fail this check.
    params = _design(design, request)
    point, P, c, _ = _proof(params)
    level = sampled_level(params, point, P, 100_000, seed=1)
    assert 0.0 < c <= level
    assert sampled_level(params, point, P, 100_000, seed=2) < 1.1 * level


@pytest.mark.parametrize("design", SOUNDNESS_DESIGNS)
def test_local_basin_shell_decreases(design, request):
    # dV/dt from the exact model at 10**4 points of the shell 0.9c <= V <= c,
    # delta on its own sheet and one to either side.
    params = _design(design, request)
    point, P, c, _ = _proof(params)
    assert np.max(shell_rates(params, point, P, c, 10_000, seed=3)) < 0.0


@pytest.mark.parametrize("design, ceiling", [("params_n30", 60_000),
                                             ("params_rs216", 120_000)])
def test_local_basin_proof_size(design, ceiling, request):
    # The box count is deterministic: about four times what the proof takes
    # now is a fixed ceiling on its cost.  The level reaches at least 80% of
    # the sampled minimum, and the delta half-extent stays below the cap.
    params = request.getfixturevalue(design)
    point, P, c, boxes = _proof(params)
    assert boxes <= ceiling
    assert c >= 0.8 * sampled_level(params, point, P, 100_000, seed=1)
    assert math.sqrt(c * np.linalg.inv(P)[3, 3]) < math.pi / 2


def test_local_basin_tight_proof_meets_sampled_minimum(params_n30, monkeypatch):
    # Settling boxes only within 1% of the best centre ratio brings the
    # proven level to within 5% of the sampled minimum and never above it,
    # so a remainder term left out of the proof would show.
    monkeypatch.setattr(interval, "_BNB_SETTLE", 0.99)
    point = stable_point(params_n30)
    P, c, _ = local_basin(params_n30, point)
    level = sampled_level(params_n30, point, P, 100_000, seed=1)
    assert 0.95 * level <= c <= level


@pytest.mark.parametrize("delta_weight", [0.0, 1.0])
def test_decay_ratio_meets_sampled_minimum(delta_weight, params_n30):
    # The branch and bound on the n=30 design's matrices, with the delta
    # term of K at full weight and left out (so that the bilinear term
    # alone sets the minimum), against min |u| q(u)/K(u) over 10**5
    # directions: never above it, and within the settle share below it.
    point, P, _, _ = _proof(params_n30)
    A = linearize(params_n30, point.state)
    T = np.linalg.inv(np.linalg.cholesky(P))
    W = P @ T.T
    M = T @ -(A.T @ P + P @ A) @ T.T
    M = 0.5 * (M + M.T)
    VL = delta_weight * params_n30.V / params_n30.L_s
    proven, _ = equilibria._decay_ratio(T, W, np.zeros((4, 4)), M, np.zeros((4, 4)), VL)

    u = np.random.default_rng(7).standard_normal((100_000, 4))
    u /= np.linalg.norm(u, axis=1)[:, None]
    x, g = u @ T, u @ W.T
    K = (2.0 * np.abs(x[:, 2] * (g[:, 0] * x[:, 1] - g[:, 1] * x[:, 0]))
         + VL * x[:, 3] ** 2 * (np.abs(g[:, 0]) + np.abs(g[:, 1])))
    sampled = float(np.min(np.einsum("ni,ij,nj->n", u, M, u) / K))
    assert 0.9 * sampled <= proven <= sampled


def test_local_basin_proof_stops_at_its_box_budget(params_n30, monkeypatch):
    # A proof that would need more boxes settles the open ones at their
    # lower bounds: a smaller level, or none, but never a larger one.
    point, _, c, _ = _proof(params_n30)
    monkeypatch.setattr(interval, "_BNB_MAX_BOXES", 6000)
    _, c_small, boxes = local_basin(params_n30, point)
    assert boxes <= 6000
    assert 0.0 < c_small < c
    monkeypatch.setattr(interval, "_BNB_MAX_BOXES", 1000)
    with pytest.raises(NumericalError):
        local_basin(params_n30, point)


def test_local_basin_needs_stable_point(params_n30, equilibria_n30):
    unstable = [pt for pt in equilibria_n30 if pt.classification is Stability.UNSTABLE][0]
    with pytest.raises(ValueError):
        local_basin(params_n30, unstable)
