"""Equilibrium points of the fourth-order model: location, linearisation
and stability classification.

Every equilibrium has omega = omega_g.  Writing Lambda for the cosine of
the shifted equilibrium angle (see ``DerivedConstants``), the model has
zero, one or two equilibria modulo 2*pi according to |Lambda| > 1, = 1 or
< 1.  Representative angles are reported in [-pi - phi, pi - phi); all
shifts by 2*pi*k are also equilibria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import (
    NumericalError,
    SgParameters,
    SgState,
    TWO_PI,
    derive_constants,
    full_rhs,
)
from .interval import ROUND, down, face_minimum, linear, magnitude, product, quadratic, up

# Unit-cosine clamp for the arccos argument at the |Lambda| = 1 boundary.
_COS_CLAMP = 1e-12

# Hyperbolicity band, relative to the spectral scale max|eigenvalue|.
HYPERBOLICITY_REL_BAND = 1e-7


class Stability(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    NON_HYPERBOLIC = "non-hyperbolic"


@dataclass(frozen=True)
class EquilibriumPoint:
    """One equilibrium with its linearisation summary.

    branch 1 carries delta_e = lambda - phi, branch 2 delta_e = -lambda - phi
    with lambda = arccos(Lambda) in [0, pi].  ``char_coeffs`` are
    (a3, a2, a1, a0) of s^4 + a3 s^3 + a2 s^2 + a1 s + a0.
    """

    state: SgState
    branch: int
    classification: Stability
    eigenvalues: tuple
    char_coeffs: tuple

    def to_dict(self) -> dict:
        return {
            "delta_e": self.state.delta,
            "i_d_e": self.state.i_d,
            "i_q_e": self.state.i_q,
            "branch": self.branch,
            "classification": self.classification.value,
            "eigenvalues": [{"re": z.real, "im": z.imag} for z in self.eigenvalues],
        }


def linearize(params: SgParameters, state: SgState) -> np.ndarray:
    """Jacobian of the model at ``state`` (4x4 real matrix), any state
    included; at an equilibrium, where omega = omega_g, it is the
    linearisation ``solve_equilibria`` classifies."""
    p = params.R_s / params.L_s
    return np.array(
        [
            [-p, state.omega, state.i_q, params.V * math.cos(state.delta) / params.L_s],
            [
                -state.omega,
                -p,
                -state.i_d - params.m_if / params.L_s,
                -params.V * math.sin(state.delta) / params.L_s,
            ],
            [0.0, params.m_if / params.J, -params.D_p / params.J, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )


# The principal minors of a 4x4 matrix, one (rows, columns) index pair per
# minor size k: A[rows, cols] stacks the C(4, k) k-by-k minors in the order
# of itertools.combinations.
_MINOR_INDEX = tuple((idx[:, :, None], idx[:, None, :])
                     for idx in (np.array(list(combinations(range(4), k))) for k in (1, 2, 3, 4)))


def char_poly(matrix) -> tuple:
    """Coefficients (a3, a2, a1, a0) of det(sI - A) = s^4 + a3 s^3 + ... + a0.

    Computed from sums of principal minors, one ``det`` call per minor size
    over the stacked minors, each sum taken in ``combinations`` order, so
    a0 equals det(A) exactly as evaluated by the same routine.  A
    coefficient may come out non-finite without a warning;
    ``quartic_eigenvalues`` reports it.
    """
    A = np.asarray(matrix, dtype=float)
    if A.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {A.shape}")
    minor_sums = []
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, cols in _MINOR_INDEX:
            total = 0.0
            for det in np.linalg.det(A[rows, cols]).tolist():
                total += det
            minor_sums.append(total)
    e1, e2, e3, e4 = minor_sums
    return (-e1, e2, -e3, e4)


def quartic_eigenvalues(coeffs) -> np.ndarray:
    """Roots of s^4 + a3 s^3 + a2 s^2 + a1 s + a0.

    Companion-matrix solve (np.roots) followed by one Newton polish per
    root; sorted by (real, imag) for determinism.  A coefficient that is
    not finite, or a failed solve, raises NumericalError.
    """
    a3, a2, a1, a0 = (float(c) for c in coeffs)
    if not all(map(math.isfinite, (a3, a2, a1, a0))):
        raise NumericalError(f"non-finite characteristic coefficients {(a3, a2, a1, a0)}")
    roots = np.roots([1.0, a3, a2, a1, a0])
    if len(roots) != 4 or not np.all(np.isfinite(roots)):
        raise NumericalError("companion-matrix eigenvalue solve failed")
    polished = []
    for r in roots:
        z = complex(r)
        pz = (((z + a3) * z + a2) * z + a1) * z + a0
        dpz = ((4.0 * z + 3.0 * a3) * z + 2.0 * a2) * z + a1
        if abs(dpz) > 1e3 * abs(pz) * np.finfo(float).eps:
            z = z - pz / dpz
        polished.append(z)
    polished.sort(key=lambda z: (z.real, z.imag))
    return np.array(polished)


def routh_hurwitz_unstable_count(coeffs):
    """Number of open-right-half-plane roots from the Routh array.

    Returns None when a pivot is too close to zero for a robust sign count
    (boundary cases are handled by the hyperbolicity band instead).
    """
    a3, a2, a1, a0 = (float(c) for c in coeffs)
    scale = max(1.0, abs(a3), abs(a2), abs(a1), abs(a0))
    tiny = 1e-12 * scale
    if abs(a3) < tiny:
        return None
    b1 = (a3 * a2 - a1) / a3
    if abs(b1) < tiny:
        return None
    c1 = (b1 * a1 - a3 * a0) / b1
    if abs(c1) < tiny or abs(a0) < tiny:
        return None
    column = [1.0, a3, b1, c1, a0]
    changes = 0
    for prev, cur in zip(column, column[1:]):
        if prev * cur < 0.0:
            changes += 1
    return changes


def classify_char_poly(coeffs) -> tuple:
    """Classification and eigenvalues from characteristic coefficients
    (a3, a2, a1, a0), as ``char_poly`` returns them.

    Stable and unstable verdicts require every eigenvalue to sit clearly
    outside a relative band around the imaginary axis; anything inside the
    band is non-hyperbolic.  A Routh-Hurwitz count on the coefficients
    serves as an independent cross-check; disagreement on an unambiguous
    (hyperbolic) spectrum raises NumericalError.
    """
    eig = quartic_eigenvalues(coeffs)
    spectral_scale = float(np.max(np.abs(eig)))
    band = HYPERBOLICITY_REL_BAND * max(spectral_scale, 1e-300)
    re = eig.real
    if np.any(np.abs(re) <= band):
        verdict = Stability.NON_HYPERBOLIC
    elif np.all(re < 0.0):
        verdict = Stability.STABLE
    else:
        verdict = Stability.UNSTABLE

    if verdict is not Stability.NON_HYPERBOLIC:
        rh = routh_hurwitz_unstable_count(coeffs)
        n_unstable = int(np.sum(re > band))
        if rh is not None and rh != n_unstable:
            raise NumericalError(
                f"eigenvalue / Routh-Hurwitz disagreement: {n_unstable} vs {rh} "
                f"right-half-plane roots for coefficients {coeffs}"
            )
    return verdict, tuple(complex(z) for z in eig)


def solve_equilibria(params: SgParameters) -> list:
    """All equilibria modulo 2*pi, classified, with delta in [-pi-phi, pi-phi).

    Returns an empty list when |Lambda| > 1, one point when |Lambda| = 1
    (within 1e-12) and two points otherwise, ordered by branch.
    """
    dc = derive_constants(params)
    Lam = dc.Lambda
    if abs(Lam) > 1.0 + _COS_CLAMP:
        return []

    clamped = min(1.0, max(-1.0, Lam))
    lam = math.acos(clamped)
    boundary = abs(abs(Lam) - 1.0) <= _COS_CLAMP
    if boundary:
        # lambda = 0 or pi; the two branches coincide modulo 2*pi.  Use the
        # representative inside [-pi - phi, pi - phi).
        if clamped >= 0.0:
            candidates = [(lam - dc.phi, 1)]
        else:
            candidates = [(-lam - dc.phi, 2)]
    else:
        candidates = [(lam - dc.phi, 1), (-lam - dc.phi, 2)]

    i_q_e = (params.D_p * params.omega_g - params.T_m) / params.m_if
    points = []
    for delta_e, branch in candidates:
        i_d_e = (
            params.omega_g * (params.D_p * params.omega_g - params.T_m)
            / (params.m_if * dc.p)
            + params.V * math.sin(delta_e) / params.R_s
        )
        state = SgState(i_d_e, i_q_e, params.omega_g, delta_e)
        coeffs = char_poly(linearize(params, state))
        verdict, eig = classify_char_poly(coeffs)
        points.append(
            EquilibriumPoint(
                state=state,
                branch=branch,
                classification=verdict,
                eigenvalues=eig,
                char_coeffs=coeffs,
            )
        )
    return points


# Log grid of Lyapunov weights on omega and delta (the currents weigh 1),
# each relative to the state's scale; every pair is tried in one pass.
_BASIN_WEIGHTS = np.logspace(1.0, 7.0, 13)


def _decay_ratio(T, W, W_err, M, M_err, VL):
    """Lower bound on ``|z| q(z) / K(z)`` over the faces of ``|z|_inf = 1``,
    by ``interval.face_minimum``, and the number of boxes bounded.

    ``x = T^T z``, ``Px`` is within ``W_err`` of ``W z``, and
    ``q(z) = z^T M' z`` for a symmetric M' within ``M_err`` of M.
    """
    # (Px)_0 x_iq - (Px)_1 x_id as a quadratic form z^T H z.
    half = 0.5 * (np.outer(W[0], T[:, 1]) - np.outer(W[1], T[:, 0]))
    H = half + half.T
    E = (np.outer(W_err[0] + ROUND * np.abs(W[0]), np.abs(T[:, 1]))
         + np.outer(W_err[1] + ROUND * np.abs(W[1]), np.abs(T[:, 0])))
    H_err = E + E.T
    exact = np.zeros((4, 4))

    def bounds(mid, rad):
        """Lower bound on the ratio over each box, and its value at the centre."""
        x, x_r = linear(mid, rad, T.T, exact)
        g, g_r = linear(mid, rad, W, W_err)
        q, q_r = quadratic(mid, rad, M, M_err)
        bilinear = product((x[:, 2], x_r[:, 2]), quadratic(mid, rad, H, H_err))
        K = up((2.0 * magnitude(bilinear) + VL * magnitude((x[:, 3], x_r[:, 3])) ** 2
                * (magnitude((g[:, 0], g_r[:, 0])) + magnitude((g[:, 1], g_r[:, 1]))))
               * (1.0 + ROUND))
        near = np.sqrt(np.sum(np.maximum(np.abs(mid) - rad, 0.0) ** 2, axis=1))
        q_low = down(q - q_r)
        with np.errstate(divide="ignore", invalid="ignore"):
            low = np.where(q_low > 0.0, down(near * q_low / K * (1.0 - ROUND)), 0.0)
            at_centre = np.linalg.norm(mid, axis=1) * q / (
                2.0 * np.abs(bilinear[0]) + VL * x[:, 3] ** 2
                * (np.abs(g[:, 0]) + np.abs(g[:, 1])))
        return low, np.where(q > 0.0, at_centre, 0.0)

    return face_minimum(bounds)


def local_basin(params: SgParameters, eq: EquilibriumPoint) -> tuple:
    """Lyapunov ellipsoid ``x^T P x < c`` proven to lie in the basin of ``eq``.

    ``x = y - y_e`` with the delta component wrapped by ``math.remainder``.
    P solves ``A^T P + P A = -Q`` for the Jacobian A of ``linearize`` (a
    16x16 Kronecker solve), for Q = ``diag(1, 1, w_omega, w_delta) /
    scales^2`` over the ``_BASIN_WEIGHTS`` grid.  The P kept has the largest
    smallest half-extent ``sqrt(c* (P^-1)_ii)`` relative to the state
    scales, where ``c* = (lam / (2 sum_k sqrt(P_kk) G_k))^2`` is the level
    that per-axis bounds on the remainders give (``lam = min eig(P^-1 Q')``,
    ``G_k`` the remainder coefficients).

    The level c of that P is proven one direction at a time.  With
    ``P = L L^T``, ``x = L^-T z`` and so ``Px = L z``; along the model
    ``dV/dt = -q(z) + 2 (Px)_0 r_0 + 2 (Px)_1 r_1``, with the quadratic
    decay ``q(z) = z^T L^-1 Q' L^-T z``, ``Q' = -(A^T P + P A)``, and the
    remainders ``r_0 = x_w x_iq + V/L_s s_0``, ``r_1 = -x_w x_id + V/L_s s_1``,
    ``|s_0|, |s_1| <= x_delta^2 / 2`` (the other two equations are
    linear).  So ``dV/dt <= -q(z) + K(z)`` with
    ``K(z) = 2 |x_w ((Px)_0 x_iq - (Px)_1 x_id)|
    + V/L_s x_delta^2 (|(Px)_0| + |(Px)_1|)``.  On the ray ``t z``, where
    ``V = t^2 |z|^2``, q grows as t^2 and K as t^3, so V decreases while
    ``t < q(z) / K(z)``, and ``c = (min over z of |z| q(z) / K(z))^2``
    over the faces of the cube ``|z|_inf = 1``.  Every sublevel set below
    c is therefore invariant and every trajectory in it converges to
    ``eq`` (Khalil, Nonlinear Systems, Sec. 8.2).

    ``_decay_ratio`` bounds that minimum from below by interval branch and
    bound (``swingcert.interval``), every bound rounded outward.  The float
    errors of A, Q' and of the float inverse of L enter as explicit error
    bounds, and so does the float equilibrium's residual, for ``V >= 1e-8
    c*`` (``_proven_level``).  c is rounded down, also by the rounding of
    ``LocalBasin.contains``, and capped so that the delta half-extent
    ``sqrt(c (P^-1)_33)`` is at most pi/2: the copies of the set on
    neighbouring sheets stay apart.

    Returns ``(P, c, boxes)``, with the number of boxes the proof bounded.
    NumericalError when no positive level is proven.
    """
    if eq.classification is not Stability.STABLE:
        raise ValueError("a local basin needs a stable equilibrium")
    s = eq.state
    A = linearize(params, s)
    cur = max(1.0, abs(s.i_d), abs(s.i_q))
    scales = np.array([cur, cur, max(1.0, abs(s.omega)), 1.0])
    outer = np.outer(scales, scales)

    # Solved in the scaled coordinates x / scales, where Q is diag(w).
    A_z = A * scales / scales[:, None]
    lyap = np.kron(A_z.T, np.eye(4)) + np.kron(np.eye(4), A_z.T)
    w_omega, w_delta = np.meshgrid(_BASIN_WEIGHTS, _BASIN_WEIGHTS, indexing="ij")
    weights = np.stack([np.ones(w_omega.size), np.ones(w_omega.size),
                        w_omega.ravel(), w_delta.ravel()], axis=1)
    Q_z = weights[:, :, None] * np.eye(4)
    P_z = np.linalg.solve(lyap, -Q_z.reshape(-1, 16).T).T.reshape(-1, 4, 4)
    P = 0.5 * (P_z + P_z.transpose(0, 2, 1)) / outer

    Q = -(A.T @ P + P @ A)
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(P))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Lyapunov solution is not positive definite: {exc}")
    lam = np.linalg.eigvalsh(L_inv @ Q @ L_inv.transpose(0, 2, 1))[:, 0]
    P_inv = np.einsum("nki,nki->ni", L_inv, L_inv)  # diagonal of P^-1
    half_VL = 0.5 * params.V / params.L_s
    G_1 = np.sqrt(P_inv[:, 2] * P_inv[:, 1]) + half_VL * P_inv[:, 3]
    G_2 = np.sqrt(P_inv[:, 2] * P_inv[:, 0]) + half_VL * P_inv[:, 3]
    S = np.sqrt(P[:, 0, 0]) * G_1 + np.sqrt(P[:, 1, 1]) * G_2
    c_star = (np.maximum(lam, 0.0) / (2.0 * S)) ** 2
    extent = np.min(np.sqrt(c_star[:, None] * P_inv) / scales, axis=1)
    best = int(np.argmax(extent))
    if not extent[best] > 0.0:
        raise NumericalError("no Lyapunov weight gives a proven local basin")
    c, boxes = _proven_level(params, s, A, P[best], Q[best], L_inv[best], c_star[best])
    return P[best], c, boxes


def _proven_level(params, s, A, P, Q, T, c_star) -> tuple:
    """The level c of ``local_basin`` for one P, and the boxes bounded.

    ``T``, the float inverse of the Cholesky factor, stands for ``L^-1``:
    ``x = T^T z`` exactly, ``Px = P T^T z`` within the rounding of
    ``W = P T^T``, ``q(z) = z^T M z`` within the rounding of ``M = T Q' T^T``
    and of A and Q', and ``V = z^T T P T^T z`` within ``eps |z|^2``.
    """
    # Error bounds: A against the exact Jacobian at the float equilibrium,
    # Q' against -(A^T P + P A) for that Jacobian, then W, M and T P T^T.
    A_err = ROUND * np.abs(A)
    A_err[1, 2] = ROUND * (abs(s.i_d) + params.m_if / params.L_s)
    aA, aP, aT = np.abs(A), np.abs(P), np.abs(T)
    Q_err = A_err.T @ aP + aP @ A_err + ROUND * (aA.T @ aP + aP @ aA)
    W = P @ T.T
    W_err = ROUND * (aP @ aT.T)
    M = T @ Q @ T.T
    M_err = aT @ Q_err @ aT.T + ROUND * (aT @ np.abs(Q) @ aT.T)
    eps = up(np.linalg.norm(T @ P @ T.T - np.eye(4))
             + ROUND * np.linalg.norm(aT @ aP @ aT.T))
    VL = up(params.V / params.L_s * (1.0 + ROUND))

    # The float equilibrium's residual f adds 2 (Px) . f, at most
    # 2 |W| |z| |f|, which is at most m_f |z|^2 once V >= V_0.  Below V_0
    # the set is too small to carry a state out of the exact point's basin.
    p, a, w = params.R_s / params.L_s, params.m_if / params.L_s, s.omega
    size = np.array([p * abs(s.i_d) + w * abs(s.i_q) + VL,
                     w * abs(s.i_d) + p * abs(s.i_q) + a * w + VL,
                     (params.m_if * abs(s.i_q) + params.D_p * w + params.T_m) / params.J,
                     0.0])
    f = np.linalg.norm(np.abs(full_rhs(params)(0.0, s.as_array().tolist()))
                       + 8.0 * np.finfo(float).eps * size)
    V_0 = 1e-8 * c_star
    m_f = up(2.0 * np.linalg.norm(aP @ aT.T + W_err) * f
             / np.sqrt(V_0 / (1.0 + eps)) * (1.0 + ROUND))

    M_err = M_err + ROUND * m_f * np.eye(4)
    ratio, boxes = _decay_ratio(T, W, W_err, 0.5 * (M + M.T) - m_f * np.eye(4),
                                M_err + M_err.T, VL)
    cap = (0.5 * math.pi) ** 2 / up(np.sum(T[:, 3] ** 2) * (1.0 + ROUND))
    # The float test x^T P x < c of LocalBasin.contains is off by at most 16
    # unit roundoffs of |x|^T |P| |x| <= |P| |T|^2 V / (1 - eps).
    test = 16.0 * np.finfo(float).eps * np.linalg.norm(aP) * np.sum(T ** 2) / (1.0 - eps)
    c = float(down((1.0 - eps) * min(ratio * ratio, cap) * (1.0 - ROUND - test)))
    if not c > V_0:
        raise NumericalError("no positive level of the local basin is proven")
    return c, boxes


class LocalBasin:
    """Membership test of the proven local basin ``x^T P x < c`` of a
    stable equilibrium (``local_basin``), delta taken modulo 2*pi.
    ``contains(y)`` takes a state as a sequence of four floats; the
    rounding of its sum is what ``_proven_level`` charges to c.
    """

    def __init__(self, point: EquilibriumPoint, P: np.ndarray, c: float):
        self.point = point
        e0, e1, e2, e3 = point.state.as_array().tolist()
        (p00, p01, p02, p03), (_, p11, p12, p13), (_, _, p22, p23), (_, _, _, p33) = \
            P.tolist()
        q01, q02, q03, q12, q13, q23 = (2.0 * v for v in (p01, p02, p03, p12, p13, p23))
        remainder = math.remainder

        def contains(y) -> bool:
            a, b, w = y[0] - e0, y[1] - e1, y[2] - e2
            d = remainder(y[3] - e3, TWO_PI)
            return (a * (p00 * a + q01 * b + q02 * w + q03 * d)
                    + b * (p11 * b + q12 * w + q13 * d)
                    + w * (p22 * w + q23 * d) + p33 * d * d) < c

        self.contains = contains


def stable_basin(params: SgParameters, equilibria) -> LocalBasin | None:
    """The proven local basin of the stable equilibrium in ``equilibria``.

    None when there is no stable equilibrium or no level can be proven;
    no run is then classified as converged.  Each basin is
    built once per (params, point) and then served from a cache, so asking
    for it per trajectory costs a dictionary lookup.
    """
    for pt in equilibria:
        if pt.classification is Stability.STABLE:
            return _basin_of(params, pt)
    return None


@lru_cache(maxsize=32)
def _basin_of(params: SgParameters, point: EquilibriumPoint) -> LocalBasin | None:
    try:
        P, c, _ = local_basin(params, point)
    except NumericalError:
        return None
    return LocalBasin(point, P, c)
