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
from itertools import combinations

import numpy as np

from .core import (
    NumericalError,
    ParameterError,
    SgParameters,
    SgState,
    derive_constants,
    scaled_residual,
)

# Unit-cosine clamp for the arccos argument at the |Lambda| = 1 boundary.
_COS_CLAMP = 1e-12

# Hyperbolicity band, relative to the spectral scale max|eigenvalue|.
HYPERBOLICITY_REL_BAND = 1e-7

# Residual ceiling (scaled) for a state to be accepted as an equilibrium.
EQUILIBRIUM_RESIDUAL_TOL = 1e-6


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


def _linearize_at(params: SgParameters, state: SgState) -> np.ndarray:
    p = params.R_s / params.L_s
    return np.array(
        [
            [-p, params.omega_g, state.i_q, params.V * math.cos(state.delta) / params.L_s],
            [
                -params.omega_g,
                -p,
                -state.i_d - params.m_if / params.L_s,
                -params.V * math.sin(state.delta) / params.L_s,
            ],
            [0.0, params.m_if / params.J, -params.D_p / params.J, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )


def linearize(params: SgParameters, eq: EquilibriumPoint | SgState) -> np.ndarray:
    """Jacobian of the model at an equilibrium point (4x4 real matrix)."""
    state = eq.state if isinstance(eq, EquilibriumPoint) else eq
    res = scaled_residual(state, params)
    if res > EQUILIBRIUM_RESIDUAL_TOL:
        raise ParameterError(
            f"state is not an equilibrium: scaled residual {res:.3e} exceeds "
            f"{EQUILIBRIUM_RESIDUAL_TOL:.1e}"
        )
    return _linearize_at(params, state)


def char_poly(matrix) -> tuple:
    """Coefficients (a3, a2, a1, a0) of det(sI - A) = s^4 + a3 s^3 + ... + a0.

    Computed from sums of principal minors, so a0 equals det(A) exactly as
    evaluated by the same routine.
    """
    A = np.asarray(matrix, dtype=float)
    if A.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {A.shape}")
    minor_sums = []
    for k in (1, 2, 3, 4):
        total = 0.0
        for idx in combinations(range(4), k):
            sub = A[np.ix_(idx, idx)]
            total += float(np.linalg.det(sub))
        minor_sums.append(total)
    e1, e2, e3, e4 = minor_sums
    return (-e1, e2, -e3, e4)


def quartic_eigenvalues(coeffs) -> np.ndarray:
    """Roots of s^4 + a3 s^3 + a2 s^2 + a1 s + a0.

    Companion-matrix solve (np.roots) followed by one Newton polish per
    root; sorted by (real, imag) for determinism.
    """
    a3, a2, a1, a0 = (float(c) for c in coeffs)
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
        coeffs = char_poly(_linearize_at(params, state))
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


# The proven level of the local basin is multiplied by this factor, so
# rounding in P and in the bound cannot carry the set past it.
_BASIN_LEVEL_SHRINK = 0.5

# Log grid of Lyapunov weights on omega and delta (the currents weigh 1),
# each relative to the state's scale; every pair is tried in one pass.
_BASIN_WEIGHTS = np.logspace(1.0, 7.0, 13)


def local_basin(params: SgParameters, eq: EquilibriumPoint) -> tuple:
    """Lyapunov ellipsoid ``x^T P x < c`` proven to lie in the basin of ``eq``.

    ``x = y - y_e`` with the delta component wrapped by ``math.remainder``.
    P solves ``A^T P + P A = -Q`` for the Jacobian A of ``linearize`` (a
    16x16 Kronecker solve).  Along the model,
    ``dV/dt = -x^T Q' x + 2 (Px)_1 r_1 + 2 (Px)_2 r_2`` with
    ``Q' = -(A^T P + P A)`` as computed and the remainders
    ``|r_1| <= |x_w x_iq| + V/L_s x_delta^2/2`` and
    ``|r_2| <= |x_w x_id| + V/L_s x_delta^2/2`` (the other two equations
    are linear).  On ``V = v``, ``|x_i| <= sqrt(v (P^-1)_ii)`` and
    ``|(Px)_k| <= sqrt(v P_kk)``, so
    ``dV/dt <= -lam v + 2 v^(3/2) sum_k sqrt(P_kk) G_k`` with
    ``lam = min eig(P^-1 Q')`` and ``G_k`` the remainder coefficients.
    That is negative for ``0 < v < c* = (lam / (2 sum_k sqrt(P_kk) G_k))^2``;
    c is ``c*`` times ``_BASIN_LEVEL_SHRINK``.  Every sublevel set below c
    is therefore invariant and every trajectory in it converges to ``eq``
    (Khalil, Nonlinear Systems, Sec. 8.2).

    Q is ``diag(1, 1, w_omega, w_delta) / scales^2`` over the
    ``_BASIN_WEIGHTS`` grid; the P kept has the largest smallest half-extent
    ``sqrt(c (P^-1)_ii)`` relative to the state scales.  Returns ``(P, c)``.
    """
    if eq.classification is not Stability.STABLE:
        raise ValueError("a local basin needs a stable equilibrium")
    A = linearize(params, eq)
    s = eq.state
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
    c = _BASIN_LEVEL_SHRINK * (np.maximum(lam, 0.0) / (2.0 * S)) ** 2
    extent = np.min(np.sqrt(c[:, None] * P_inv) / scales, axis=1)
    best = int(np.argmax(extent))
    if not extent[best] > 0.0:
        raise NumericalError("no Lyapunov weight gives a proven local basin")
    return P[best], float(c[best])


def a0_closed_form(params: SgParameters, delta_e: float) -> float:
    """Constant characteristic coefficient at an equilibrium angle.

    a0 = m_if V sqrt(p^2 + omega_g^2) / (J L_s) * sin(delta_e + phi); its
    sign decides between the two equilibrium branches.
    """
    dc = derive_constants(params)
    root = math.hypot(dc.p, params.omega_g)
    return (
        params.m_if * params.V * root / (params.J * params.L_s)
        * math.sin(delta_e + dc.phi)
    )
