"""Independent formulas that tests check the package against.

Each is a few lines of algebra written apart from the package, so a test
that compares one with the package's own path checks a model fact.
"""

import math

import numpy as np

import swingcert as sc


def a0_closed_form(params, delta_e: float) -> float:
    """Constant characteristic coefficient at an equilibrium angle.

    a0 = m_if V sqrt(p^2 + omega_g^2) / (J L_s) * sin(delta_e + phi); its
    sign decides between the two equilibrium branches.
    """
    root = math.hypot(params.R_s / params.L_s, params.omega_g)
    phi = sc.derive_constants(params).phi
    return params.m_if * params.V * root / (params.J * params.L_s) * math.sin(delta_e + phi)


def scaled_residual(state, params) -> float:
    """Norm of the model's four equations at ``state``, written out here,
    each divided by its magnitude (V, V, T_m, omega_g): zero at an exact
    equilibrium."""
    i_d, i_q, w, d = state.i_d, state.i_q, state.omega, state.delta
    R, L, V = params.R_s, params.L_s, params.V
    return math.hypot((-R * i_d + w * L * i_q + V * math.sin(d)) / V,
                      (-w * L * i_d - R * i_q - params.m_if * w + V * math.cos(d)) / V,
                      (params.m_if * i_q - params.D_p * w + params.T_m) / params.T_m,
                      (w - params.omega_g) / params.omega_g)


def storage_energy(y, params) -> tuple:
    """Stored energy W, its rate along ``full_rhs``, and the ceiling C.

    W = (L_s i_d^2 + L_s i_q^2 + J omega^2) / 2 at y = (i_d, i_q, omega,
    delta).  Completing squares on the rate gives dW/dt <= C with
    C = V^2/(2 R_s) + T_m^2/(4 D_p) for every state, which is what keeps
    trajectories bounded.
    """
    i_d, i_q, omega, _ = y
    di_d, di_q, domega, _ = sc.full_rhs(params)(0.0, list(y))
    W = 0.5 * (params.L_s * (i_d**2 + i_q**2) + params.J * omega**2)
    Wdot = params.L_s * (i_d * di_d + i_q * di_q) + params.J * omega * domega
    C = params.V**2 / (2.0 * params.R_s) + params.T_m**2 / (4.0 * params.D_p)
    return W, Wdot, C


def piecewise_sine(pieces, tau):
    """A ``certificate._pieces`` table at tau: sin(omega tau + phase) of the
    piece whose [start, end) holds tau, the last piece closed at its end;
    NaN outside the table."""
    t = np.asarray(tau, dtype=float)
    out = np.full(t.shape, np.nan)
    for i, (start, end, omega, phase) in enumerate(pieces):
        on = (start <= t) & ((t < end) | ((i == len(pieces) - 1) & (t == end)))
        out = np.where(on, np.sin(omega * t + phase), out)
    return out[()]
