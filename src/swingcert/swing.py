"""Exact swing equation (ESE) and the generic forced pendulum.

Eliminating the stator currents from the fourth-order model leaves an
integro-differential equation for the shifted angle
eta = 3*pi/2 + delta + phi:

    J eta'' + D_p eta' + m_if i_v sin(eta)
        = T_m - D_p omega_g + m_if e^{-p t} f(t)
          - (m_if^2 p / L_s) Int_0^t e^{-p(t-tau)}
                sin[eta(t) - eta(tau) + omega_g (t - tau)] dtau,

where f is a bounded function of the initial currents and the accumulated
rotor phase.  The convolution is realised exactly by the complex memory
state

    w' = 1 + (-p + i omega(t)) w,   w(0) = 0,

whose imaginary part equals the integral, so the ESE becomes a plain
four-state ODE (eta, eta', Re w, Im w) -- O(1) memory, no stored history.
There is a one-to-one correspondence between ESE solutions and full-model
solutions with matching initial data.

In normalised time s = t/rho with psi(s) = eta(rho s), the ESE takes the
standard forced-pendulum form  psi'' + alpha psi' + sin(psi) = beta +
gamma(s), with gamma determined by f and by P(s) = p * Im w(rho s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DerivedConstants,
    SgParameters,
    SgState,
    derive_constants,
)


@dataclass(frozen=True)
class EseState:
    """ESE state: angle eta (rad), rate eta_dot (rad/s), memory w (complex).

    Along any trajectory started from w = 0, |w(t)| <= (1 - e^{-p t}) / p.
    """

    eta: float
    eta_dot: float
    w_re: float
    w_im: float

    def as_array(self) -> np.ndarray:
        return np.array([self.eta, self.eta_dot, self.w_re, self.w_im])


@dataclass(frozen=True)
class PendulumParams:
    """Forced pendulum psi'' + alpha psi' + sin(psi) = beta + gamma(t).

    ``forcing`` is the time function gamma (None means zero).
    """

    alpha: float
    beta: float
    forcing: object = None

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha!r}")


def eta_from_delta(delta, dc: DerivedConstants):
    """Shifted angle eta = 3*pi/2 + delta + phi of a power angle (float or array)."""
    return 1.5 * math.pi + delta + dc.phi


def delta_from_eta(eta, dc: DerivedConstants):
    """Invert ``eta_from_delta``."""
    return eta - 1.5 * math.pi - dc.phi


def ese_from_full(state: SgState, params: SgParameters) -> tuple:
    """Initial ESE state and forcing data matching a full-model state.

    Returns (EseState, init_currents) with init_currents = (i_d0, i_q0,
    delta0); the memory state starts at zero.
    """
    eta0 = eta_from_delta(state.delta, derive_constants(params))
    ese = EseState(eta0, state.omega - params.omega_g, 0.0, 0.0)
    return ese, (state.i_d, state.i_q, state.delta)


def _f_closure(params: SgParameters, dc: DerivedConstants, init_currents):
    """The bounded forcing function f(t) for given initial data.

    Evaluated from the accumulated rotor phase Theta(t) = eta(t) - eta(0)
    + omega_g t, which the ESE state carries implicitly.
    """
    i_d0, i_q0, delta0 = (float(v) for v in init_currents)
    eta0 = eta_from_delta(delta0, dc)
    m_over_L = params.m_if / params.L_s
    shift = delta0 + dc.phi
    omega_g = params.omega_g
    i_v = dc.i_v

    def f(t, eta):
        theta = eta - eta0 + omega_g * t
        return (
            -math.sin(theta) * i_d0
            + math.cos(theta) * i_q0
            - m_over_L * math.sin(theta)
            - i_v * math.cos(theta + shift)
        )

    return f


def ese_rhs_fn(params: SgParameters, init_currents):
    """Right-hand side of the ESE realisation as a fast ``f(t, y)`` closure.

    ``y = (eta, eta_dot, w_re, w_im)``; ``init_currents`` = (i_d0, i_q0,
    delta0) fixes the forcing term f for this trajectory.
    """
    dc = derive_constants(params)
    f = _f_closure(params, dc, init_currents)
    p = dc.p
    omega_g = params.omega_g
    m = params.m_if
    k_mem = params.m_if**2 * p / params.L_s
    D_p = params.D_p
    torque0 = params.T_m - D_p * omega_g
    sin_amp = m * dc.i_v
    J = params.J

    def rhs(t, y):
        eta, eta_dot, w_re, w_im = y
        omega = eta_dot + omega_g
        eta_dd = (
            torque0
            + m * math.exp(-p * t) * f(t, eta)
            - k_mem * w_im
            - D_p * eta_dot
            - sin_amp * math.sin(eta)
        ) / J
        return (
            eta_dot,
            eta_dd,
            1.0 - p * w_re - omega * w_im,
            -p * w_im + omega * w_re,
        )

    return rhs


def _decaying_forcing(times, states, params: SgParameters, init_currents) -> tuple:
    """(dc, states, e^{-p t} f(t)) along a sampled ESE trajectory, with
    ``derive_constants`` and f built once for the whole trajectory."""
    dc = derive_constants(params)
    f = _f_closure(params, dc, init_currents)
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    fvals = np.array([f(t, eta) for t, eta in zip(times, states[:, 0])])
    return dc, states, np.exp(-dc.p * times) * fvals


def gamma_along(times, states, params: SgParameters, init_currents) -> tuple:
    """Pendulum forcing gamma and memory term P along a sampled ESE trajectory.

    ``states`` has rows (eta, eta_dot, w_re, w_im).  P(s) = p * Im w
    carries the convolution of the stator dynamics; along any trajectory
    |P| < 1 and, at steady rotor speed omega_g, P -> P_inf.
    gamma = e^{-p t} f(t)/i_v + V_r (P_inf - P).
    """
    dc, states, forced = _decaying_forcing(times, states, params, init_currents)
    P = dc.p * states[:, 3]
    gamma = forced / dc.i_v + dc.V_r * (dc.P_inf - P)
    return gamma, P


def reconstruct_iq(times, states, params: SgParameters, init_currents) -> np.ndarray:
    """Quadrature stator current implied by a sampled ESE trajectory.

    i_q = -i_v sin(eta) - (m_if p / L_s) Im w + e^{-p t} f(t); matches the
    full-model i_q for matched initial data.
    """
    dc, states, forced = _decaying_forcing(times, states, params, init_currents)
    return (
        -dc.i_v * np.sin(states[:, 0])
        - params.m_if * dc.p / params.L_s * states[:, 3]
        + forced
    )


def pendulum_rhs_fn(pparams: PendulumParams):
    """(psi', psi'') of the forced pendulum as an ``f(t, y)`` closure, y = (psi, psi')."""
    alpha, beta, forcing = pparams.alpha, pparams.beta, pparams.forcing

    def rhs(t, y):
        psi, psi_dot = y
        gamma = forcing(t) if forcing is not None else 0.0
        return psi_dot, -alpha * psi_dot - math.sin(psi) + beta + gamma

    return rhs


def pendulum_energy(psi, psi_dot):
    """E = psi'^2 / 2 + (1 - cos psi); nonnegative."""
    return 0.5 * np.asarray(psi_dot) ** 2 + (1.0 - np.cos(psi))


def to_pendulum_coords(state: SgState, dc: DerivedConstants) -> tuple:
    """Normalised pendulum coordinates (psi, psi') for a full-model state.

    psi = eta, the shifted angle, and psi' = rho (omega - omega_g), the
    angle rate with respect to normalised time s = t / rho.
    """
    return eta_from_delta(state.delta, dc), dc.rho * (state.omega - dc.omega_g)


def from_pendulum_coords(psi: float, psi_prime: float, dc: DerivedConstants) -> tuple:
    """Invert ``to_pendulum_coords``; returns (delta, omega)."""
    return delta_from_eta(psi, dc), psi_prime / dc.rho + dc.omega_g
