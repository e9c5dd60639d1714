"""Exact swing equation (ESE) and its forced-pendulum normal form.

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
``ESE_MODEL`` describes its right-hand side once, the forcing f included,
as ``core.RhsSource`` expression source: ``ese_rhs_fn`` builds its closure
from it, the integrator writes it into its stages, and ``gamma_along``
evaluates its f.
There is a one-to-one correspondence between ESE solutions and full-model
solutions with matching initial data.

In normalised time s = t/rho with psi(s) = eta(rho s), the ESE takes the
standard forced-pendulum form  psi'' + alpha psi' + sin(psi) = beta +
gamma(s), with gamma determined by f and by P(s) = p * Im w(rho s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    DerivedConstants,
    RhsSource,
    SgParameters,
    SgState,
    derive_constants,
    model_rhs,
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


def eta_from_delta(delta, dc: DerivedConstants):
    """Shifted angle eta = 3*pi/2 + delta + phi of a power angle (float or array)."""
    return 1.5 * math.pi + delta + dc.phi


def delta_from_eta(eta, dc: DerivedConstants):
    """Invert ``eta_from_delta``."""
    return eta - 1.5 * math.pi - dc.phi


# The ESE with p = R_s/L_s, m = m_if, k_mem = m_if^2 p / L_s, torque0 =
# T_m - D_p omega_g, sin_amp = m_if i_v and shift = delta0 + phi.  f reads
# the accumulated rotor phase theta = eta - eta0 + omega_g t; rate = omega.
ESE_MODEL = RhsSource(
    state=tuple(f.name for f in fields(EseState)),
    constants=("p", "omega_g", "m", "k_mem", "D_p", "torque0", "sin_amp", "J",
               "eta0", "i_d0", "i_q0", "m_over_L", "i_v", "shift"),
    prelude=("theta = eta - eta0 + omega_g * t",
             "forcing = (-sin(theta) * i_d0 + cos(theta) * i_q0 - m_over_L * sin(theta)"
             " - i_v * cos(theta + shift))",
             "rate = eta_dot + omega_g"),
    derivative=("eta_dot",
                "(torque0 + m * exp(-p * t) * forcing - k_mem * w_im - D_p * eta_dot"
                " - sin_amp * sin(eta)) / J",
                "1.0 - p * w_re - rate * w_im",
                "-p * w_im + rate * w_re"),
)


def ese_from_full(state: SgState, params: SgParameters) -> tuple:
    """Initial ESE state and forcing data matching a full-model state.

    Returns (EseState, init_currents) with init_currents = (i_d0, i_q0,
    delta0); the memory state starts at zero.
    """
    eta0 = eta_from_delta(state.delta, derive_constants(params))
    ese = EseState(eta0, state.omega - params.omega_g, 0.0, 0.0)
    return ese, (state.i_d, state.i_q, state.delta)


def ese_rhs_fn(params: SgParameters, init_currents):
    """Right-hand side of the ESE realisation, the ``core.model_rhs`` of
    ``ESE_MODEL``: ``y = (eta, eta_dot, w_re, w_im)``; ``init_currents`` =
    (i_d0, i_q0, delta0) fixes the forcing term f for this trajectory.
    """
    dc = derive_constants(params)
    i_d0, i_q0, delta0 = (float(v) for v in init_currents)
    m, p = params.m_if, dc.p
    return model_rhs(ESE_MODEL, (
        p, params.omega_g, m, m**2 * p / params.L_s, params.D_p,
        params.T_m - params.D_p * params.omega_g, m * dc.i_v, params.J,
        eta_from_delta(delta0, dc), i_d0, i_q0, m / params.L_s, dc.i_v, delta0 + dc.phi))


def gamma_along(times, states, params: SgParameters, init_currents) -> tuple:
    """Pendulum forcing gamma and memory term P along a sampled ESE trajectory.

    ``states`` has rows (eta, eta_dot, w_re, w_im).  P(s) = p * Im w
    carries the convolution of the stator dynamics; along any trajectory
    |P| < 1 and, at steady rotor speed omega_g, P -> P_inf.
    gamma = e^{-p t} f(t)/i_v + V_r (P_inf - P), with f read from
    ``ESE_MODEL``'s prelude and its constants set once.
    """
    dc = derive_constants(params)
    f = model_rhs(ESE_MODEL._replace(derivative=("forcing",)),
                  ese_rhs_fn(params, init_currents).model_constants)
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    fvals = np.array([f(t, y)[0] for t, y in zip(times.tolist(), states.tolist())])
    P = dc.p * states[:, 3]
    gamma = np.exp(-dc.p * times) * fvals / dc.i_v + dc.V_r * (dc.P_inf - P)
    return gamma, P
