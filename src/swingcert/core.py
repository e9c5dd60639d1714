"""Core model of a grid-connected round-rotor synchronous generator.

The machine has constant field current, no damper windings and a single
pole pair; the grid is an infinite bus with line voltage magnitude ``V``
and frequency ``omega_g``.  In the rotor (dq) frame the state variables
are the stator currents ``i_d``, ``i_q`` (A), the rotor speed ``omega``
(rad/s) and the power angle ``delta = theta - theta_g`` (rad), and the
dynamics are

    L_s di_d/dt = -R_s i_d + omega L_s i_q + V sin(delta)
    L_s di_q/dt = -omega L_s i_d - R_s i_q - m_if omega + V cos(delta)
    J  domega/dt = m_if i_q - D_p omega + T_m
    ddelta/dt    = omega - omega_g

``m_if`` is the field flux m*i_f (V*s), with m = sqrt(3/2)*M_f.  All
quantities are SI; angles are kept unwrapped (real line), with explicit
mod-2*pi helpers where a computation needs a representative angle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi

PARAM_KEYS = ("J", "D_p", "T_m", "m_if", "L_s", "R_s", "V", "omega_g")


class ParameterError(ValueError):
    """A physical parameter violates its validity constraints."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or cross-checks disagree."""


def config_float(key: str, value) -> float:
    """A config value as a float: a number, or a string that ``float``
    parses.  Null, booleans, lists, objects, unparsable strings and
    integers beyond the float range raise ParameterError naming ``key``."""
    if not isinstance(value, bool) and isinstance(value, (numbers.Real, str)):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ParameterError(f"value of {key!r} must be a number, got {value!r}")


def wrap_angle(angle):
    """Reduce an angle to the half-open interval [-pi, pi)."""
    return (angle + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class SgParameters:
    """Physical parameters of the grid-connected machine (all SI, all > 0).

    J        rotor inertia, kg*m^2/rad
    D_p      damping + frequency-droop constant, N*m*s/rad
    T_m      mechanical torque constant, N*m
    m_if     field flux m*i_f, V*s
    L_s      synchronous inductance L + M, H
    R_s      stator resistance, Ohm
    V        grid line voltage magnitude, V
    omega_g  grid angular frequency, rad/s
    """

    J: float
    D_p: float
    T_m: float
    m_if: float
    L_s: float
    R_s: float
    V: float
    omega_g: float

    def __post_init__(self):
        for name in PARAM_KEYS:
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ParameterError(
                    f"parameter {name!r} must be finite and > 0, got {value!r}"
                )

    def replace(self, **changes) -> "SgParameters":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {name: float(getattr(self, name)) for name in PARAM_KEYS}

    @classmethod
    def from_dict(cls, data: dict) -> "SgParameters":
        unknown = set(data) - set(PARAM_KEYS)
        if unknown:
            raise ParameterError(f"unknown parameter key {sorted(unknown)[0]!r}")
        missing = set(PARAM_KEYS) - set(data)
        if missing:
            raise ParameterError(f"missing parameter key {sorted(missing)[0]!r}")
        return cls(**{name: config_float(name, data[name]) for name in PARAM_KEYS})


@dataclass(frozen=True)
class SgState:
    """State of the fourth-order model: (i_d, i_q, omega, delta)."""

    i_d: float
    i_q: float
    omega: float
    delta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.i_d, self.i_q, self.omega, self.delta])


@dataclass(frozen=True)
class DerivedConstants:
    """Normalised quantities derived from a parameter set.

    p       = R_s / L_s, the stator corner frequency (rad/s)
    i_v     = V / (L_s sqrt(p^2 + omega_g^2)), the grid-driven current scale (A)
    V_r     = m_if / (L_s i_v), field-to-grid voltage ratio (dimensionless)
    rho     time normalisation sqrt(J / (m_if i_v)); s = t / rho
    P_inf   = p omega_g / (omega_g^2 + p^2), steady value of the stator
              memory term, always in (0, 1/2]
    alpha   dimensionless damping D_p / sqrt(m_if i_v J)
    beta    dimensionless torque bias (T_m - D_p omega_g)/(m_if i_v) - V_r P_inf
    Gamma   = (1 + P_inf) V_r, a-priori bound on the swing-equation forcing
    phi     angle in (0, pi/2) with sin(phi) = omega_g / sqrt(p^2 + omega_g^2)
    Lambda  equilibrium cosine: equilibria exist iff |Lambda| <= 1; equals -beta
    omega_g grid frequency, carried through for coordinate maps (rad/s)
    """

    p: float
    i_v: float
    V_r: float
    rho: float
    P_inf: float
    alpha: float
    beta: float
    Gamma: float
    phi: float
    Lambda: float
    omega_g: float


def derive_constants(params: SgParameters) -> DerivedConstants:
    """Compute the normalised constants for a parameter set.

    ``Lambda`` is evaluated both from its defining expression and as
    ``-beta``; the two agree analytically, and a relative discrepancy above
    1e-12 indicates a transcription bug, reported as NumericalError.
    """
    p = params.R_s / params.L_s
    omega_g = params.omega_g
    root = math.hypot(p, omega_g)
    i_v = params.V / (params.L_s * root)
    V_r = params.m_if / (params.L_s * i_v)
    rho = math.sqrt(params.J / (params.m_if * i_v))
    P_inf = p * omega_g / (omega_g**2 + p**2)
    alpha = params.D_p / math.sqrt(params.m_if * i_v * params.J)
    beta = (params.T_m - params.D_p * omega_g) / (params.m_if * i_v) - V_r * P_inf
    Gamma = (1.0 + P_inf) * V_r
    phi = math.atan2(omega_g, p)

    iq_e = (params.D_p * omega_g - params.T_m) / params.m_if
    Lambda = iq_e * params.L_s * root / params.V + params.m_if * omega_g * p / (
        params.V * root
    )
    scale = max(abs(Lambda), abs(beta), 1e-300)
    if abs(Lambda + beta) > 1e-12 * scale:
        raise NumericalError(
            f"consistency check failed: Lambda={Lambda!r} vs -beta={-beta!r}"
        )
    return DerivedConstants(
        p=p, i_v=i_v, V_r=V_r, rho=rho, P_inf=P_inf, alpha=alpha, beta=beta,
        Gamma=Gamma, phi=phi, Lambda=Lambda, omega_g=omega_g,
    )


def emf(theta: float, omega: float, m_if: float) -> np.ndarray:
    """Three-phase electromotive force at rotor angle theta and speed omega.

    Per-phase amplitude is M_f i_f omega with M_f i_f = m_if / sqrt(3/2);
    in the dq frame this is (e_d, e_q) = (0, -m_if omega).
    """
    amp = m_if / math.sqrt(1.5) * omega
    return amp * np.array(
        [math.sin(theta), math.sin(theta - TWO_PI / 3.0), math.sin(theta + TWO_PI / 3.0)]
    )


def full_rhs(params: SgParameters):
    """Right-hand side of the fourth-order model as a fast ``f(t, y)`` closure.

    ``y = (i_d, i_q, omega, delta)``.  The angle is reduced with IEEE
    remainder before the trigonometric evaluation, which makes the closure
    exactly 2*pi-periodic in delta.
    """
    p = params.R_s / params.L_s
    a = params.m_if / params.L_s
    VL = params.V / params.L_s
    mi_J = params.m_if / params.J
    Dp_J = params.D_p / params.J
    Tm_J = params.T_m / params.J
    omega_g = params.omega_g

    def rhs(t, y):
        i_d, i_q, omega, delta = y
        r = math.remainder(delta, TWO_PI)
        s, c = math.sin(r), math.cos(r)
        return (
            -p * i_d + omega * i_q + VL * s,
            -omega * i_d - p * i_q - a * omega + VL * c,
            mi_J * i_q - Dp_J * omega + Tm_J,
            omega - omega_g,
        )

    return rhs


def residual_scale(params: SgParameters) -> np.ndarray:
    """Per-component magnitude scale of the model right-hand side."""
    return np.array(
        [
            params.V / params.L_s,
            params.V / params.L_s,
            params.T_m / params.J,
            params.omega_g,
        ]
    )


def scaled_residual(state: SgState, params: SgParameters) -> float:
    """Norm of the model right-hand side at ``state``, scaled by
    per-component magnitudes."""
    r = np.asarray(full_rhs(params)(0.0, state.as_array().tolist()))
    return float(np.linalg.norm(r / residual_scale(params)))


def storage_energy(state: SgState, params: SgParameters) -> tuple:
    """Stored energy W, its rate of change, and the dissipation ceiling C.

    W = (L_s i_d^2 + L_s i_q^2 + J omega^2) / 2.  Completing squares on the
    rate gives dW/dt <= C with C = V^2/(2 R_s) + T_m^2/(4 D_p) for every
    state, which is what keeps trajectories bounded.
    """
    i_d, i_q, omega, delta = state.i_d, state.i_q, state.omega, state.delta
    W = 0.5 * (params.L_s * (i_d**2 + i_q**2) + params.J * omega**2)
    Wdot = (
        -params.R_s * (i_d**2 + i_q**2)
        - params.D_p * omega**2
        + params.V * i_d * math.sin(delta)
        + params.V * i_q * math.cos(delta)
        + params.T_m * omega
    )
    C = params.V**2 / (2.0 * params.R_s) + params.T_m**2 / (4.0 * params.D_p)
    return W, Wdot, C
