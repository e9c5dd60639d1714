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
from dataclasses import MISSING, dataclass, fields, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


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


def record_from_dict(cls, data: dict, noun: str):
    """The config record ``cls`` (a dataclass) read from ``data``: every key
    must name a field and every field without a default must be present,
    else ParameterError names the first offending key in sorted order as an
    unknown or missing ``noun`` key; each value goes through
    ``config_float``, in field order."""
    names = [f.name for f in fields(cls)]
    unknown = set(data) - set(names)
    if unknown:
        raise ParameterError(f"unknown {noun} key {sorted(unknown)[0]!r}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
    if missing:
        raise ParameterError(f"missing {noun} key {sorted(missing)[0]!r}")
    return cls(**{name: config_float(name, data[name]) for name in names if name in data})


def require_positive(record, noun: str) -> None:
    """Raise ParameterError naming the first field of the dataclass
    ``record``, as ``noun`` 'name', that is not finite and > 0."""
    for f in fields(record):
        value = getattr(record, f.name)
        if not math.isfinite(value) or value <= 0.0:
            raise ParameterError(f"{noun} {f.name!r} must be finite and > 0, got {value!r}")


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
        require_positive(self, "parameter")

    def replace(self, **changes) -> "SgParameters":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SgParameters":
        return record_from_dict(cls, data, "parameter")


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
    1e-12 indicates a transcription bug, reported as NumericalError.  So
    are a non-finite Lambda or beta, and an alpha or Gamma, which the
    certificate divides by, whose reciprocal overflows.
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
    if not (math.isfinite(Lambda) and math.isfinite(beta)):
        raise NumericalError(f"Lambda = {Lambda!r} and beta = {beta!r} must be finite")
    for name, value in (("alpha", alpha), ("Gamma", Gamma)):
        if value == 0.0 or math.isinf(1.0 / value):
            raise NumericalError(f"1/{name} is not finite: {name} = {value!r}")
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


class RhsSource(NamedTuple):
    """A right-hand side ``f(t, y)`` as Python expression source.

    ``state`` names the components of y and ``constants`` the design
    constants; each evaluation runs the ``prelude`` assignments and then
    one ``derivative`` expression per component.  Besides these names the
    source reads only the time ``t`` and ``RHS_NAMESPACE``.
    """

    state: tuple
    constants: tuple
    prelude: tuple
    derivative: tuple

    @property
    def reads_time(self) -> bool:
        return "t" in compile("\n".join(self.prelude + self.derivative), "<rhs>", "exec").co_names


# The model's dynamics (module docstring) divided through by L_s and J, with
# p = R_s/L_s, a = m_if/L_s, VL = V/L_s, mi_J = m_if/J, Dp_J = D_p/J and
# Tm_J = T_m/J.  The angle is reduced with IEEE remainder before the
# trigonometric evaluation, which makes the rhs exactly 2*pi-periodic in delta.
FULL_MODEL = RhsSource(
    state=tuple(f.name for f in fields(SgState)),
    constants=("p", "a", "VL", "mi_J", "Dp_J", "Tm_J", "omega_g"),
    prelude=("r = remainder(delta, TWO_PI)", "s = sin(r)", "c = cos(r)"),
    derivative=("-p * i_d + omega * i_q + VL * s",
                "-omega * i_d - p * i_q - a * omega + VL * c",
                "mi_J * i_q - Dp_J * omega + Tm_J",
                "omega - omega_g"),
)
RHS_NAMESPACE = {"remainder": math.remainder, "sin": math.sin, "cos": math.cos,
                 "exp": math.exp, "TWO_PI": TWO_PI}


@lru_cache(maxsize=16)
def _rhs_factory(source: RhsSource):
    """``make(*constants)``: the closure ``rhs(t, y)`` that ``source``
    describes, for one set of constant values."""
    lines = [f"def make({', '.join(source.constants)}):",
             "    def rhs(t, y):",
             f"        {', '.join(source.state)} = y",
             *[f"        {line}" for line in source.prelude],
             f"        return ({', '.join(source.derivative)},)",
             "    return rhs"]
    namespace = {}
    exec(compile("\n".join(lines), "<model rhs>", "exec"), dict(RHS_NAMESPACE), namespace)
    return namespace["make"]


def model_rhs(source: RhsSource, constants: tuple):
    """The fast ``f(t, y)`` closure that ``source`` describes at the
    ``constants`` values, returning a tuple of floats.  It carries its
    description as ``model_source`` and the values as ``model_constants``,
    from which the integrator inlines it into its Dormand-Prince stages.
    """
    rhs = _rhs_factory(source)(*constants)
    rhs.model_source, rhs.model_constants = source, constants
    return rhs


def stacked_rhs(first, second):
    """The ``model_rhs`` of two such closures' systems side by side, y the
    first's state followed by the second's.  A constant both descriptions
    name must have one value; no other name may occur in both."""
    a, b = first.model_source, second.model_source
    values = dict(zip(a.constants, first.model_constants))
    for name, value in zip(b.constants, second.model_constants):
        if values.setdefault(name, value) != value:
            raise ValueError(f"the two descriptions differ in the constant {name!r}")
    source = RhsSource(a.state + b.state, tuple(values), a.prelude + b.prelude,
                       a.derivative + b.derivative)
    names = [*source.state, *source.constants, *(line.split()[0] for line in source.prelude)]
    if len(set(names)) < len(names):
        raise ValueError("the two descriptions bind a name twice")
    return model_rhs(source, tuple(values.values()))


def full_rhs(params: SgParameters):
    """Right-hand side of the fourth-order model, the ``model_rhs`` of
    ``FULL_MODEL``: ``y = (i_d, i_q, omega, delta)``."""
    return model_rhs(FULL_MODEL, (
        params.R_s / params.L_s, params.m_if / params.L_s, params.V / params.L_s,
        params.m_if / params.J, params.D_p / params.J, params.T_m / params.J, params.omega_g))

