"""Synchronverter parameter synthesis from nominal ratings.

Sizing follows standard machine/inverter practice: droop constant from
the percent-droop requirement, inertia from a target inertia constant H,
filter inductance and resistance from percent voltage drops at nominal
current, and field flux from the steady-state EMF at unity power factor.
The virtual-inductor transformation scales the effective stator
inductance and resistance by a factor n in software only; the inverter
then commands g = ((n-1) v + e) / n per phase.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .core import ParameterError, SgParameters, config_float


@dataclass(frozen=True)
class NominalSpec:
    """Nominal ratings and sizing targets.

    P_n         nominal active power, W
    V           grid line voltage magnitude, V (phase rms is V / sqrt(3))
    omega_g     grid angular frequency, rad/s
    d_p         frequency droop, percent (power increases by P_n when the
                rotor frequency drops by d_p percent of omega_g)
    H_seconds   inertia constant target (J omega_g^2 / 2) / P_n, s;
                customary range 2-12 s
    L_drop_pct  inductor voltage drop, percent of phase rms (usual 3-5)
    R_drop_pct  resistor voltage drop, percent of phase rms (usually <= 0.5)
    n           virtual-inductor factor, >= 1
    """

    P_n: float
    V: float
    omega_g: float
    d_p: float = 3.0
    H_seconds: float = 2.0
    L_drop_pct: float = 4.0
    R_drop_pct: float = 0.5
    n: float = 1.0

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if not math.isfinite(value) or value <= 0.0:
                raise ParameterError(
                    f"spec field {name!r} must be finite and > 0, got {value!r}"
                )
        if self.n < 1.0:
            raise ParameterError(f"virtual-inductor factor n must be >= 1, got {self.n!r}")

    @property
    def V_rms(self) -> float:
        return self.V / math.sqrt(3.0)

    @property
    def I_rms(self) -> float:
        return self.P_n / (3.0 * self.V_rms)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "NominalSpec":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ParameterError(f"unknown spec key {sorted(unknown)[0]!r}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
        if missing:
            raise ParameterError(f"missing spec key {sorted(missing)[0]!r}")
        return cls(**{k: config_float(k, v) for k, v in data.items()})


def _field_flux(V_rms: float, I_rms: float, omega_g: float, L_s: float) -> float:
    # Unity-power-factor steady state: the EMF phasor is the terminal
    # voltage plus the inductor drop in quadrature.
    e_rms = math.hypot(V_rms, omega_g * L_s * I_rms)
    return math.sqrt(3.0) * e_rms / omega_g


def field_flux(spec: NominalSpec, L_s: float) -> float:
    """Field flux m*i_f (V*s) matching the grid at unity power factor.

    e_rms = sqrt(V_rms^2 + (omega_g L_s I_rms)^2) and the per-phase EMF
    amplitude sqrt(2) e_rms equals (m_if / sqrt(3/2)) omega_g; as L_s -> 0
    this reduces to the grid-matched value sqrt(3) V_rms / omega_g.
    """
    if L_s <= 0.0:
        raise ParameterError(f"L_s must be > 0, got {L_s!r}")
    return _field_flux(spec.V_rms, spec.I_rms, spec.omega_g, L_s)


def size_parameters(spec: NominalSpec) -> SgParameters:
    """Size machine parameters from nominal ratings (n is not applied here;
    see ``apply_virtual_inductor``).

    T_a = P_n / omega_g, D_p = 100 P_n / (d_p omega_g^2), T_m = T_a +
    D_p omega_g, J = 2 H P_n / omega_g^2; L_s and R_s from the percent
    drops at nominal current; m_if from ``field_flux``.
    """
    omega_g = spec.omega_g
    T_a = spec.P_n / omega_g
    D_p = 100.0 * spec.P_n / (spec.d_p * omega_g**2)
    T_m = T_a + D_p * omega_g
    J = 2.0 * spec.H_seconds * spec.P_n / omega_g**2
    L_s = (spec.L_drop_pct / 100.0) * spec.V_rms / (omega_g * spec.I_rms)
    R_s = (spec.R_drop_pct / 100.0) * spec.V_rms / spec.I_rms
    m_if = _field_flux(spec.V_rms, spec.I_rms, omega_g, L_s)
    return SgParameters(J=J, D_p=D_p, T_m=T_m, m_if=m_if, L_s=L_s, R_s=R_s,
                        V=spec.V, omega_g=omega_g)


def nominal_power(params: SgParameters) -> float:
    """Nominal active power implied by the sizing: P_n = (T_m - D_p omega_g) omega_g."""
    return (params.T_m - params.D_p * params.omega_g) * params.omega_g


def apply_virtual_inductor(params: SgParameters, n: float) -> SgParameters:
    """Scale the effective stator inductance and resistance by n (>= 1).

    The field flux is re-fitted to the enlarged inductance at the nominal
    operating point recovered from the parameters, so the machine still
    matches the grid at unity power factor.  p = R_s / L_s is invariant,
    and the dimensionless damping grows like sqrt(n) up to the (small)
    field-flux adjustment.
    """
    if not (math.isfinite(n) and n >= 1.0):
        raise ParameterError(f"virtual-inductor factor n must be >= 1, got {n!r}")
    P_n = nominal_power(params)
    if P_n <= 0.0:
        raise ParameterError(
            "parameters imply non-positive nominal power; cannot re-fit field flux"
        )
    V_rms = params.V / math.sqrt(3.0)
    I_rms = P_n / (3.0 * V_rms)
    L_s = n * params.L_s
    m_if = _field_flux(V_rms, I_rms, params.omega_g, L_s)
    return params.replace(L_s=L_s, R_s=n * params.R_s, m_if=m_if)


def inverter_voltage_command(v_abc, e_abc, n: float) -> np.ndarray:
    """Per-phase inverter voltage command g = ((n-1) v + e) / n.

    n = 1 passes the synchronous internal voltage straight through; as
    n grows the command approaches the grid voltage.
    """
    if not (math.isfinite(n) and n >= 1.0):
        raise ParameterError(f"virtual-inductor factor n must be >= 1, got {n!r}")
    v = np.asarray(v_abc, dtype=float)
    e = np.asarray(e_abc, dtype=float)
    return ((n - 1.0) * v + e) / n
