"""Computable sufficient condition for almost global asymptotic stability.

For an assumed bound d on the pendulum forcing, the eventual angle rate of
the normalised swing equation is trapped in a band [omega_n, omega_p];
shifted by rho*omega_g this gives rotor-rate bounds omega_min_d <
omega_rho < omega_max_d.  When the band is tight enough
(omega_max_d <= 2 omega_min_d), one-sided sinusoid envelopes g and h of
the rotating phase give closed-form upper/lower bounds P_u^d, P_l^d on
the stator memory term P(s), and

    nscr(d) = V_r * max(P_u^d - P_inf, P_inf - P_l^d)

bounds the forcing the trajectory actually generates.  If nscr(d) < d for
every d in (0, Gamma] (and the band condition holds there), the assumed
bound contracts to zero: every trajectory converges to an equilibrium,
and with all equilibria hyperbolic the model is almost globally
asymptotically stable.

Each envelope is described once, as a table of sine pieces
(``_pieces``); the closed-form integrals and the periods both read that
table.  One grid pass (``_certificate_map``) computes the band, P_l, P_u
and nscr with array arithmetic; ``check_certificate`` and ``nscr`` both go
through it.

A finite grid cannot literally check "for all d"; ``check_certificate``
evaluates one fixed log-spaced grid (``certificate_grid``; no setting
changes it), reports the worst margin, and refuses to certify when the
relative margin is below a disclosed threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DerivedConstants, NumericalError, SgParameters, TWO_PI, derive_constants
from .csvtext import csv_rows
from .equilibria import Stability, solve_equilibria

_HALF_PI = 0.5 * math.pi

# Slack for floating-point comparisons on interval endpoints.
_EDGE_EPS = 1e-9

DEFAULT_GRID_POINTS = 2000
DEFAULT_GRID_FLOOR = 1e-6          # grid starts at Gamma * this
# Smallest relative margin min (d - nscr(d))/d that certifies.
REL_MARGIN_THRESHOLD = 1e-3

VERDICT_CERTIFIED = "certified-agas"
VERDICT_NOT_CERTIFIED = "not-certified"


@dataclass(frozen=True)
class VelocityBand:
    """Eventual bounds on the normalised rotor rate for a forcing bound d.

    When the rest angles exist (|beta| + d < 1) they are psi1, psi2; when
    the damping also clears the capture threshold (alpha > 2 sin(|psi_i|/2))
    the refined envelope angles phi1, phi2 apply; otherwise the fallback
    S_n = -1, S_p = 1 is used.  Every field is an array of the shape of d
    (0-d for a float d), and an undefined angle is NaN.  Always omega_n <
    omega_p and hence omega_min_d < omega_max_d.
    """

    d: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    S_n: np.ndarray
    S_p: np.ndarray
    omega_n: np.ndarray
    omega_p: np.ndarray
    omega_min_d: np.ndarray
    omega_max_d: np.ndarray
    refined: np.ndarray

    @property
    def band_ok(self) -> np.ndarray:
        """Envelope applicability: positive band with omega_max <= 2 omega_min."""
        return (self.omega_min_d > 0.0) & (self.omega_max_d <= 2.0 * self.omega_min_d)


def velocity_band(dc: DerivedConstants, d) -> VelocityBand:
    """Velocity trap for forcing bound d, a float or an array (see
    ``VelocityBand``); every d must be > 0."""
    d = np.asarray(d, dtype=float)
    if not (d > 0.0).all():
        raise ValueError(f"d must be > 0, got {d!r}")
    alpha, beta = dc.alpha, dc.beta
    rest = abs(beta) + d < 1.0
    # arcsin(NaN) is NaN, and NaN compares false, so points without rest
    # angles get NaN angles and are not refined.
    psi1 = np.arcsin(np.where(rest, beta + d, np.nan))
    psi2 = np.arcsin(np.where(rest, beta - d, np.nan))
    refined = (alpha > 2.0 * np.sin(np.abs(psi1) / 2.0)) & (
        alpha > 2.0 * np.sin(np.abs(psi2) / 2.0)
    )
    slack = 4.0 * d / alpha**2
    phi1 = np.where(refined, np.minimum(_HALF_PI, psi1 + slack), np.nan)
    phi2 = np.where(refined, np.maximum(-_HALF_PI, psi2 - slack), np.nan)
    S_n = np.where(refined, -np.sin(phi1), -1.0)
    S_p = np.where(refined, -np.sin(phi2), 1.0)
    omega_n = (S_n + beta - d) / alpha
    omega_p = (S_p + beta + d) / alpha
    shift = dc.rho * dc.omega_g
    return VelocityBand(
        d=d, psi1=psi1, psi2=psi2, phi1=phi1, phi2=phi2, S_n=S_n, S_p=S_p,
        omega_n=omega_n, omega_p=omega_p,
        omega_min_d=omega_n + shift, omega_max_d=omega_p + shift,
        refined=refined,
    )


def _check_band(omega_min, omega_max):
    if not np.all((0.0 < omega_min) & (omega_min <= omega_max * (1.0 + _EDGE_EPS))):
        raise ValueError(f"need 0 < omega_min <= omega_max, got {omega_min}, {omega_max}")
    if np.any(omega_max > 2.0 * omega_min * (1.0 + _EDGE_EPS)):
        raise ValueError(
            f"band condition omega_max <= 2 omega_min violated: {omega_max} > 2*{omega_min}"
        )


def _pieces(omega_min, omega_max) -> tuple:
    """Piece tables (g, h) of the two envelopes for the rate band.

    Each piece (start, end, omega, phase) is sin(omega*tau + phase) on
    [start, end); the plateaus +1 and -1 are omega = 0 with phase +-pi/2.
    g covers one fast period [0, 2*pi/omega_max]: the fast sine up to its
    crest, the plateau 1 until the slow sine crests, the slow sine down to
    the matching point, then the fast sine again.  h covers one slow period
    [0, 2*pi/omega_min]: the slow sine, the fast sine down to its trough,
    the plateau -1, then the slow sine back to zero.  The band may be
    scalars or arrays; requires omega_min <= omega_max <= 2 omega_min.
    """
    _check_band(omega_min, omega_max)
    b1 = math.pi / (2.0 * omega_max)
    b2 = math.pi / (2.0 * omega_min)
    b3 = 3.0 * math.pi / (omega_min + omega_max)
    c1 = math.pi / (omega_min + omega_max)
    c2 = 3.0 * math.pi / (2.0 * omega_max)
    c3 = 3.0 * math.pi / (2.0 * omega_min)
    g = (
        (0.0, b1, omega_max, 0.0),
        (b1, b2, 0.0, _HALF_PI),
        (b2, b3, omega_min, 0.0),
        (b3, TWO_PI / omega_max, omega_max, 0.0),
    )
    h = (
        (0.0, c1, omega_min, 0.0),
        (c1, c2, omega_max, 0.0),
        (c2, c3, 0.0, -_HALF_PI),
        (c3, TWO_PI / omega_min, omega_min, 0.0),
    )
    return g, h


def exp_sin_moment(a, omega, tau0, tau1, phase):
    """Closed form of Int_{tau0}^{tau1} e^{-a tau} sin(omega tau + phase) dtau.

    The antiderivative is -e^{-a tau} (a sin(omega tau + phase) +
    omega cos(omega tau + phase)) / (a^2 + omega^2).  With omega = 0 and
    phase = +-pi/2 this covers the constant pieces +-1.  Arguments may be
    scalars or arrays.
    """
    if not np.all(a > 0.0):
        raise ValueError(f"a must be > 0, got {a!r}")
    den = a * a + omega * omega

    def anti(tau):
        arg = omega * tau + phase
        return -np.exp(-a * tau) * (a * np.sin(arg) + omega * np.cos(arg)) / den

    return anti(tau1) - anti(tau0)


def p_bounds_for_band(p_rho, omega_min, omega_max) -> tuple:
    """(P_l, P_u) for an explicit admissible rate band in normalised time.

    P_u = p rho / (1 - e^{-p rho T_max}) * Int_0^{T_max} e^{-p rho tau} g;
    P_l likewise with h over [0, T_min], where the geometric-sum period T
    is T_max when the h-integral is negative, T_min otherwise.  The
    integrals are summed piece by piece over the ``_pieces`` tables, whose
    last ends are T_max and T_min.  The band may be scalars or arrays.
    """
    g, h = _pieces(omega_min, omega_max)
    ig = sum(exp_sin_moment(p_rho, w, t0, t1, ph) for t0, t1, w, ph in g)
    ih = sum(exp_sin_moment(p_rho, w, t0, t1, ph) for t0, t1, w, ph in h)
    T_max, T_min = g[-1][1], h[-1][1]
    # -expm1(-x) = 1 - e^{-x}, stable when p rho T is small.
    P_u = p_rho * ig / -np.expm1(-p_rho * T_max)
    T = np.where(ih < 0.0, T_max, T_min)
    P_l = p_rho * ih / -np.expm1(-p_rho * T)
    return P_l, P_u


def _certificate_map(dc: DerivedConstants, grid) -> tuple:
    """The certificate over a d grid: (nscr, P_l, P_u, omega_min_d,
    omega_max_d, band_ok), one array each.

    One array call of ``velocity_band`` gives the band; where it does not
    apply (P_l, P_u) = (0, 1), elsewhere one array call of
    ``p_bounds_for_band`` gives the bounds.
    """
    band = velocity_band(dc, grid)
    w_min, w_max, ok = band.omega_min_d, band.omega_max_d, band.band_ok
    P_l, P_u = np.zeros(len(ok)), np.ones(len(ok))
    P_l[ok], P_u[ok] = p_bounds_for_band(dc.p * dc.rho, w_min[ok], w_max[ok])
    values = dc.V_r * np.maximum(P_u - dc.P_inf, dc.P_inf - P_l)
    return values, P_l, P_u, w_min, w_max, ok


def nscr(dc: DerivedConstants, d: float) -> float:
    """Certificate map: the forcing bound a trajectory can sustain given d.

    nscr(d) = V_r * max(P_u^d - P_inf, P_inf - P_l^d) >= 0, defined on
    (0, Gamma].
    """
    if not 0.0 < d <= dc.Gamma * (1.0 + _EDGE_EPS):
        raise ValueError(f"d must lie in (0, Gamma={dc.Gamma}], got {d!r}")
    values, *_ = _certificate_map(dc, (d,))
    return float(values[0])


@dataclass
class CertificateReport:
    """Grid evaluation of the stability certificate.

    ``margin`` is min(d - nscr(d)) over the grid and ``rel_margin`` the
    minimum of (d - nscr(d))/d; the verdict requires every grid point to
    satisfy nscr(d) < d with the band applicable, all equilibria
    hyperbolic, and rel_margin at or above the disclosed threshold (the
    grid is dense but finite, so a vanishing relative margin cannot be
    distinguished from a failure between grid points).
    """

    d_grid: np.ndarray
    nscr_values: np.ndarray
    omega_min_d: np.ndarray
    omega_max_d: np.ndarray
    band_ok: np.ndarray
    margin: float
    rel_margin: float
    worst_d: float
    hyperbolicity_ok: bool
    equilibrium_classifications: tuple
    verdict: str
    notes: list

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED

    def to_dict(self) -> dict:
        """The summary without the per-d arrays (``certificate_csv`` has those)."""
        return {
            "verdict": self.verdict,
            "n_grid": int(len(self.d_grid)),
            "d_min": float(self.d_grid[0]),
            "d_max": float(self.d_grid[-1]),
            "margin": self.margin,
            "rel_margin": self.rel_margin,
            "worst_d": self.worst_d,
            "band_ok_all": bool(np.all(self.band_ok)),
            "hyperbolicity_ok": self.hyperbolicity_ok,
            "equilibrium_classifications": list(self.equilibrium_classifications),
            "notes": list(self.notes),
        }


def certificate_grid(Gamma: float) -> np.ndarray:
    """The certificate's d grid: DEFAULT_GRID_POINTS log-spaced points from
    Gamma * DEFAULT_GRID_FLOOR up to exactly Gamma."""
    grid = np.geomspace(Gamma * DEFAULT_GRID_FLOOR, Gamma, DEFAULT_GRID_POINTS)
    grid[-1] = Gamma
    return grid


def check_certificate(params: SgParameters) -> CertificateReport:
    """Evaluate the certificate on ``certificate_grid`` and issue a verdict.

    Certified iff nscr(d) < d and the rate band applies at every grid
    point, all equilibria are hyperbolic, and the relative margin clears
    ``REL_MARGIN_THRESHOLD``.  A design whose own arithmetic takes alpha,
    p*rho, its square (the moments' denominator), V_r, Gamma or the band's
    largest slack 4 Gamma / alpha^2 out of (0, inf) raises NumericalError.
    """
    dc = derive_constants(params)
    alpha2 = dc.alpha * dc.alpha  # a float power would raise on overflow
    slack = 4.0 * dc.Gamma / alpha2 if alpha2 else math.inf
    p_rho = dc.p * dc.rho
    for name, value in (("alpha", dc.alpha), ("p*rho", p_rho),
                        ("(p*rho)**2", p_rho * p_rho), ("V_r", dc.V_r),
                        ("Gamma", dc.Gamma), ("4*Gamma/alpha**2", slack)):
        if not 0.0 < value < math.inf:  # NaN fails too
            raise NumericalError(f"{name} = {value!r} is not finite and > 0")
    grid = certificate_grid(dc.Gamma)
    values, _, _, w_min, w_max, ok = _certificate_map(dc, grid)

    margins = grid - values
    i_worst = int(np.argmin(margins / grid))
    margin = float(np.min(margins))
    rel_margin = float(np.min(margins / grid))

    points = solve_equilibria(params)
    classifications = tuple(pt.classification.value for pt in points)
    hyperbolic = bool(points) and all(
        pt.classification is not Stability.NON_HYPERBOLIC for pt in points
    )

    notes = []
    condition_holds = bool(np.all(values < grid) and np.all(ok))
    if condition_holds and hyperbolic and rel_margin < REL_MARGIN_THRESHOLD:
        notes.append(
            f"grid-resolution: relative margin {rel_margin:.3e} below threshold "
            f"{REL_MARGIN_THRESHOLD:.1e}; condition may fail between grid points"
        )
    if not hyperbolic:
        notes.append("equilibria missing or not all hyperbolic")

    certified = condition_holds and hyperbolic and rel_margin >= REL_MARGIN_THRESHOLD
    return CertificateReport(
        d_grid=grid,
        nscr_values=values,
        omega_min_d=w_min,
        omega_max_d=w_max,
        band_ok=ok,
        margin=margin,
        rel_margin=rel_margin,
        worst_d=float(grid[i_worst]),
        hyperbolicity_ok=hyperbolic,
        equilibrium_classifications=classifications,
        verdict=VERDICT_CERTIFIED if certified else VERDICT_NOT_CERTIFIED,
        notes=notes,
    )


def certificate_csv(report: CertificateReport) -> str:
    """Per-d table as CSV text: d, nscr, omega_min_d, omega_max_d, band_ok.

    Floats carry 17 significant digits so downstream plots reproduce the
    certificate exactly; ``csvtext.csv_rows`` writes them byte for byte as
    printf ``%.17g`` does.
    """
    return "d,nscr,omega_min_d,omega_max_d,band_ok\n" + csv_rows([
        report.d_grid, report.nscr_values, report.omega_min_d, report.omega_max_d,
        report.band_ok,
    ])
