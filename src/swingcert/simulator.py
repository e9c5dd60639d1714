"""Time integration and trajectory classification.

Provides an adaptive Dormand-Prince 5(4) integrator with dense output, a
per-step hook and an rhs-call budget, and one classifier that reads a run
as a stream of segments (integrator steps or stored samples): converged
to the stable equilibrium (modulo 2*pi, the integer sheet recorded),
decided only by its proven local basin, which also ends basin runs early;
periodic, on a fixed Poincare section of the power angle, on which
slipping basin runs end once their crossings repeat; or undecided.  All
operations are deterministic given their inputs and seeds.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    NumericalError,
    SgParameters,
    SgState,
    TWO_PI,
    derive_constants,
    full_rhs,
)
from .equilibria import EquilibriumPoint, Stability, local_basin, solve_equilibria
from .swing import delta_from_eta, ese_from_full, ese_rhs_fn

FULL_COLUMNS = ("i_d", "i_q", "omega", "delta")
ESE_COLUMNS = ("eta", "eta_dot", "w_re", "w_im")


class StiffnessError(NumericalError):
    """Integration failed: the adaptive step size underflowed, the rhs-call
    budget ran out or the power angle left the range in which the Poincare
    section resolves a turn; carries the last finite time and state."""

    def __init__(self, message, t, state):
        super().__init__(message)
        self.t = t
        self.state = state


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings of the adaptive Dormand-Prince 5(4) integrator.

    ``n_samples`` output samples are placed uniformly on [0, t_end], the
    first at t = 0.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    t_end: float = 10.0
    n_samples: int = 2001

    def __post_init__(self):
        # Written as "not 0 < x < inf" so that NaN fails too.
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be > 0 and finite")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError("t_end must be finite and > 0")
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")


# Verdicts ------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergedToEquilibrium:
    """A run whose final state lies in the proven local basin of the stable
    equilibrium, the only rule that decides convergence (``decided_by``);
    ``t_decided`` is the time at which an early-stopped run entered it."""

    equilibrium: EquilibriumPoint
    sheet: int
    t_decided: float | None = None

    kind = "converged"
    decided_by = "local_basin"


@dataclass(frozen=True)
class PeriodicOrbit:
    """``t_decided`` is the section time at which an early-stopped run
    passed the periodic test, None for a run classified at its horizon."""

    period: float
    mean_omega: float
    omega_below_grid: bool
    t_decided: float | None = None

    kind = "periodic"


@dataclass(frozen=True)
class Undecided:
    reason: str

    kind = "undecided"


def verdict_to_dict(verdict) -> dict:
    out = {"kind": verdict.kind}
    if isinstance(verdict, ConvergedToEquilibrium):
        out["branch"] = verdict.equilibrium.branch
        out["delta_e"] = verdict.equilibrium.state.delta
        out["sheet"] = verdict.sheet
        out["classification"] = verdict.equilibrium.classification.value
        out["decided_by"] = verdict.decided_by
        out["t_decided"] = verdict.t_decided
    elif isinstance(verdict, PeriodicOrbit):
        out["period"] = verdict.period
        out["mean_omega"] = verdict.mean_omega
        out["omega_below_grid"] = verdict.omega_below_grid
        out["t_decided"] = verdict.t_decided
    elif isinstance(verdict, Undecided):
        out["reason"] = verdict.reason
    return out


@dataclass
class Trajectory:
    """Sampled solution: strictly increasing times, one state per row.

    ``stopped`` is set when a stop rule ended the run early; the last row
    is then the state at which it fired.  ``verdict`` stays "not
    classified" until a classifier sets it.
    """

    times: np.ndarray
    states: np.ndarray
    verdict: object = Undecided(reason="not classified")
    columns: tuple = FULL_COLUMNS
    stopped: bool = False

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.columns.index(name)]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


# Integration ---------------------------------------------------------------

# Right-hand-side evaluations allowed in one Dormand-Prince run, more than
# ten times the largest run the CLI, tests and demos make (about 8e5 calls,
# the 60 s weak-droop orbit).  Running out raises StiffnessError, so a huge
# finite horizon ends instead of running on.
MAX_RHS_CALLS = 10_000_000

# Dormand-Prince 5(4): the tableau, error weights and dense-output matrix of
# scipy's RK45 (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4-II.5).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P_ROWS = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
_N_STAGES = 7  # six stages plus the first-same-as-last derivative

_C2, _C3, _C4, _C5 = _C[1:5]
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65) = _A[1:]
_B1, _, _B3, _B4, _B5, _B6 = _B
_E1, _, _E3, _E4, _E5, _E6, _E7 = _E
(_P10, _P11, _P12, _P13), _, (_P30, _P31, _P32, _P33), (_P40, _P41, _P42, _P43), \
    (_P50, _P51, _P52, _P53), (_P60, _P61, _P62, _P63), (_P70, _P71, _P72, _P73) = _P_ROWS


def _float_stages(rhs, t, y, k1, h, rtol, atol):
    """One Dormand-Prince attempt on lists of Python floats.

    Returns the fifth-order state, the seven stage derivatives (the last is
    rhs at the new state) and the RMS norm of the scaled error estimate.
    """
    k2 = rhs(t + _C2 * h, [u + h * (_A21 * a) for u, a in zip(y, k1)])
    k3 = rhs(t + _C3 * h, [u + h * (_A31 * a + _A32 * b)
                           for u, a, b in zip(y, k1, k2)])
    k4 = rhs(t + _C4 * h, [u + h * (_A41 * a + _A42 * b + _A43 * c)
                           for u, a, b, c in zip(y, k1, k2, k3)])
    k5 = rhs(t + _C5 * h, [u + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                           for u, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = rhs(t + h, [u + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                     for u, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y_new = [u + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
             for u, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(t + h, y_new)
    err = math.hypot(*[
        h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g)
        / (atol + max(abs(u), abs(v)) * rtol)
        for u, v, a, c, d, e, f, g in zip(y, y_new, k1, k3, k4, k5, k6, k7)
    ]) / math.sqrt(len(y))
    return y_new, (k1, k2, k3, k4, k5, k6, k7), err


def _rms(x) -> float:
    return float(np.linalg.norm(x)) / math.sqrt(x.size)


def _initial_step(rhs, y0, f0, t_bound, rtol, atol) -> float:
    """First step size (Hairer, Norsett & Wanner, Sec. II.4), as scipy picks it.

    NaN propagates, so a non-finite start is caught by the step floor.  A
    derivative so large that the first trial step comes out 0 raises
    StiffnessError with the initial state.
    """
    f0 = np.asarray(f0, dtype=float)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if h0 == 0.0:
        raise StiffnessError("step size underflow at t=0.0", t=0.0, state=y0.copy())
    h0 = min(h0, t_bound)
    y1 = y0 + h0 * f0
    f1 = np.asarray(rhs(h0, y1.tolist()), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-_ERROR_EXPONENT)
    return min(100 * h0, h1, t_bound)


def _step_state(h, y_old, K, x):
    """An accepted step's DP5 interpolant at fraction ``x`` of the step, on
    Python floats.  The second stage has no weight and is skipped."""
    k1, _, k3, k4, k5, k6, k7 = K
    hx = h * x
    w1 = hx * (_P10 + x * (_P11 + x * (_P12 + x * _P13)))
    w3 = hx * (_P30 + x * (_P31 + x * (_P32 + x * _P33)))
    w4 = hx * (_P40 + x * (_P41 + x * (_P42 + x * _P43)))
    w5 = hx * (_P50 + x * (_P51 + x * (_P52 + x * _P53)))
    w6 = hx * (_P60 + x * (_P61 + x * (_P62 + x * _P63)))
    w7 = hx * (_P70 + x * (_P71 + x * (_P72 + x * _P73)))
    return [u + (w1 * a + w3 * c + w4 * d + w5 * e + w6 * f + w7 * g)
            for u, a, c, d, e, f, g in zip(y_old, k1, k3, k4, k5, k6, k7)]


def _delta_fraction(h, y_old, K, level) -> float:
    """Fraction of an accepted full-model step at which delta (component 3)
    of its DP5 interpolant falls to ``level``; the step starts above the
    level and ends at or below it.

    Illinois false position (Dahlquist & Bjorck, *Numerical Methods*,
    Sec. 6.2.2) on the quartic, until no new point lies strictly inside
    the bracket; returns its upper end.
    """
    a0, a1, a2, a3 = [h * sum([row[j] * k[3] for row, k in zip(_P_ROWS, K)])
                      for j in range(4)]
    above = y_old[3] - level
    lo, hi, f_lo, f_hi = 0.0, 1.0, above, above + a0 + a1 + a2 + a3
    side = 0
    for _ in range(100):
        if not f_lo > 0.0 >= f_hi:
            break
        x = lo + f_lo * (hi - lo) / (f_lo - f_hi)
        if not lo < x < hi:
            break
        fx = above + x * (a0 + x * (a1 + x * (a2 + x * a3)))
        if fx > 0.0:
            lo, f_lo = x, fx
            if side == 1:
                f_hi *= 0.5
            side = 1
        else:
            hi, f_hi = x, fx
            if side == -1:
                f_lo *= 0.5
            side = -1
    return hi


def _dopri5(rhs, y0, t_eval, rtol, atol, stop):
    """Adaptive Dormand-Prince 5(4) from t=0 to t_eval[-1], sampled at t_eval.

    Step control is scipy's RK45: RMS error norm scaled by
    atol + max(|y|, |y_new|)*rtol, factors SAFETY/MIN/MAX with no growth
    right after a rejection, and a floor of 10 ulp(t) on the step, below
    which StiffnessError is raised with the last accepted (t, y).  The
    same error is raised when a step attempt would take the rhs calls past
    ``MAX_RHS_CALLS``.  A step whose arithmetic overflows or whose rhs raises
    a domain error (ValueError) is rejected.
    Each sample is the DP5 interpolant (``_step_state``) of the first
    accepted step whose end is at or past it, evaluated when that step is
    taken and appended to one flat buffer.  ``rhs`` gets each state as a
    list of floats, and its initial derivative must have one component per
    component of ``y0`` (else ValueError).

    ``stop(t, h, y_old, K, y)``, unless None, is read after each accepted
    step from (t, y_old) to (t + h, y), K being its stage derivatives
    (``_step_state`` evaluates the step's interpolant from them); when it
    fires the run ends there, and the output is the samples before that
    time followed by the stop time and state.  Returns
    ``(times, states, stopped)``.
    """
    # scipy raises rtol to the same floor.
    rtol = max(rtol, 100 * np.finfo(float).eps)
    t_bound = float(t_eval[-1])
    samples = t_eval.tolist()
    y = y0.tolist()
    try:
        # A failure here is reported, so overflow warnings are not.
        with np.errstate(over="ignore", invalid="ignore"):
            f = [float(v) for v in rhs(0.0, y)]
            if len(f) == len(y):
                h_abs = float(_initial_step(rhs, y0, f, t_bound, rtol, atol))
    except (OverflowError, ValueError):
        raise StiffnessError("overflow or domain error evaluating the initial derivative",
                             t=0.0, state=y0.copy())
    if len(f) != len(y):
        raise ValueError(f"rhs returned a derivative of length {len(f)} "
                         f"for a state of length {len(y)}")

    n_samples = len(samples)
    out = array("d")  # the sampled states, row after row
    t = 0.0
    next_sample = 0
    n_calls = 2  # the initial derivative and the initial-step probe
    stopped = False
    while t < t_bound:
        min_step = 10.0 * math.ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # also stops a NaN step size
                raise StiffnessError(f"step size underflow at t={t!r}", t=t,
                                     state=np.array(y, dtype=float))
            if n_calls + _N_STAGES - 1 > MAX_RHS_CALLS:
                raise StiffnessError(f"rhs-call budget of {MAX_RHS_CALLS} exhausted "
                                     f"at t={t!r}", t=t, state=np.array(y, dtype=float))
            n_calls += _N_STAGES - 1
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            try:
                y_new, K, err = _float_stages(rhs, t, y, f, h, rtol, atol)
            except (OverflowError, ValueError):
                err = math.inf
            if err < 1.0:
                if err == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs = h * factor
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True

        while next_sample < n_samples and samples[next_sample] <= t_new:
            out.extend(_step_state(h, y, K, (samples[next_sample] - t) / h))
            next_sample += 1
        t_old, y_old = t, y
        t, y, f = t_new, y_new, K[6]
        if stop is not None and stop(t_old, h, y_old, K, y):
            stopped = True
            break

    # A sample at the stop time itself gives way to the stop state.
    times = t_eval[t_eval < t] if stopped else t_eval
    states = np.frombuffer(out).reshape(-1, len(y))[:len(times)]
    if stopped:
        times = np.append(times, t)
        states = np.vstack([states, np.asarray(y, dtype=float)])
    return times, states, stopped


def integrate(rhs, initial, config: IntegratorConfig,
              columns: tuple = FULL_COLUMNS, stop=None) -> Trajectory:
    """Integrate ``dy/dt = rhs(t, y)`` from t=0 to config.t_end.

    Samples are taken at ``config.n_samples`` uniform times on [0, t_end],
    each on the DP5 interpolant (``_step_state``) of the accepted step that
    covers it, as that step is taken; the steps do not depend on the
    samples, so a time two sample grids share gets the same row.

    Raises StiffnessError, carrying the last accepted time and state, when
    the integrator underflows its step size, including when the derivative
    keeps coming back non-finite, overflowing or raising a domain error
    (ValueError), and when the run would need more than ``MAX_RHS_CALLS``
    rhs evaluations.

    ``stop(t, h, y_old, K, y)`` is an optional predicate on each accepted
    step: from time t to t + h, from state y_old to y, with stage
    derivatives K.  When it fires the run ends: the trajectory holds the
    samples before that time and then the stop time and state, and
    ``Trajectory.stopped`` is set.  Until it fires, the output and the rhs
    calls do not depend on the hook existing.

    ``rhs(t, y)`` always gets ``y`` as a list of floats, from the first
    call ``rhs(0.0, y0)`` on, and may return any sequence of floats with
    one component per state component, an ndarray included; the stage
    arithmetic runs on Python floats.  An initial derivative of another
    length raises ValueError.
    """
    y0 = np.asarray(initial, dtype=float)
    t_eval = np.linspace(0.0, config.t_end, config.n_samples)
    times, states, stopped = _dopri5(rhs, y0, t_eval, config.rel_tol,
                                     config.abs_tol, stop)
    return Trajectory(times=times, states=states, columns=columns,
                      stopped=stopped)


def simulate_full(params: SgParameters, initial: SgState,
                  config: IntegratorConfig) -> Trajectory:
    """Full-model trajectory from an initial state over the whole horizon,
    classified from its steps."""
    return _classified(params, initial, solve_equilibria(params), config, stop=False)


def simulate_ese(params: SgParameters, initial: SgState,
                 config: IntegratorConfig) -> Trajectory:
    """ESE trajectory matched to a full-model initial state."""
    ese0, init_currents = ese_from_full(initial, params)
    rhs = ese_rhs_fn(params, init_currents)
    return integrate(rhs, ese0.as_array(), config, columns=ESE_COLUMNS)


# Classification ------------------------------------------------------------

# Section-crossing agreement required of a periodic orbit (``_periodic_test``).
PERIODIC_INTERVAL_TOL = 0.01
PERIODIC_STATE_TOL = 0.02
PERIODIC_MAX_CROSSINGS = 12


class LocalBasin:
    """Membership test of the proven local basin ``x^T P x < c`` of a
    stable equilibrium (``equilibria.local_basin``), delta taken modulo
    2*pi.  ``contains(y)`` takes a state as a sequence of four floats.
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
        P, c = local_basin(params, point)
    except NumericalError:
        return None
    return LocalBasin(point, P, c)


def section_angle(equilibria) -> float:
    """delta_s of the Poincare section delta = delta_s (mod 2*pi): the angle
    of the first equilibrium in ``equilibria`` that is not stable (the
    saddle, so a decreasing crossing is a pole slip), 0 without one."""
    for pt in equilibria:
        if pt.classification is not Stability.STABLE:
            return pt.state.delta
    return 0.0


def _top_sheet(delta_s: float, delta0: float) -> int:
    """Sheet k of the highest section level delta_s + 2*pi*k below delta0.

    Raises ValueError where floats are 2*pi or more apart (|delta0| >=
    2**55), since levels a turn apart are no longer distinct there.
    """
    if not math.ulp(delta0) < TWO_PI:  # NaN and inf fail too
        raise ValueError(f"initial power angle {delta0!r} is too large to place "
                         "section levels a turn apart")
    return math.ceil((delta0 - delta_s) / TWO_PI) - 1


def _periodic_test(times, states, lows, highs, omega_g: float, t_decided=None):
    """The periodic test on consecutive section crossings.

    ``times`` and ``states`` (i_d, i_q, omega) are the crossings, at most
    ``PERIODIC_MAX_CROSSINGS``; ``lows``/``highs`` are the per-component
    extrema of each turn between two of them.  PeriodicOrbit when the
    crossing intervals agree within ``PERIODIC_INTERVAL_TOL`` and the
    crossing states within ``PERIODIC_STATE_TOL`` of the orbit's own
    excursion (omega can hover near zero on a stalled orbit); fewer than 3
    crossings give Undecided.  Delta falls by 2*pi per turn and
    d(delta)/dt = omega - omega_g, so the last turn's mean rotor speed is
    omega_g - 2*pi / its length.
    """
    if len(times) < 3:
        return Undecided(reason=f"{len(times)} section crossings, fewer than 3")
    times = np.asarray(times, dtype=float)
    intervals = np.diff(times)
    period = float(np.mean(intervals))
    if period <= 0 or np.any(np.abs(intervals - period) > PERIODIC_INTERVAL_TOL * period):
        return Undecided(reason="section crossing intervals not repeating")
    scales = np.maximum(1.0, np.max(np.asarray(highs, dtype=float), axis=0)
                        - np.min(np.asarray(lows, dtype=float), axis=0))
    states = np.asarray(states, dtype=float)
    if float(np.max(np.abs(states - states[0]) / scales)) > PERIODIC_STATE_TOL:
        return Undecided(reason="section states not repeating")
    last_turn = float(times[-1] - times[-2])
    return PeriodicOrbit(period=period, mean_omega=omega_g - TWO_PI / last_turn,
                         omega_below_grid=bool(highs[-1][2] < omega_g),
                         t_decided=t_decided)


def _crossing(h, y_old, K, y, level):
    """Fraction of a segment at which delta falls to ``level``, and the
    (i_d, i_q, omega) there: on the step's DP5 interpolant when K holds its
    stage derivatives, linear between two stored samples when K is None."""
    if K is None:
        x = (y_old[3] - level) / (y_old[3] - y[3])
        return x, [a + x * (b - a) for a, b in zip(y_old[:3], y[:3])]
    x = _delta_fraction(h, y_old, K, level)
    return x, _step_state(h, y_old, K, x)[:3]


def _widen(lo, hi, y):
    """Stretch the running (i_d, i_q, omega) extrema ``lo``/``hi`` to ``y``."""
    for c in range(3):
        v = y[c]
        if v < lo[c]:
            lo[c] = v
        elif v > hi[c]:
            hi[c] = v


class Classifier:
    """The trajectory classifier: one pass over a run's segments.

    ``segment(t, h, y_old, K, y)`` reads the segment from time t to t + h,
    state y_old to y; it is the integrator's stop hook, and a stored
    trajectory is fed the intervals between its samples with K None
    (``_crossing``).  ``finish(y_final)`` gives the verdict, in this order:

    1. the final state lies in the stable equilibrium's proven local basin
       (invariant and attracting, so no tolerance is involved);
    2. the periodic test on the last ``PERIODIC_MAX_CROSSINGS`` crossings
       of the Poincare section delta = ``section_angle(equilibria)`` (mod
       2*pi), one per sheet, where delta first falls below a level below
       delta0 and every earlier segment end, so a decaying oscillation
       gives at most a few; each turn's extrema span its crossings and
       segment ends;
    3. Undecided, naming the basin outcome and the periodic failure.

    With ``stop``, ``segment`` ends the run once a segment end lies in the
    local basin or the crossings pass the periodic test, and the verdict
    carries that time as ``t_decided``.  Memory stays bounded: the last
    crossings and their turns' running extrema.  So does time: a segment
    locates only about its last ``PERIODIC_MAX_CROSSINGS`` crossings, and
    a power angle of magnitude 2**55 or more, where section levels a turn
    apart coincide, raises ValueError as delta0 (at the first segment) and
    StiffnessError at a segment end.
    """

    def __init__(self, params: SgParameters, equilibria, delta0: float, stop: bool):
        # The closures keep no reference to self, so a finished run's
        # state is freed at once rather than by the cycle collector.
        basin = stable_basin(params, equilibria)
        contains = basin.contains if stop and basin is not None else None
        omega_g = params.omega_g
        delta_s = section_angle(equilibria)
        # The top level is placed at the first segment, so a run whose first
        # step fails reports that failure rather than a bad delta0.
        sheet = level = None
        times = deque(maxlen=PERIODIC_MAX_CROSSINGS)
        states = deque(maxlen=PERIODIC_MAX_CROSSINGS)
        lows = deque(maxlen=PERIODIC_MAX_CROSSINGS - 1)
        highs = deque(maxlen=PERIODIC_MAX_CROSSINGS - 1)
        lo = hi = None  # extrema of the turn since the last crossing
        stopped = []  # the time at which the run was decided and stopped

        def segment(t, h, y_old, K, y) -> bool:
            nonlocal sheet, level, lo, hi
            if sheet is None:
                sheet = _top_sheet(delta_s, delta0)
                level = delta_s + TWO_PI * sheet
            if contains is not None and contains(y):
                stopped.append(t + h)
                return True
            if y[3] > level:
                if lo is not None:
                    _widen(lo, hi, y)
                return False
            if not math.ulp(y[3]) < TWO_PI:
                raise StiffnessError(f"power angle {y[3]!r} at t={t + h!r} is too large "
                                     "to place section levels a turn apart", t=t + h,
                                     state=np.array(y, dtype=float))
            # Only the last PERIODIC_MAX_CROSSINGS crossings are kept, so a
            # segment that falls through more levels skips the earlier ones.
            skip = int((level - y[3]) / TWO_PI) - PERIODIC_MAX_CROSSINGS - 1
            if skip > 0:
                sheet -= skip
                level = delta_s + TWO_PI * sheet
            while y[3] <= level:
                x, crossing = _crossing(h, y_old, K, y, level)
                if lo is not None:
                    _widen(lo, hi, crossing)
                    lows.append(lo)
                    highs.append(hi)
                times.append(t + x * h)
                states.append(crossing)
                lo, hi = list(crossing), list(crossing)
                sheet -= 1
                level = delta_s + TWO_PI * sheet
            _widen(lo, hi, y)
            if (stop and len(times) == PERIODIC_MAX_CROSSINGS and isinstance(
                    _periodic_test(times, states, lows, highs, omega_g), PeriodicOrbit)):
                stopped.append(times[-1])
                return True
            return False

        def finish(y_final):
            t_decided = stopped[0] if stopped else None
            if basin is not None and basin.contains(y_final):
                turns = int(round((y_final[3] - basin.point.state.delta) / TWO_PI))
                return ConvergedToEquilibrium(equilibrium=basin.point, sheet=turns,
                                              t_decided=t_decided)
            periodic = _periodic_test(times, states, lows, highs, omega_g, t_decided)
            if isinstance(periodic, PeriodicOrbit):
                return periodic
            outcome = ("no proven local basin" if basin is None else
                       "final state outside the proven local basin of the branch "
                       f"{basin.point.branch} equilibrium")
            return Undecided(reason=f"{outcome}; {periodic.reason}")

        self.segment = segment
        self.finish = finish


def detect_convergence(traj: Trajectory, equilibria, params: SgParameters, tol=None):
    """Classify a stored full-model trajectory of the design ``params``
    (other integrators' solutions): the ``Classifier`` fed the
    intervals between its samples, up to the last.  A final state in the
    proven local basin decides the run without reading the others.
    ``tol`` is accepted and ignored: no verdict rests on a tolerance.
    """
    final = traj.states[-1].tolist()
    clf = Classifier(params, equilibria, float(traj.states[0, 3]), False)
    basin = stable_basin(params, equilibria)
    if basin is None or not basin.contains(final):
        times, rows = traj.times.tolist(), traj.states.tolist()
        for k in range(1, len(rows)):
            clf.segment(times[k - 1], times[k] - times[k - 1], rows[k - 1], None, rows[k])
    return clf.finish(final)


# Sampling ------------------------------------------------------------------

def default_basin_box(params: SgParameters) -> tuple:
    """Physically scaled sampling box for initial states."""
    dc = derive_constants(params)
    c = 3.0 * dc.i_v
    return (
        (-c, c),
        (-c, c),
        (0.0, 2.0 * params.omega_g),
        (-math.pi, math.pi),
    )


def default_horizon(params: SgParameters, equilibria) -> float:
    """Simulation horizon of the design ``params``, tied to the slowest
    stable linear mode of its ``equilibria`` (from ``solve_equilibria``).

    20 / min|Re eigenvalue| of the stable equilibrium when one exists,
    otherwise 60 s; only the equilibria are read.
    """
    for pt in equilibria:
        if pt.classification is Stability.STABLE:
            rate = min(abs(z.real) for z in pt.eigenvalues)
            if rate > 0:
                return 20.0 / rate
    return 60.0


@dataclass
class BasinStatistics:
    """Monte-Carlo classification counts over sampled initial states.

    ``converged_unstable`` stays 0, since only the stable equilibrium has a
    proven basin; the field keeps the output's keys."""

    n: int
    seed: int
    converged_stable: int = 0
    converged_unstable: int = 0
    periodic: int = 0
    undecided: int = 0
    exemplars: dict = field(default_factory=dict)
    decided_by: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "converged_stable": self.converged_stable,
            "converged_unstable": self.converged_unstable,
            "periodic": self.periodic,
            "undecided": self.undecided,
            "exemplars": {k: list(v) for k, v in self.exemplars.items()},
            "decided_by": dict(sorted(self.decided_by.items())),
        }


def sample_initial_state(box, seed: int, index: int) -> SgState:
    """Deterministic initial state number ``index`` for a given seed.

    Each trajectory gets its own stream derived from (seed, index), so
    results do not depend on execution order.
    """
    rng = np.random.default_rng([seed, index])
    draws = [rng.uniform(lo, hi) for lo, hi in box]
    return SgState(*draws)


def _classified(params, initial, equilibria, config, stop: bool) -> Trajectory:
    """Full-model run of ``initial`` with its verdict: the run feeds the
    ``Classifier`` from its step hook (and with ``stop`` ends at its early
    verdict)."""
    clf = Classifier(params, equilibria, initial.delta, stop)
    traj = integrate(full_rhs(params), initial.as_array(), config, stop=clf.segment)
    traj.verdict = clf.finish(traj.final_state.tolist())
    return traj


def classify_initial_state(params, initial, equilibria, config):
    """Simulate one initial state and classify the outcome.

    The ``Classifier`` reads each step of the run and stops it as soon as
    it enters the proven local basin or its section crossings repeat; the
    verdict then carries ``t_decided``.  A run that reaches
    ``config.t_end`` is classified there.  No verdict reads the samples.
    """
    return _classified(params, initial, equilibria, config, stop=True).verdict


def basin_sample(params: SgParameters, n: int, seed: int, box=None,
                 t_end: float | None = None) -> BasinStatistics:
    """Classify ``n`` seeded-random initial states from ``box``.

    Deterministic for a given seed; each state is drawn from its own
    (seed, index) stream, so the tally does not depend on the order in
    which states are classified.  Each run (``classify_initial_state``,
    over ``t_end``, by default ``default_horizon``) stops when it enters
    the stable equilibrium's proven local basin, built at most once, or
    when its section crossings repeat, and keeps only its two endpoint
    samples.  ``decided_by`` counts the converged runs as "local_basin",
    the only rule that decides them, and the periodic runs as "section"
    when they stopped early and "horizon" otherwise, so its values sum to
    n - undecided.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if box is None:
        box = default_basin_box(params)
    equilibria = solve_equilibria(params)
    if t_end is None:
        t_end = default_horizon(params, equilibria)
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, t_end=t_end, n_samples=2)
    stats = BasinStatistics(n=n, seed=seed)
    for i in range(n):
        initial = sample_initial_state(box, seed, i)
        verdict = classify_initial_state(params, initial, equilibria, config)
        decided_by = None
        if isinstance(verdict, ConvergedToEquilibrium):
            # Only the stable point has a proven basin.
            key, decided_by = "converged_stable", verdict.decided_by
        elif isinstance(verdict, PeriodicOrbit):
            key = "periodic"
            decided_by = "horizon" if verdict.t_decided is None else "section"
        else:
            key = "undecided"
        setattr(stats, key, getattr(stats, key) + 1)
        if decided_by is not None:
            stats.decided_by[decided_by] = stats.decided_by.get(decided_by, 0) + 1
        stats.exemplars.setdefault(key, tuple(initial.as_array()))
    return stats


# Cross-validation ----------------------------------------------------------

def combined_full_ese_rhs(params: SgParameters, initial: SgState):
    """Stacked 8-state system: full model and matched ESE, integrated together."""
    rhs_full = full_rhs(params)
    ese0, init_currents = ese_from_full(initial, params)
    rhs_ese = ese_rhs_fn(params, init_currents)
    y0 = np.concatenate([initial.as_array(), ese0.as_array()])

    def rhs(t, y):
        return rhs_full(t, y[:4]) + rhs_ese(t, y[4:])

    return rhs, y0


def cross_validate(params: SgParameters, initial: SgState,
                   t_end: float = IntegratorConfig.t_end,
                   rel_tol: float = IntegratorConfig.rel_tol,
                   abs_tol: float = IntegratorConfig.abs_tol) -> float:
    """Max |delta_full - delta_ese| over the horizon for matched initial data,
    taken at ``IntegratorConfig``'s default number of uniform samples.

    The two formulations are mathematically equivalent, so the deviation
    measures integration error only.
    """
    rhs, y0 = combined_full_ese_rhs(params, initial)
    config = IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol, t_end=t_end)
    traj = integrate(rhs, y0, config, columns=FULL_COLUMNS + ESE_COLUMNS)
    delta_ese = delta_from_eta(traj.states[:, 4], derive_constants(params))
    return float(np.max(np.abs(traj.states[:, 3] - delta_ese)))


# Serialisation --------------------------------------------------------------

def trajectory_csv(traj: Trajectory) -> str:
    """Trajectory as CSV: time column, one column per state component,
    and a trailing structured verdict record.
    """
    import json

    row = ",".join(["%.17g"] * (1 + len(traj.columns))) + "\n"
    return (
        "t," + ",".join(traj.columns) + "\n"
        + "".join([row % (t, *y) for t, y in zip(traj.times.tolist(), traj.states.tolist())])
        + "# verdict: " + json.dumps(verdict_to_dict(traj.verdict), sort_keys=True) + "\n"
    )
