"""Time integration and trajectory classification.

Provides an adaptive Dormand-Prince 5(4) integrator with dense output, a
stop rule and an rhs-call budget, and a fixed-step classic RK4; produces
sampled trajectories, and classifies them as converged to an equilibrium
(modulo 2*pi, with the integer sheet recorded), periodic, or undecided.
Convergence to the stable equilibrium is decided by its proven local
basin, which also ends basin runs early; periodic orbits are detected on
a fixed Poincare section of the power angle, on which slipping basin runs
end as soon as their crossings repeat.  All operations are deterministic
given their inputs and seeds.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
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
    wrap_angle,
)
from .equilibria import EquilibriumPoint, Stability, local_basin, solve_equilibria
from .swing import delta_from_eta, ese_from_full, ese_rhs_fn

FULL_COLUMNS = ("i_d", "i_q", "omega", "delta")
ESE_COLUMNS = ("eta", "eta_dot", "w_re", "w_im")


class StiffnessError(NumericalError):
    """Integration failed: the adaptive step size underflowed, the rhs-call
    budget ran out or a fixed step came out non-finite; carries the last
    finite time and state."""

    def __init__(self, message, t, state):
        super().__init__(message)
        self.t = t
        self.state = state


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    method is "rk45" (adaptive, embedded error control) or "rk4" (fixed
    step of at most t_end / ``RK4_STEPS``, shortened so that it divides
    each sampling interval).  ``n_samples`` output samples are placed
    uniformly on [0, t_end], the first at t = 0.
    """

    method: str = "rk45"
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    t_end: float = 10.0
    n_samples: int = 2001

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
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
    """``decided_by`` is "local_basin" (the state entered the proven local
    basin) or "window" (the tolerance window test); ``t_decided`` is the
    time at which an early-stopped run entered the local basin."""

    equilibrium: EquilibriumPoint
    sheet: int
    decided_by: str = "window"
    t_decided: float | None = None

    kind = "converged"


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

# The fixed-step RK4's longest step is t_end / RK4_STEPS.
RK4_STEPS = 5000


def _rk4_fixed(rhs, y0, t_eval, step):
    """Classic fourth-order steps from y0 at t_eval[0] = 0, each sampling
    interval cut into the fewest equal steps no longer than ``step``.

    A step that comes out non-finite, or whose rhs calls raise
    OverflowError or ValueError, raises StiffnessError with the last
    finite (t, y).
    """
    y = np.asarray(y0, dtype=float)
    out = [y]
    times = t_eval.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1 in zip(times, times[1:]):
            n_sub = max(1, int(math.ceil((t1 - t0) / step - 1e-12)))
            h = (t1 - t0) / n_sub
            t = t0
            for _ in range(n_sub):
                try:
                    k1 = np.asarray(rhs(t, y))
                    k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1))
                    k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2))
                    k4 = np.asarray(rhs(t + h, y + h * k3))
                    y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    finite = np.all(np.isfinite(y_new))
                except (OverflowError, ValueError):
                    finite = False
                if not finite:
                    raise StiffnessError(f"non-finite rk4 step at t={t!r}", t=t,
                                         state=y.copy())
                y = y_new
                t += h
            out.append(y)
    return np.array(out)


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
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
_N_STAGES = 7  # six stages plus the first-same-as-last derivative
_DENSE_CHUNK = 1 << 16  # stage values gathered per pass of the dense output

_C2, _C3, _C4, _C5 = _C[1:5]
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65) = _A[1:]
_B1, _, _B3, _B4, _B5, _B6 = _B
_E1, _, _E3, _E4, _E5, _E6, _E7 = _E
_A_ROWS = [np.array(row) for row in _A]
_B_ROW = np.array(_B)
_E_ROW = np.array(_E)


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


def _array_stages(rhs, t, y, k1, h, rtol, atol):
    """``_float_stages`` on numpy ``(n,)`` arrays; the stages are the rows of K."""
    K = np.empty((_N_STAGES, y.size))
    K[0] = k1
    for s in range(1, 6):
        K[s] = rhs(t + _C[s] * h, y + h * (_A_ROWS[s] @ K[:s]))
    y_new = y + h * (_B_ROW @ K[:6])
    K[6] = rhs(t + h, y_new)
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    err = float(np.linalg.norm(h * (_E_ROW @ K) / scale)) / math.sqrt(y.size)
    return y_new, K, err


def _rms(x) -> float:
    return float(np.linalg.norm(x)) / math.sqrt(x.size)


def _initial_step(rhs, y0, f0, t_bound, rtol, atol, as_array) -> float:
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
    f1 = np.asarray(rhs(h0, y1 if as_array else y1.tolist()), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-_ERROR_EXPONENT)
    return min(100 * h0, h1, t_bound)


def _dense_samples(t_eval, t0, t1, y_old, K):
    """Evaluate the DP5 interpolant of the recorded steps at ``t_eval``.

    Sample t belongs to the first recorded step whose end is >= t.  The
    stage values are gathered in chunks, so memory stays bounded for
    large systems.
    """
    idx = np.searchsorted(t1, t_eval, side="left")
    h = (t1 - t0)[idx]
    x = (t_eval - t0[idx]) / h
    powers = np.cumprod(np.repeat(x[:, None], _P.shape[1], axis=1), axis=1)
    weights = h[:, None] * (powers @ _P.T)
    out = np.empty((len(t_eval), y_old.shape[1]))
    chunk = max(1, _DENSE_CHUNK // K[0].size)
    for lo in range(0, len(t_eval), chunk):
        j = idx[lo:lo + chunk]
        out[lo:lo + chunk] = y_old[j] + np.einsum("js,jsn->jn", weights[lo:lo + chunk], K[j])
    return out


_P_ROWS = _P.tolist()


def _step_state(h, y_old, K, x):
    """An accepted step's DP5 interpolant at fraction ``x`` of the step, on
    Python floats."""
    w = [h * x * (p0 + x * (p1 + x * (p2 + x * p3))) for p0, p1, p2, p3 in _P_ROWS]
    return [y_old[c] + sum([ws * k[c] for ws, k in zip(w, K)]) for c in range(len(y_old))]


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
    ``MAX_RHS_CALLS``.  A step whose arithmetic overflows is rejected.
    Each step that covers a sample time is recorded (float steps in flat
    buffers, array steps in arrays preallocated for one record per sample);
    the samples are read from the dense output in one vectorised pass at
    the end.

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
    try:
        # A failure here is reported, so overflow warnings are not.
        with np.errstate(over="ignore", invalid="ignore"):
            f = rhs(0.0, y0)
            as_array = isinstance(f, np.ndarray)
            h_abs = float(_initial_step(rhs, y0, f, t_bound, rtol, atol, as_array))
    except OverflowError:
        raise StiffnessError("overflow evaluating the initial derivative",
                             t=0.0, state=y0.copy())
    if as_array:
        stages = _array_stages
        y, f = y0, np.asarray(f, dtype=float)
    else:
        stages = _float_stages
        y, f = y0.tolist(), [float(v) for v in f]

    n = y0.size
    rec_t = array("d")  # (t_old, t_new) of each recorded step
    if as_array:
        rec_y = np.empty((len(samples), n))
        rec_k = np.empty((len(samples), _N_STAGES, n))
    else:
        rec_y, rec_k = array("d"), array("d")
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
                y_new, K, err = stages(rhs, t, y, f, h, rtol, atol)
            except OverflowError:
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

        if next_sample < len(samples) and samples[next_sample] <= t_new:
            if as_array:
                rec_y[len(rec_t) // 2] = y
                rec_k[len(rec_t) // 2] = K
            else:
                rec_y.extend(y)
                for k in K:
                    rec_k.extend(k)
            rec_t.append(t)
            rec_t.append(t_new)
            next_sample = bisect_right(samples, t_new, next_sample)
        t_old, y_old = t, y
        t, y, f = t_new, y_new, K[6]
        if stop is not None and stop(t_old, h, y_old, K, y):
            stopped = True
            break

    times = t_eval[t_eval < t] if stopped else t_eval
    m = len(rec_t) // 2
    t01 = np.frombuffer(rec_t).reshape(m, 2)
    states = _dense_samples(times, t01[:, 0], t01[:, 1],
                            np.reshape(rec_y, (-1, n))[:m],
                            np.reshape(rec_k, (-1, _N_STAGES, n))[:m])
    if stopped:
        times = np.append(times, t)
        states = np.vstack([states, np.asarray(y, dtype=float)])
    return times, states, stopped


def integrate(rhs, initial, config: IntegratorConfig,
              columns: tuple = FULL_COLUMNS, stop=None) -> Trajectory:
    """Integrate ``dy/dt = rhs(t, y)`` from t=0 to config.t_end.

    Samples are taken at ``config.n_samples`` uniform times on [0, t_end];
    "rk4" steps at most t_end / ``RK4_STEPS`` at a time.  Raises
    StiffnessError, carrying the last accepted time and state, when the
    adaptive integrator underflows its step size, including when the
    derivative keeps coming back non-finite or overflowing, when the run
    would need more than ``MAX_RHS_CALLS`` rhs evaluations, and when an
    rk4 step comes out non-finite.

    ``stop(t, h, y_old, K, y)`` is an optional predicate on each accepted
    adaptive step: from time t to t + h, from state y_old to y, with stage
    derivatives K.  When it fires the run ends: the trajectory holds the
    samples before that time and then the stop time and state, and
    ``Trajectory.stopped`` is set.  Until it fires, the output and the rhs
    calls do not depend on the hook existing.  The fixed-step "rk4" method
    ignores ``stop`` and always reaches t_end.

    ``rhs`` is first called as ``rhs(0.0, y0)`` with ``y0`` a float
    ndarray, and its result fixes the contract for the rest of the run:
    when it returns an ndarray, ``y`` is always passed as an ndarray;
    when it returns a tuple or list of floats, ``y`` is passed as a list
    of Python floats and the stage arithmetic runs on floats, which is
    much faster for small systems.
    """
    y0 = np.asarray(initial, dtype=float)
    t_eval = np.linspace(0.0, config.t_end, config.n_samples)
    if config.method == "rk4":
        step = config.t_end / RK4_STEPS
        times, states, stopped = t_eval, _rk4_fixed(rhs, y0, t_eval, step), False
    else:
        times, states, stopped = _dopri5(rhs, y0, t_eval, config.rel_tol,
                                         config.abs_tol, stop)
    return Trajectory(times=times, states=states, columns=columns,
                      stopped=stopped)


def simulate_full(params: SgParameters, initial: SgState,
                  config: IntegratorConfig) -> Trajectory:
    """Full-model trajectory from an initial state."""
    return integrate(full_rhs(params), initial.as_array(), config)


def simulate_ese(params: SgParameters, initial: SgState,
                 config: IntegratorConfig) -> Trajectory:
    """ESE trajectory matched to a full-model initial state."""
    ese0, init_currents = ese_from_full(initial, params)
    rhs = ese_rhs_fn(params, init_currents)
    return integrate(rhs, ese0.as_array(), config, columns=ESE_COLUMNS)


# Classification ------------------------------------------------------------

# Share of a trajectory's final samples that must stay within the scaled
# distance CONVERGENCE_TOL of one equilibrium (``detect_convergence``).
WINDOW_FRACTION = 0.1
CONVERGENCE_TOL = 1e-3

# Section-crossing agreement required of a periodic orbit (``detect_periodic``).
PERIODIC_INTERVAL_TOL = 0.01
PERIODIC_STATE_TOL = 0.02
PERIODIC_MAX_CROSSINGS = 12


class LocalBasin:
    """Membership test of the proven local basin ``x^T P x < c`` of a
    stable equilibrium (``equilibria.local_basin``), delta taken modulo
    2*pi.  ``contains(y)`` takes a state as a sequence of four floats and
    serves as the integrator's stop rule.
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
    classification then rests on the window test alone.  Each basin is
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


def _convergence_scales(equilibria) -> np.ndarray:
    cur = max([1.0] + [max(abs(pt.state.i_d), abs(pt.state.i_q)) for pt in equilibria])
    omega = max([1.0] + [abs(pt.state.omega) for pt in equilibria])
    return np.array([cur, cur, omega, 1.0])


def detect_convergence(traj: Trajectory, equilibria, params: SgParameters,
                       tol: float = CONVERGENCE_TOL):
    """Classify a full-model trajectory of the design ``params``.

    First the proof: when the final state lies in the stable equilibrium's
    proven local basin (``stable_basin``), the run converges there, on
    sheet ``round((delta - delta_e) / 2 pi)``; the basin is invariant and
    attracting, so no tolerance is involved.
    Then the window test: ConvergedToEquilibrium when the last
    ``WINDOW_FRACTION`` of samples stays within ``tol`` of one equilibrium
    (per-component scaled; delta compared modulo 2*pi, winding sheet
    recorded), the only route to convergence at an unstable point.
    Otherwise defers to ``detect_periodic``; otherwise Undecided.
    """
    basin = stable_basin(params, equilibria)
    final = traj.final_state
    if basin is not None and basin.contains(final):
        sheet = int(round((float(final[3]) - basin.point.state.delta) / TWO_PI))
        return ConvergedToEquilibrium(
            equilibrium=basin.point, sheet=sheet, decided_by="local_basin",
            t_decided=float(traj.times[-1]) if traj.stopped else None)
    n = len(traj.times)
    window = traj.states[max(0, n - max(2, int(math.ceil(WINDOW_FRACTION * n)))):]
    scales = _convergence_scales(equilibria)
    for pt in equilibria:
        target = pt.state.as_array()
        err = np.abs(window - target) / scales
        err[:, 3] = np.abs(wrap_angle(window[:, 3] - target[3])) / scales[3]
        if float(err.max()) < tol:
            sheet = int(round((float(np.mean(window[:, 3])) - target[3]) / TWO_PI))
            return ConvergedToEquilibrium(equilibrium=pt, sheet=sheet)
    return detect_periodic(traj, equilibria, params)


def section_angle(equilibria) -> float:
    """delta_s of the Poincare section delta = delta_s (mod 2*pi): the angle
    of the first equilibrium in ``equilibria`` that is not stable (the
    saddle, so a decreasing crossing is a pole slip), 0 without one."""
    for pt in equilibria:
        if pt.classification is not Stability.STABLE:
            return pt.state.delta
    return 0.0


def _top_sheet(delta_s: float, delta0: float) -> int:
    """Sheet k of the highest section level delta_s + 2*pi*k below delta0."""
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
        return Undecided(reason="fewer than 3 section crossings")
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


def detect_periodic(traj: Trajectory, equilibria, params: SgParameters):
    """Periodic-orbit detection on the fixed Poincare section of the power
    angle, delta = ``section_angle(equilibria)`` (mod 2*pi), crossed in the
    decreasing-delta direction.

    A rotating orbit drops delta by 2*pi per turn.  One crossing is taken
    per sheet, the first time delta falls below a level that lies below
    every earlier sample, so a decaying oscillation around a fixed point
    gives at most a few crossings and never qualifies.  The crossings are
    interpolated linearly between samples; the last
    ``PERIODIC_MAX_CROSSINGS`` of them, with the sampled extrema of each
    turn between them, go through the periodic test that also stops
    slipping basin runs (``SectionStop``).  ``omega_below_grid`` says
    whether the rotor stays slower than the grid frequency of ``params``
    over the last turn.
    """
    delta = traj.column("delta")
    delta_s = section_angle(equilibria)
    floor = np.minimum.accumulate(delta)
    # The last crossings are those of the lowest sheets reached.
    top = _top_sheet(delta_s, float(delta[0]))
    bottom = math.ceil((float(floor[-1]) - delta_s) / TWO_PI)
    levels = delta_s + TWO_PI * np.arange(min(top, bottom + PERIODIC_MAX_CROSSINGS - 1),
                                          bottom - 1, -1)
    i = np.searchsorted(-floor, -levels)  # first sample at or below each level
    keep = (i > 0) & (i < len(delta))
    i, levels = i[keep], levels[keep]
    if len(i) < 3:
        return Undecided(reason="fewer than 3 section crossings")
    t, states = traj.times, traj.states[:, :3]
    frac = (delta[i - 1] - levels) / (delta[i - 1] - delta[i])
    times = t[i - 1] + frac * (t[i] - t[i - 1])
    crossings = states[i - 1] + frac[:, None] * (states[i] - states[i - 1])
    turns = [np.vstack([crossings[k], states[i[k]:i[k + 1]], crossings[k + 1]])
             for k in range(len(i) - 1)]
    return _periodic_test(times, crossings, [turn.min(axis=0) for turn in turns],
                          [turn.max(axis=0) for turn in turns], params.omega_g)


class SectionStop:
    """Stop rule of one basin run: the proven local basin, then the section.

    ``stop`` is the integrator's hook.  It fires when the end of an
    accepted step lies in ``basin`` (a ``LocalBasin`` or None), or when the
    last ``PERIODIC_MAX_CROSSINGS`` crossings of the Poincare section delta
    = ``delta_s`` (mod 2*pi) pass the periodic test of ``detect_periodic``,
    which then sets ``verdict``.  Crossings follow ``detect_periodic``'s
    rule, one per sheet below every earlier step end, starting below
    ``delta0``; each is located on the step's DP5 interpolant, so it does
    not depend on the output samples.  The extrema of each turn are taken
    over the step ends and crossings.  A run that does not cross costs one
    float compare per step.
    """

    def __init__(self, delta_s: float, delta0: float, omega_g: float, basin):
        # The hook keeps no reference to self, so a finished run's turns
        # are freed at once rather than by the cycle collector.
        found = self._found = []
        contains = None if basin is None else basin.contains
        sheet = _top_sheet(delta_s, delta0)
        level = delta_s + TWO_PI * sheet
        times = deque(maxlen=PERIODIC_MAX_CROSSINGS)
        states = deque(maxlen=PERIODIC_MAX_CROSSINGS)
        lows = deque(maxlen=PERIODIC_MAX_CROSSINGS - 1)
        highs = deque(maxlen=PERIODIC_MAX_CROSSINGS - 1)
        turn = None  # points of the turn since the last crossing

        def stop(t, h, y_old, K, y) -> bool:
            nonlocal sheet, level, turn
            if contains is not None and contains(y):
                return True
            if y[3] > level:
                if turn is not None:
                    turn.append(y)
                return False
            while y[3] <= level:
                x = _delta_fraction(h, y_old, K, level)
                crossing = _step_state(h, y_old, K, x)[:3]  # (i_d, i_q, omega)
                if turn is not None:
                    turn.append(crossing)
                    columns = list(zip(*turn))
                    lows.append([min(c) for c in columns])
                    highs.append([max(c) for c in columns])
                times.append(t + x * h)
                states.append(crossing)
                turn = [crossing]
                sheet -= 1
                level = delta_s + TWO_PI * sheet
            turn.append(y)
            if len(times) < PERIODIC_MAX_CROSSINGS:
                return False
            verdict = _periodic_test(times, states, lows, highs, omega_g,
                                     t_decided=times[-1])
            if isinstance(verdict, PeriodicOrbit):
                found.append(verdict)
                return True
            return False

        self.stop = stop

    @property
    def verdict(self):
        return self._found[0] if self._found else None


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


def basin_config(t_end: float) -> IntegratorConfig:
    """Integration settings for basin sampling over a horizon of ``t_end`` s.

    Sampled at 2000 per second, clamped to 2000..20000 intervals: enough
    samples to resolve pole-slip orbits in the classifier.
    """
    n_samples = int(min(20000, max(2000, 2000.0 * t_end))) + 1
    return IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, t_end=t_end, n_samples=n_samples)


@dataclass
class BasinStatistics:
    """Monte-Carlo classification counts over sampled initial states."""

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


def classify_initial_state(params, initial, equilibria, config):
    """Simulate one initial state and classify the outcome.

    The run stops as soon as it enters the stable equilibrium's proven
    local basin (``stable_basin``), or as soon as its last
    ``PERIODIC_MAX_CROSSINGS`` crossings of ``detect_periodic``'s section
    pass the periodic test (``SectionStop``), which gives a PeriodicOrbit
    with ``t_decided`` set.  Otherwise ``detect_convergence`` classifies
    the run, the same function that classifies a full-horizon run.
    """
    rule = SectionStop(section_angle(equilibria), initial.delta, params.omega_g,
                       stable_basin(params, equilibria))
    traj = integrate(full_rhs(params), initial.as_array(), config, stop=rule.stop)
    if rule.verdict is not None:
        traj.verdict = rule.verdict
    else:
        traj.verdict = detect_convergence(traj, equilibria, params=params)
    return traj.verdict


def basin_sample(params: SgParameters, n: int, seed: int, box=None,
                 config: IntegratorConfig | None = None) -> BasinStatistics:
    """Classify ``n`` seeded-random initial states from ``box``.

    Deterministic for a given seed; each state is drawn from its own
    (seed, index) stream, so the tally does not depend on the order in
    which states are classified.  Each run stops when it enters the stable
    equilibrium's proven local basin, built at most once, or when its
    section crossings repeat (see ``classify_initial_state``).
    ``decided_by`` counts the converged runs by the rule that decided them
    ("local_basin" or "window") and the early-stopped periodic runs as
    "section".
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if box is None:
        box = default_basin_box(params)
    equilibria = solve_equilibria(params)
    if config is None:
        config = basin_config(default_horizon(params, equilibria))
    stats = BasinStatistics(n=n, seed=seed)
    for i in range(n):
        initial = sample_initial_state(box, seed, i)
        verdict = classify_initial_state(params, initial, equilibria, config)
        decided_by = getattr(verdict, "decided_by", None)
        if isinstance(verdict, PeriodicOrbit) and verdict.t_decided is not None:
            decided_by = "section"
        if decided_by is not None:
            stats.decided_by[decided_by] = stats.decided_by.get(decided_by, 0) + 1
        if isinstance(verdict, ConvergedToEquilibrium):
            if verdict.equilibrium.classification is Stability.STABLE:
                key = "converged_stable"
                stats.converged_stable += 1
            else:
                key = "converged_unstable"
                stats.converged_unstable += 1
        elif isinstance(verdict, PeriodicOrbit):
            key = "periodic"
            stats.periodic += 1
        else:
            key = "undecided"
            stats.undecided += 1
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
