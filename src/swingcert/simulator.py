"""Time integration and trajectory classification.

Provides an adaptive Dormand-Prince 5(4) integrator with dense output, a
per-step hook and an rhs-call budget, and one classifier that reads a run
as a stream of segments (integrator steps or stored samples): converged
to the stable equilibrium (modulo 2*pi, the integer sheet recorded),
decided only by its proven local basin, which also ends basin runs early;
periodic, once the run's crossings of a fixed Poincare section of the
power angle approach an attracting fixed point of its return map, the
design's pole-slip orbit (found once per design, from standstill) or one
Newton finds, both accepted by one check, which ends slipping basin runs
early; or undecided.  One helper finds the crossings of a run and of each
Newton turn.  All operations are deterministic given their inputs and seeds.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache

import numpy as np

from .core import (
    FULL_MODEL,
    NumericalError,
    SgParameters,
    RHS_NAMESPACE,
    SgState,
    TWO_PI,
    derive_constants,
    full_rhs,
    stacked_rhs,
)
from .csvtext import csv_rows
from .equilibria import EquilibriumPoint, Stability, solve_equilibria, stable_basin
from .swing import delta_from_eta, ese_from_full, ese_rhs_fn


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

# Each verdict type names its ``kind``, the ``BasinStatistics`` count it
# adds to (``tally``) and the rule that decided it (``decided_by``, None
# for an undecided run).

@dataclass(frozen=True)
class ConvergedToEquilibrium:
    """A run whose final state lies in the proven local basin of the stable
    equilibrium, the only rule that decides convergence (``decided_by``);
    ``t_decided`` is the time at which an early-stopped run entered it."""

    equilibrium: EquilibriumPoint
    sheet: int
    t_decided: float | None = None

    kind = "converged"
    tally = "converged_stable"  # only the stable point has a proven basin
    decided_by = "local_basin"


@dataclass(frozen=True)
class PeriodicOrbit:
    """A run that approaches an attracting fixed point of the section's
    return map (``Classifier``).

    ``fixed_point`` is that point (i_d, i_q, omega), ``residual`` its
    |P(x*) - x*| in the error norm of the run that verified it and
    ``multipliers`` the moduli of the eigenvalues of P's Jacobian, largest
    first; ``period``, ``mean_omega`` and ``omega_below_grid`` (largest
    omega of the turn below the grid's) come from the turn that verified
    it.  A run that approaches the design's pole-slip orbit
    (``_design_orbit``) carries that orbit's record, found by the run from
    standstill at the same tolerances; any other carries its own Newton's.
    ``_attempt`` builds both, with every field but the last two; the run's
    classifier sets those.  ``crossing`` is the number of section crossings
    the run had made when it was decided, and ``t_decided`` the time of
    that crossing in an early-stopped run, None for a run classified at
    its horizon; ``decided_by`` tells the two apart as "section" and
    "horizon".
    """

    period: float
    mean_omega: float
    omega_below_grid: bool
    fixed_point: tuple
    residual: float
    multipliers: tuple
    t_decided: float | None = None
    crossing: int | None = None

    kind = "periodic"
    tally = "periodic"

    @property
    def decided_by(self) -> str:
        return "horizon" if self.t_decided is None else "section"


@dataclass(frozen=True)
class Undecided:
    reason: str

    kind = "undecided"
    tally = "undecided"
    decided_by = None


def verdict_to_dict(verdict) -> dict:
    """The verdict's ``kind`` and fields; a converged run's equilibrium is
    given as its branch, angle and classification, with ``decided_by``."""
    out = {"kind": verdict.kind}
    for f in fields(verdict):
        value = getattr(verdict, f.name)
        if isinstance(value, EquilibriumPoint):
            out.update(branch=value.branch, delta_e=value.state.delta,
                       classification=value.classification.value,
                       decided_by=verdict.decided_by)
        else:
            out[f.name] = value
    return out


@dataclass
class Trajectory:
    """Sampled solution: strictly increasing times, one state per row.

    ``columns`` names the state components, by default the full model's.
    ``stopped`` is set when a stop rule ended the run early; the last row
    is then the state at which it fired.  ``verdict`` stays "not
    classified" until a classifier sets it.
    """

    times: np.ndarray
    states: np.ndarray
    verdict: object = Undecided(reason="not classified")
    columns: tuple = FULL_MODEL.state
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


@lru_cache(maxsize=16)
def _stages_for(n: int, model=None):
    """The Dormand-Prince attempt ``stages(rhs, t0, y, k1, h, rtol, atol)``
    for states of length ``n``, generated on first use and then cached.

    It returns the fifth-order state, the seven stage derivatives (the last
    is rhs at the new state) and the RMS norm of the scaled error estimate,
    ``hypot(h*(E.k) / (atol + max(|u|, |v|)*rtol)) / sqrt(n)``, in
    straight-line code on named floats with the tableau written in as
    literals, rounding as ``integrate`` states.  ``max`` and ``abs`` are
    spelled as conditional expressions, which can differ from the
    builtins only in the sign of a zero or a NaN; ``atol + m*rtol`` and
    ``hypot`` pass neither on, so the error is the same, NaN included.
    Each derivative is unpacked into n names, so one of another length
    raises ValueError.

    With ``model``, the ``core.RhsSource`` of an rhs of n components, the
    derivatives are not called for: the source's prelude and expressions
    are written into the code at each stage's arguments, with the constant
    values read from ``rhs.model_constants`` once per attempt, and ``t``
    bound to each stage's time if the source reads it.  Each value, and
    each exception the rhs would raise, is the same as a call's.
    """
    names = "abcdefg"  # component i of k1..k7 is a{i}..g{i}

    def dot(weights, i):  # "0.075 * a0 + 0.225 * b0" for the weights of k3, i = 0
        return " + ".join(f"{w!r} * {names[j]}{i}" for j, w in enumerate(weights) if w)

    def state(weights):  # the components u_i + h * (weights . k)_i
        return [f"u{i} + h * ({dot(weights, i)})" for i in range(n)]

    def unpack(var, letter):
        return "    [" + ", ".join(f"{letter}{i}" for i in range(n)) + "] = " + var

    def derivative(s, at, args, var=None):  # k{s} = rhs(at, args), the list var if named
        letter = names[s - 1]
        if model is None:
            return [f"    k{s} = rhs({at}, {var or '[' + ', '.join(args) + ']'})",
                    unpack(f"k{s}", letter)]
        return ([f"    t = {at}"] * model.reads_time
                + [f"    {name} = {value}" for name, value in zip(model.state, args)]
                + [f"    {line}" for line in model.prelude]
                + [f"    {letter}{i} = {expr}" for i, expr in enumerate(model.derivative)]
                + [f"    k{s} = ({', '.join(f'{letter}{i}' for i in range(n))},)"])

    lines = ["def stages(rhs, t0, y, k1, h, rtol, atol):", unpack("y", "u"),
             unpack("k1", "a")]
    if model is not None:
        lines.append(f"    {', '.join(model.constants)} = rhs.model_constants")
    for s in range(2, 7):
        lines += derivative(s, "t0 + h" if _C[s - 1] == 1.0 else f"t0 + {_C[s - 1]!r} * h",
                            state(_A[s - 1]))
    v = [f"v{i}" for i in range(n)]
    lines += [f"    {name} = {value}" for name, value in zip(v, state(_B))]
    lines += [f"    y_new = [{', '.join(v)}]", *derivative(7, "t0 + h", v, "y_new")]
    # m{i} = |u{i}|, n{i} = |v{i}|, and max(m, n) = (n if n > m else m), as
    # the builtin picks, NaN included.
    for i in range(n):
        lines += [f"    m{i} = u{i} if u{i} >= 0.0 else -u{i}",
                  f"    n{i} = v{i} if v{i} >= 0.0 else -v{i}"]
    errors = ", ".join(f"h * ({dot(_E, i)}) / (atol + (n{i} if n{i} > m{i} else m{i})"
                       " * rtol)" for i in range(n))
    lines += [f"    err = math.hypot({errors}) / {math.sqrt(n)!r}",
              "    return y_new, (k1, k2, k3, k4, k5, k6, k7), err"]
    namespace = {}
    exec(compile("\n".join(lines), f"<dopri5 stages, n={n}>", "exec"),
         {"math": math, **RHS_NAMESPACE}, namespace)
    return namespace["stages"]


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
    Python floats: u + (w1*k1 + w3*k3 + ... + w7*k7), summed in stage
    order, with w_j = h*x*(P_j0 + x*(P_j1 + x*(P_j2 + x*P_j3))) from row j
    of ``_P_ROWS``.  The second stage has no weight (its row is zero) and
    is skipped."""
    hx = h * x
    w1, _, w3, w4, w5, w6, w7 = [hx * (p0 + x * (p1 + x * (p2 + x * p3)))
                                 for p0, p1, p2, p3 in _P_ROWS]
    return [u + (w1 * a + w3 * c + w4 * d + w5 * e + w6 * f + w7 * g)
            for u, a, _, c, d, e, f, g in zip(y_old, *K)]


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


def integrate(rhs, initial, config: IntegratorConfig, stop=None) -> Trajectory:
    """Integrate ``dy/dt = rhs(t, y)`` from t=0 to config.t_end by adaptive
    Dormand-Prince 5(4).

    Step control is scipy's RK45: RMS error norm scaled by
    atol + max(|y|, |y_new|)*rtol, rtol raised to scipy's floor of 100 eps,
    factors SAFETY/MIN/MAX with no growth right after a rejection, and a
    floor of 10 ulp(t) on the step.  A step whose arithmetic overflows or
    whose rhs raises a domain error (ValueError) is rejected.

    Samples are taken at ``config.n_samples`` uniform times on [0, t_end],
    each on the DP5 interpolant (``_step_state``) of the accepted step that
    covers it, evaluated as that step is taken and appended to one flat
    buffer; the steps do not depend on the samples, so a time two sample
    grids share gets the same row.

    Raises StiffnessError, carrying the last accepted time and state, when
    the step size falls below its floor or is NaN, including when the
    derivative keeps coming back non-finite, overflowing or raising a
    domain error, when the initial derivative overflows or raises one, and
    when a step attempt would take the rhs calls past ``MAX_RHS_CALLS``.

    ``stop(t, h, y_old, K, y)`` is an optional predicate on each accepted
    step: from time t to t + h, from state y_old to y, with stage
    derivatives K.  When it fires the run ends: the trajectory holds the
    samples before that time and then the stop time and state, and
    ``Trajectory.stopped`` is set.  Until it fires, the output and the rhs
    calls do not depend on the hook existing.

    ``rhs(t, y)`` always gets ``y`` as a list of floats, from the first
    call ``rhs(0.0, y0)`` on, and may return any sequence of floats with
    one component per state component, an ndarray included.  The stage
    arithmetic runs on Python floats, in one straight-line stage function
    per state length (``_stages_for``, looked up once per run) with the
    tableau's nonzero coefficients written in as literals.  Each stage
    argument is ``u + h*(A.k)``, the new state ``u + h*(B.k)`` and the
    error estimate ``h*(E.k)``, every dot product summed over the nonzero
    entries in tableau order, so every value rounds as the per-component
    formula ``u + h*(A.k)`` does.  An initial derivative of another length
    raises ValueError; a later one fails every step that meets it, so the
    run ends in StiffnessError with the last full-length state instead of
    being truncated.

    An rhs that carries its model description (``model_source`` and
    ``model_constants``, as a ``core.model_rhs`` closure does) is called only for
    the initial derivative and the initial-step probe: the stage function
    of that description has the model's expressions written in, with the
    same values and domain errors as calls.  Any other callable, a wrapper
    around such a closure included, is called at every stage, unless it
    copies those attributes (as ``functools.wraps`` does).  The
    trajectory's ``columns`` are the description's state names, and the
    full model's for an rhs without one.
    """
    y0 = np.asarray(initial, dtype=float)
    t_eval = np.linspace(0.0, config.t_end, config.n_samples)
    # scipy raises rtol to the same floor.
    rtol = max(config.rel_tol, 100 * np.finfo(float).eps)
    atol = config.abs_tol
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
    model = getattr(rhs, "model_source", None)
    stages = _stages_for(len(y), model)

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
                y_new, K, err = stages(rhs, t, y, f, h, rtol, atol)
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
    return Trajectory(times=times, states=states, stopped=stopped,
                      columns=FULL_MODEL.state if model is None else model.state)


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
    return integrate(rhs, ese0.as_array(), config)


# Classification ------------------------------------------------------------

def section_angle(equilibria) -> float:
    """delta_s of the Poincare section delta = delta_s (mod 2*pi): the angle
    of the first equilibrium in ``equilibria`` that is not stable (the
    saddle, so a decreasing crossing is a pole slip), 0 without one."""
    for pt in equilibria:
        if pt.classification is not Stability.STABLE:
            return pt.state.delta
    return 0.0


class _Section:
    """One run's crossings of the Poincare section delta = delta_s (mod
    2*pi), where delta first falls to a level delta_s + 2*pi*k below the
    start of the first segment read (the run's delta0) and every later
    segment end; with ``_delta_fraction``, the only code that decides what
    a crossing is and where it lies.  ``cross(t, h, y_old, K, y)`` reads a
    segment: () when delta stays above the next level, else the (time,
    (i_d, i_q, omega)) of each level passed, on the step's DP5
    interpolant, or linear between stored samples when K is None; past
    five levels, only the last five.  ``count`` counts them all.  A power
    angle of magnitude 2**55 or more, where levels a turn apart coincide,
    raises ValueError as delta0 (at the first segment, so that a failed
    first step is reported first) and StiffnessError at a segment end."""

    def __init__(self, delta_s: float):
        self.delta_s, self.count = delta_s, 0
        self.level = math.nan  # above no delta, until the first segment places it

    def _place(self, sheet: int) -> None:
        self.sheet, self.level = sheet, self.delta_s + TWO_PI * sheet

    def cross(self, t, h, y_old, K, y):
        if y[3] > self.level:
            return ()
        if math.isnan(self.level):  # the first segment; y_old[3] is delta0
            if not math.ulp(y_old[3]) < TWO_PI:  # NaN, infinite or 2**55 or more
                raise ValueError(f"initial power angle {y_old[3]!r} is too large to place "
                                 "section levels a turn apart")
            self._place(math.ceil((y_old[3] - self.delta_s) / TWO_PI) - 1)
            if y[3] > self.level:
                return ()
        if not math.ulp(y[3]) < TWO_PI:
            raise StiffnessError(f"power angle {y[3]!r} at t={t + h!r} is too large "
                                 "to place section levels a turn apart", t=t + h,
                                 state=np.array(y, dtype=float))
        skip = int((self.level - y[3]) / TWO_PI) - 4
        if skip > 0:
            self.count += skip
            self._place(self.sheet - skip)
        passed = []
        while y[3] <= self.level:
            if K is None:
                x = (y_old[3] - self.level) / (y_old[3] - y[3])
                state = [a + x * (b - a) for a, b in zip(y_old[:3], y[:3])]
            else:
                x = _delta_fraction(h, y_old, K, self.level)
                state = _step_state(h, y_old, K, x)[:3]
            passed.append((t + x * h, state))
            self.count += 1
            self._place(self.sheet - 1)
        return passed


# Newton on the return map of the section (``Classifier``, ``_attempt``).
# An attempt starts at a crossing whose step from the crossing before is
# shorter than the step before that and below ``_STEP_GATE`` of the
# crossing state (in the run's error norm, times its rel_tol).  It spends
# at most ``_NEWTON_TURNS`` turns after the three Jacobian turns, and a
# fixed point is verified when its residual |P(x*) - x*| is at most
# ``_RESIDUAL_NORMS`` error norms.  A turn that has not reached the next
# level within ``_TURN_SLACK`` times the run's last crossing interval
# misses it.  A fixed point farther than ``_REACH_STEPS`` crossing steps
# |x_k - x_{k-1}| from the attempt's crossing x_{k-1} is rejected, since the
# residual, measured at x*, shrinks as x* runs away: a return map that
# contracts by a factor 0.99 or less has its fixed point within
# 1/(1 - 0.99) = 100 steps, and the bundled orbits' lie within 1.9.
_STEP_GATE = 0.05
_NEWTON_TURNS = 6
_RESIDUAL_NORMS = 10.0
_TURN_SLACK = 2.0
_REACH_STEPS = 100.0

# A crossing step that lands near the design's pole-slip orbit is decided
# against it without a turn (``_hit``).  A return map that contracts by mu
# toward x* has |x_k - x*| <= mu/(1 - mu) |x_k - x_{k-1}| in a norm in
# which it contracts, one close to its eigenvectors' coordinates; the
# error norm is not that norm, so the bound is widened by this factor.  On
# the slipping designs of tests/periodic_soundness.py the ratio of the two
# sides reads at most 1.85 where a step hits, and 2.9 and 4.2 at the two
# steps that miss.
_NORM_SLACK = 2.0


def _distance(u, v, x, rtol, atol) -> float:
    """|u - v| in the integrator's error norm at x: the RMS of u - v scaled
    by atol + rtol*|x|."""
    return math.sqrt(sum(((a - b) / (atol + rtol * abs(c))) ** 2
                         for a, b, c in zip(u, v, x)) / len(x))


def _turn_fn(rhs, delta_s, rtol, atol, contains):
    """``turn(x, t_max)``: the return map P of the section delta = delta_s at
    x = (i_d, i_q, omega), one nested ``integrate`` of ``rhs`` from (x,
    delta_s) to its first crossing (``_Section``), where delta falls to
    delta_s - 2*pi.  Returns (time, P(x), largest omega over the turn), or
    a str naming why the turn failed: it entered the local basin
    (``contains``, None without one), missed the level by ``t_max`` or
    failed to integrate.
    """
    def turn(x, t_max):
        cross = _Section(delta_s).cross
        found = []
        top = x[2]

        def stop(t, h, y_old, K, y):
            nonlocal top
            if contains is not None and contains(y):
                found.append("entered the local basin")
                return True
            passed = cross(t, h, y_old, K, y)
            if not passed:
                if y[2] > top:
                    top = y[2]
                return False
            time, image = passed[0]
            found.append((time, image, max(top, image[2])))
            return True

        config = IntegratorConfig(rel_tol=rtol, abs_tol=atol, t_end=t_max, n_samples=2)
        try:
            integrate(rhs, [*x, delta_s], config, stop=stop)
        except StiffnessError:
            return "failed to integrate"
        return found[0] if found else f"missed the next level within {t_max:.3g} s"

    return turn


def _attempt(turn, base, image, interval, rtol, atol, omega_g):
    """Newton on P(x) = x from the crossing ``base``, whose image P(base)
    is ``image``, ``interval`` seconds later, on a grid of frequency
    ``omega_g``.

    The Jacobian of P comes from forward differences of three turns (steps
    of sqrt(rtol) relative) against ``image``.  Each Newton step on
    F(x) = P(x) - x is one turn; a step whose turn fails or does not lower
    the residual is halved, and an accepted one refines F' by Broyden's
    update from its secant, so no further Jacobian turns are needed
    (Dennis & Schnabel, *Numerical Methods for Unconstrained Optimization
    and Nonlinear Equations*, Sec. 8.1).  Returns the ``PeriodicOrbit``
    of a fixed point x* whose residual is at most ``_RESIDUAL_NORMS`` error
    norms and which the step from ``base`` to ``image`` approaches
    (``_approached``): the refined Jacobian's multipliers, and the period
    and largest omega of the turn from x*, with no ``crossing`` yet.
    Otherwise a str naming the failed check, a singular F' included.
    """
    t_max = _TURN_SLACK * interval
    slope = np.empty((3, 3))  # F'(base) = P'(base) - I
    for j in range(3):
        eps = math.sqrt(rtol) * max(abs(base[j]), 1.0)
        x = list(base)
        x[j] += eps
        out = turn(x, t_max)
        if isinstance(out, str):
            return f"a Jacobian turn {out}"
        slope[:, j] = [(a - b) / eps for a, b in zip(out[1], image)]
        slope[j, j] -= 1.0
    x, f = list(base), np.subtract(image, base)
    residual = _distance(image, base, base, rtol, atol)
    turns, why = 0, None
    while True:  # at least one turn, from which the period is read
        try:
            step = -np.linalg.solve(slope, f)
        except np.linalg.LinAlgError:
            return "singular return-map Jacobian"
        while True:
            if turns == _NEWTON_TURNS:
                return why or (f"return-map residual {residual:.3g} error norms after "
                               f"{_NEWTON_TURNS} Newton turns, above {_RESIDUAL_NORMS:g}")
            turns += 1
            x_try = [a + b for a, b in zip(x, step.tolist())]
            out = turn(x_try, t_max)
            if isinstance(out, str):
                why = f"a Newton turn {out}"
            else:
                f_try = np.subtract(out[1], x_try)
                r_try = _distance(out[1], x_try, x_try, rtol, atol)
                if r_try < residual or r_try <= _RESIDUAL_NORMS:
                    break
                why = f"no Newton convergence (residual {r_try:.3g} error norms)"
            step = 0.5 * step
        if step.any():  # base == image exactly gives a zero step
            slope += np.outer(f_try - f - slope @ step, step) / (step @ step)
        x, f, residual, verified, why = x_try, f_try, r_try, out, None
        if residual <= _RESIDUAL_NORMS:
            break
    moduli = sorted(np.abs(np.linalg.eigvals(slope + np.eye(3))).tolist(), reverse=True)
    period, _, top = verified
    # delta falls by 2*pi per turn and d(delta)/dt = omega - omega_g.
    return _approached(x, moduli, base, image, rtol, atol) or PeriodicOrbit(
        period=period, mean_omega=omega_g - TWO_PI / period,
        omega_below_grid=bool(top < omega_g), fixed_point=tuple(x), residual=residual,
        multipliers=tuple(moduli))


def _approached(x, moduli, base, image, rtol, atol) -> str | None:
    """None when the step from the crossing ``base`` to its image ``image``
    approaches the fixed point ``x`` with multiplier moduli ``moduli``
    (largest first), else the first failed check: x lies within
    ``_REACH_STEPS`` crossing steps |image - base| of ``base`` (error norm
    at ``base``), every multiplier is inside the unit circle, and ``image``
    is closer to x than ``base`` is (error norm at x)."""
    reach = _distance(x, base, base, rtol, atol)
    if reach > _REACH_STEPS * _distance(image, base, base, rtol, atol):
        return (f"fixed point {reach:.3g} error norms from the crossing, beyond "
                f"{_REACH_STEPS:g} crossing steps")
    if not moduli[0] < 1.0:
        return f"return-map multiplier |mu| = {moduli[0]:.3g} >= 1"
    if not _distance(image, x, x, rtol, atol) < _distance(base, x, x, rtol, atol):
        return "section crossings not approaching the fixed point"


def _hit(orbit: PeriodicOrbit, base, image, rtol, atol) -> bool:
    """Whether the crossing ``base`` and its image ``image`` approach the
    fixed point x* of ``orbit`` as ``_attempt`` requires of the point it
    finds (``_approached``), and |image - x*| is at most ``_NORM_SLACK``
    mu/(1 - mu) crossing steps, both in the error norm at x*, for the
    orbit's largest multiplier mu."""
    x, mu = orbit.fixed_point, orbit.multipliers[0]
    return (_approached(x, orbit.multipliers, base, image, rtol, atol) is None
            and _distance(image, x, x, rtol, atol)
            <= _NORM_SLACK * mu / (1.0 - mu) * _distance(image, base, x, rtol, atol))


@lru_cache(maxsize=32)
def _design_orbit(params: SgParameters, equilibria: tuple, rel_tol: float,
                  abs_tol: float) -> PeriodicOrbit | None:
    """The falling pole-slip orbit of the design ``params`` at these
    tolerances: the periodic verdict of the run from standstill (0, 0, 0,
    0) over ``default_horizon``, stopped at its decision, whose fixed point
    its own Newton finds (``_attempt``).  None when that verdict is not
    periodic or the run fails to integrate.  ``equilibria`` is the tuple
    of the design's equilibria.  The orbit depends on nothing but these
    arguments; it is built by the first run that asks for it and then
    served from a cache, as ``stable_basin`` is.
    """
    config = IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol, n_samples=2,
                              t_end=default_horizon(params, equilibria))
    # Given its rhs, the classifier asks for no orbit: Newton alone decides.
    try:
        verdict = _classified(params, SgState(0.0, 0.0, 0.0, 0.0), equilibria, config,
                              stop=True, rhs=full_rhs(params)).verdict
    except StiffnessError:
        return None
    return verdict if isinstance(verdict, PeriodicOrbit) else None


class Classifier:
    """The trajectory classifier: one pass over a run's segments.

    ``segment(t, h, y_old, K, y)`` reads the segment from time t to t + h,
    state y_old to y, and its section crossings (``_Section``); it is the
    integrator's stop hook, and a stored trajectory is fed the intervals
    between its samples with K None.  The run itself fixes where the
    section's levels lie: the first segment read starts at its delta0.
    ``finish(y_final)`` gives the verdict, in this order:

    1. the final state lies in the stable equilibrium's proven local basin
       (invariant and attracting, so no tolerance is involved);
    2. an attracting fixed point of the return map P: (i_d, i_q, omega) ->
       (i_d, i_q, omega) of the Poincare section delta =
       ``section_angle(equilibria)`` (mod 2*pi) that the run approaches:
       the design's pole-slip orbit (``_design_orbit``, ``_hit``), or one
       located by Newton (``_attempt``) and verified by a turn;
    3. Undecided, naming the basin outcome and the check that failed last.

    Once three crossings x_{k-2}, x_{k-1}, x_k are known and the step x_k -
    x_{k-1} has contracted (shorter than the one before and below
    ``_STEP_GATE`` of the state), an attempt takes x_{k-1} and its image
    P(x_{k-1}), which is x_k; a stored trajectory's crossings are linear
    interpolants, so there a turn recomputes that image.  Each turn is a
    nested run of ``rhs`` at ``rel_tol``/``abs_tol``, the run's own
    settings, from sheet 0.  With ``rhs`` None the turns run
    ``full_rhs(params)``, and the attempt first tests the step against the
    design's pole-slip orbit at the run's tolerances, built on the first
    attempt that asks for it: a hit (``_hit``) takes the orbit's record and
    costs no turn.  Otherwise, and always for a classifier given its own
    ``rhs``, whose orbits need not be the design's, the attempt runs Newton
    from x_{k-1}, which builds its own record.  A failed attempt leaves the
    run going and the next contracted crossing tries again; the first
    fixed point found is the verdict, its record stamped with the crossing
    number k at which it was decided.

    With ``stop``, ``segment`` ends the run once a segment end lies in the
    local basin or an attempt finds the fixed point, and the verdict
    carries that time as ``t_decided``.  Memory stays bounded: the last
    three crossings.  So does time: a segment makes at most one attempt,
    and ``_Section`` bounds the work of locating its crossings.
    """

    def __init__(self, params: SgParameters, equilibria, stop: bool, rhs=None,
                 rel_tol: float = IntegratorConfig.rel_tol,
                 abs_tol: float = IntegratorConfig.abs_tol):
        # The closures keep no reference to self, so a finished run's
        # state is freed at once rather than by the cycle collector.
        basin = stable_basin(params, equilibria)
        contains = basin.contains if stop and basin is not None else None
        delta_s = section_angle(equilibria)
        design = (params, tuple(equilibria), rel_tol, abs_tol) if rhs is None else None
        turn = _turn_fn(full_rhs(params) if rhs is None else rhs, delta_s, rel_tol, abs_tol,
                        None if basin is None else basin.contains)
        section = _Section(delta_s)
        cross = section.cross
        crossings = deque(maxlen=3)  # the last three (time, (i_d, i_q, omega))
        result = None  # the last attempt's PeriodicOrbit (crossing set) or failure
        stopped = []  # the time at which the run was decided and stopped

        def attempt(stored: bool) -> PeriodicOrbit | str:
            (_, x0), (t1, x1), (t2, x2) = crossings
            step = _distance(x2, x1, x2, rel_tol, abs_tol)
            if not (step < _distance(x1, x0, x2, rel_tol, abs_tol)
                    and step * rel_tol < _STEP_GATE):
                return "steps not contracting"
            image = x2
            if stored:
                out = turn(x1, _TURN_SLACK * (t2 - t1))
                if isinstance(out, str):
                    return f"a turn from the crossing {out}"
                image = out[1]
            orbit = None if design is None else _design_orbit(*design)
            if orbit is None or not _hit(orbit, x1, image, rel_tol, abs_tol):
                orbit = _attempt(turn, x1, image, t2 - t1, rel_tol, abs_tol, params.omega_g)
            return orbit if isinstance(orbit, str) else replace(orbit, crossing=section.count)

        def segment(t, h, y_old, K, y) -> bool:
            nonlocal result
            if contains is not None and contains(y):
                stopped.append(t + h)
                return True
            passed = cross(t, h, y_old, K, y)
            if not passed:
                return False
            crossings.extend(passed)
            if not isinstance(result, PeriodicOrbit) and len(crossings) == 3:
                result = attempt(K is None)
                if stop and isinstance(result, PeriodicOrbit):
                    stopped.append(crossings[-1][0])
                    return True
            return False

        def finish(y_final):
            t_decided = stopped[0] if stopped else None
            if basin is not None and basin.contains(y_final):
                turns = int(round((y_final[3] - basin.point.state.delta) / TWO_PI))
                return ConvergedToEquilibrium(equilibrium=basin.point, sheet=turns,
                                              t_decided=t_decided)
            if isinstance(result, PeriodicOrbit):
                return replace(result, t_decided=t_decided)
            outcome = ("no proven local basin" if basin is None else
                       "final state outside the proven local basin of the branch "
                       f"{basin.point.branch} equilibrium")
            return Undecided(reason=f"{outcome}; {section.count} section crossings, "
                                    f"{result or 'fewer than 3'}")

        self.segment = segment
        self.finish = finish


def detect_convergence(traj: Trajectory, equilibria, params: SgParameters, tol=None):
    """Classify a stored full-model trajectory of the design ``params``
    (other integrators' solutions): the ``Classifier`` fed the
    intervals between its samples, up to the last.  A final state in the
    proven local basin decides the run without reading the others.  There
    is no run rhs, so the return-map turns integrate ``full_rhs(params)``
    at ``IntegratorConfig``'s default tolerances, and the design's
    pole-slip orbit is the one found at those tolerances.  ``tol`` is accepted and
    ignored: no verdict rests on a tolerance.
    """
    final = traj.states[-1].tolist()
    clf = Classifier(params, equilibria, False)
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
        out = asdict(self)
        out["exemplars"] = {k: list(v) for k, v in self.exemplars.items()}
        return out


def sample_initial_state(box, seed: int, index: int) -> SgState:
    """Deterministic initial state number ``index`` for a given seed.

    Each trajectory gets its own stream derived from (seed, index), so
    results do not depend on execution order.
    """
    rng = np.random.default_rng([seed, index])
    draws = [rng.uniform(lo, hi) for lo, hi in box]
    return SgState(*draws)


def _classified(params, initial, equilibria, config, stop: bool, rhs=None) -> Trajectory:
    """Full-model run of ``initial`` with its verdict: the run feeds the
    ``Classifier`` from its step hook (and with ``stop`` ends at its early
    verdict); handed the run's ``rhs`` too, the classifier asks for no orbit."""
    clf = Classifier(params, equilibria, stop, rhs, config.rel_tol, config.abs_tol)
    traj = integrate(full_rhs(params) if rhs is None else rhs, initial.as_array(), config,
                     stop=clf.segment)
    traj.verdict = clf.finish(traj.final_state.tolist())
    return traj


def classify_initial_state(params, initial, equilibria, config):
    """Simulate one initial state and classify the outcome.

    The ``Classifier`` reads each step of the run and stops it as soon as
    it enters the proven local basin or its section crossings approach an
    attracting fixed point of the return map, the design's pole-slip orbit
    or one Newton finds; the verdict then
    carries ``t_decided``.  A run that reaches
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
    when it approaches a verified fixed point of the section's return map,
    the design's pole-slip orbit (also built at most once) or its own
    Newton's, and keeps only its two endpoint samples.  Each verdict
    adds to its ``tally`` count and to its ``decided_by`` count, which
    every decided run has, so those counts sum to n - undecided.
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
        key, decided_by = verdict.tally, verdict.decided_by
        setattr(stats, key, getattr(stats, key) + 1)
        if decided_by is not None:
            stats.decided_by[decided_by] = stats.decided_by.get(decided_by, 0) + 1
        stats.exemplars.setdefault(key, tuple(initial.as_array()))
    return stats


# Cross-validation ----------------------------------------------------------

def combined_full_ese_rhs(params: SgParameters, initial: SgState):
    """Stacked 8-state system: full model and matched ESE, integrated
    together, as the ``core.stacked_rhs`` of their closures."""
    ese0, init_currents = ese_from_full(initial, params)
    rhs = stacked_rhs(full_rhs(params), ese_rhs_fn(params, init_currents))
    return rhs, np.concatenate([initial.as_array(), ese0.as_array()])


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
    traj = integrate(rhs, y0, config)
    delta_ese = delta_from_eta(traj.states[:, 4], derive_constants(params))
    return float(np.max(np.abs(traj.states[:, 3] - delta_ese)))


# Serialisation --------------------------------------------------------------

def trajectory_csv(traj: Trajectory) -> str:
    """Trajectory as CSV: time column, one column per state component,
    and a trailing structured verdict record.  ``csvtext.csv_rows`` writes
    the numbers byte for byte as printf ``%.17g`` does.
    """
    import json

    return (
        "t," + ",".join(traj.columns) + "\n"
        + csv_rows([traj.times, *traj.states.T])
        + "# verdict: " + json.dumps(verdict_to_dict(traj.verdict), sort_keys=True) + "\n"
    )
