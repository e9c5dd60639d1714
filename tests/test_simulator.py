import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import swingcert as sc
from swingcert import simulator
from swingcert.core import FULL_MODEL, TWO_PI
from swingcert.equilibria import stable_basin
from swingcert.simulator import (
    ConvergedToEquilibrium,
    IntegratorConfig,
    PeriodicOrbit,
    StiffnessError,
    Trajectory,
    Undecided,
    classify_initial_state,
    default_basin_box,
    default_horizon,
    integrate,
    sample_initial_state,
    trajectory_csv,
    verdict_to_dict,
)
from swingcert.swing import ESE_MODEL

from oracles import storage_energy


def _scipy_rk45(rhs, y0, config):
    """Reference solution from scipy's RK45 on the same sample times."""
    t_eval = np.linspace(0.0, config.t_end, config.n_samples)
    sol = solve_ivp(rhs, (0.0, config.t_end), y0, method="RK45",
                    rtol=config.rel_tol, atol=config.abs_tol, t_eval=t_eval)
    assert sol.status == 0
    return sol


def _dense(t_end):
    """Settings of a full-horizon basin run, sampled at 2000 per second
    (2000..20000 intervals) as the benchmark's replay samples it."""
    return IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, t_end=t_end,
                            n_samples=int(min(20000, max(2000, 2000.0 * t_end))) + 1)


def _counted(f):
    """``f`` with a count of its calls in ``.calls``."""
    def rhs(t, y):
        rhs.calls += 1
        return f(t, y)

    rhs.calls = 0
    return rhs


def test_config_validation():
    with pytest.raises(TypeError):
        IntegratorConfig(method="rk4")  # one integrator, no method field
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(n_samples=1)
    for setting in ({"t_end": np.nan}, {"t_end": np.inf}, {"rel_tol": np.nan},
                    {"abs_tol": np.nan}, {"rel_tol": np.inf}, {"abs_tol": np.inf}):
        with pytest.raises(ValueError):
            IntegratorConfig(**setting)


def test_equilibrium_is_invariant(params_n30, equilibria_n30):
    stable = [pt for pt in equilibria_n30 if pt.classification.value == "stable"][0]
    config = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=10.0, n_samples=501)
    traj = sc.simulate_full(params_n30, stable.state, config)
    scales = np.array([50.0, 50.0, params_n30.omega_g, 1.0])
    drift = np.abs(traj.states - stable.state.as_array()) / scales
    assert float(drift.max()) < 1e-6


def test_linear_system_against_matrix_exponential():
    A = np.array([[-0.3, 1.2, 0.0], [-1.2, -0.3, 0.5], [0.1, 0.0, -0.8]])
    x0 = np.array([1.0, -2.0, 0.5])
    traj = integrate(lambda t, y: A @ y, x0,
                     IntegratorConfig(t_end=1.0, n_samples=3))  # default tolerances
    exact = expm(A) @ x0
    assert np.linalg.norm(traj.states[-1] - exact) < 1e-8 * np.linalg.norm(exact)


def test_trajectory_times_strictly_increasing(params_n30):
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, t_end=1.0, n_samples=101)
    traj = sc.simulate_full(params_n30, sc.SgState(1.0, 1.0, 300.0, 0.0), config)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.states.shape == (101, 4)


def test_stiffness_error_carries_state():
    # Finite-time blow-up forces the step size under machine resolution.
    config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=2.0, n_samples=21)
    with pytest.raises(StiffnessError) as excinfo:
        integrate(lambda t, y: [y[0] ** 2], [1.0], config)
    assert excinfo.value.t is not None
    assert excinfo.value.state is not None


@pytest.mark.parametrize("design", ["params_n30", "params_rs216"])
@pytest.mark.parametrize("rel_tol, abs_tol", [(1e-6, 1e-8), (1e-9, 1e-11)])
def test_rk45_matches_scipy(design, rel_tol, abs_tol, request):
    params = request.getfixturevalue(design)
    rhs = sc.full_rhs(params)
    box = default_basin_box(params)
    config = IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol, t_end=1.0,
                              n_samples=1001)
    for i in range(2):
        y0 = sample_initial_state(box, 41, i).as_array()
        ref = _scipy_rk45(rhs, y0, config)
        scale = np.max(np.abs(ref.y), axis=1)
        # A tuple-returning and an ndarray-returning rhs run on the one float
        # stage path: the same rhs calls and the same states.
        runs = []
        for f in (rhs, lambda t, y: np.array(rhs(t, y))):
            counted = _counted(f)
            states = integrate(counted, y0, config).states
            assert np.all(np.abs(states - ref.y.T) <= 1e-6 * scale)
            # Same initial step, controller and rejections: same rhs count.
            assert counted.calls == ref.nfev
            runs.append(states)
        assert np.array_equal(runs[0], runs[1])


@pytest.mark.parametrize("rel_tol, abs_tol", [(1e-6, 1e-8), (1e-9, 1e-11), (1e-16, 1e-18)])
def test_rk45_step_control_matches_scipy(rel_tol, abs_tol):
    # y' jumps from 0 to 1 at t = 0.3: the zero error estimate before the
    # jump grows the step by the largest factor, the jump forces rejections
    # at the smallest, and 1e-16 is below the relative tolerance floor.
    f = lambda t, y: (0.0 if t < 0.3 else 1.0,)
    config = IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol, t_end=1.0,
                              n_samples=101)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # scipy: rtol too small
        ref = _scipy_rk45(f, [1.0], config)
    counted = _counted(f)
    traj = integrate(counted, [1.0], config)
    assert counted.calls == ref.nfev
    assert np.allclose(traj.states[:, 0], ref.y[0], rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("design", ["params_n30", "params_rs216"])
def test_verdicts_match_scipy(design, request):
    params = request.getfixturevalue(design)
    equilibria = sc.solve_equilibria(params)
    config = _dense(default_horizon(params, equilibria))
    rhs = sc.full_rhs(params)
    box = default_basin_box(params)
    for i in range(12):
        y0 = sample_initial_state(box, 5, i).as_array()
        ours = sc.detect_convergence(integrate(rhs, y0, config), equilibria,
                                     params=params)
        sol = _scipy_rk45(rhs, y0, config)
        ref = sc.detect_convergence(Trajectory(times=sol.t, states=sol.y.T),
                                    equilibria, params=params)
        assert ours.kind == ref.kind
        assert getattr(ours, "sheet", None) == getattr(ref, "sheet", None)


def _fails_from(t_fail, bad, as_array):
    """rhs of y' = 1 that hits ``bad`` (a NaN, an overflow or a domain error) from
    ``t_fail``.

    From y(0) = 1 a NaN at t = 0 also makes the first step size NaN.
    """
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        if calls[0] > 100000:
            raise RuntimeError("integrator keeps retrying a failing step")
        value = 1.0 if t < t_fail else bad()
        return np.array([value]) if as_array else (value,)

    return rhs


@pytest.mark.parametrize("t_fail", [0.0, 0.5])
@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("bad", [lambda: float("nan"), lambda: 10.0 ** 400,
                                 lambda: math.remainder(math.inf, 1.0)],
                         ids=["nan", "overflow", "domain"])
def test_numerical_failure_keeps_last_finite_state(t_fail, bad, as_array):
    # A domain error inside the rhs, such as math.remainder of an angle that
    # overflowed, is a numerical failure too, in the initial derivative and
    # step probe (t_fail = 0) as in a step attempt.
    config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=1.0, n_samples=11)
    with pytest.raises(StiffnessError) as excinfo:
        integrate(_fails_from(t_fail, bad, as_array), [1.0], config)
    t, state = excinfo.value.t, excinfo.value.state
    assert t_fail - 0.1 < t <= t_fail
    assert np.all(np.isfinite(state))
    assert state[0] == pytest.approx(1.0 + t, rel=1e-9)


@pytest.mark.parametrize("rhs, y0, length", [
    (lambda t, y: (-y[0], 1e6), [1.0], 2),
    (lambda t, y: (-y[0],), [1.0, 2.0], 1),
], ids=["long", "short"])
def test_rhs_length_must_match_state(rhs, y0, length):
    # A derivative longer than the state would be silently truncated, and a
    # shorter one would fail only after the whole run: both are rejected at
    # the initial derivative, as bad input rather than a numerical failure.
    counted = _counted(rhs)
    config = IntegratorConfig(t_end=1.0, n_samples=3)
    with pytest.raises(ValueError, match=f"length {length} for a state of length {len(y0)}"):
        integrate(counted, y0, config)
    assert counted.calls == 1


@pytest.mark.parametrize("rhs, y0", [
    (lambda t, y: (-y[0], 1.0) if t > 0.3 else (-y[0],), [1.0]),
    (lambda t, y: (-y[0],) if t > 0.3 else (-y[0], -y[1]), [1.0, 2.0]),
], ids=["longer", "shorter"])
def test_rhs_length_change_mid_run_is_a_numerical_failure(rhs, y0):
    # A derivative that changes length after the first call is never
    # truncated: every step attempt past t = 0.3 is rejected until the step
    # size underflows, and the error carries the last full-length state.
    config = IntegratorConfig(t_end=1.0, n_samples=3)
    with pytest.raises(StiffnessError, match="step size underflow") as excinfo:
        integrate(rhs, y0, config)
    t, state = excinfo.value.t, excinfo.value.state
    assert 0.29 < t <= 0.3
    assert state == pytest.approx(np.array(y0) * math.exp(-t), rel=1e-6)


def test_detect_convergence_at_stable_point(params_n30, equilibria_n30):
    stable = [pt for pt in equilibria_n30 if pt.classification.value == "stable"][0]
    config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=5.0, n_samples=501)
    traj = sc.simulate_full(params_n30, stable.state, config)
    verdict = sc.detect_convergence(traj, equilibria_n30, params=params_n30)
    assert isinstance(verdict, ConvergedToEquilibrium)
    assert verdict.equilibrium.branch == stable.branch
    assert verdict.sheet == 0


def test_detect_convergence_records_sheet(params_n30, equilibria_n30):
    stable = [pt for pt in equilibria_n30 if pt.classification.value == "stable"][0]
    start = sc.SgState(stable.state.i_d, stable.state.i_q, stable.state.omega,
                       stable.state.delta + 2 * TWO_PI)
    config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=5.0, n_samples=501)
    traj = sc.simulate_full(params_n30, start, config)
    verdict = sc.detect_convergence(traj, equilibria_n30, params=params_n30)
    assert isinstance(verdict, ConvergedToEquilibrium)
    assert verdict.sheet == 2


def test_small_basin_sample_converges(params_n30):
    stats = sc.basin_sample(params_n30, n=10, seed=3)
    assert stats.converged_stable == 10
    assert stats.periodic == stats.undecided == stats.converged_unstable == 0


def test_basin_sample_deterministic(params_rs216):
    a = sc.basin_sample(params_rs216, n=6, seed=9)
    b = sc.basin_sample(params_rs216, n=6, seed=9)
    assert a.to_dict() == b.to_dict()


def test_basin_tally_independent_of_order(params_rs216):
    stats = sc.basin_sample(params_rs216, n=6, seed=9)
    equilibria = sc.solve_equilibria(params_rs216)
    config = _dense(default_horizon(params_rs216, equilibria))
    box = default_basin_box(params_rs216)
    tally, exemplars = Counter(), {}
    for i in reversed(range(6)):
        initial = sample_initial_state(box, 9, i)
        verdict = classify_initial_state(params_rs216, initial, equilibria, config)
        key = verdict.kind
        if isinstance(verdict, ConvergedToEquilibrium):
            stable = verdict.equilibrium.classification.value == "stable"
            key = "converged_stable" if stable else "converged_unstable"
        tally[key] += 1
        exemplars[key] = list(initial.as_array())  # ends on the lowest index
    doc = stats.to_dict()
    assert {k: doc[k] for k in tally} == dict(tally)
    assert sum(tally.values()) == 6
    assert doc["exemplars"] == exemplars


def test_basin_decided_by_counts_every_decided_run(params_rs216):
    # Over 0.8 s some slipping runs stop on the section and some are left
    # undecided; every other run is counted by the rule that decided it.
    stats = sc.basin_sample(params_rs216, n=12, seed=1, t_end=0.8)
    assert stats.undecided > 0 and stats.decided_by.get("section", 0) > 0
    assert sum(stats.decided_by.values()) == stats.n - stats.undecided
    assert set(stats.decided_by) <= {"local_basin", "section", "horizon"}
    assert stats.converged_unstable == 0
    # A run that starts on the orbit finds its fixed point within 1 s:
    # periodic, decided on the section.
    on_orbit = sc.simulate_full(params_rs216, sc.SgState(0.0, 0.0, 0.0, 0.0),
                                IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, t_end=5.0,
                                                 n_samples=2)).final_state
    stats = sc.basin_sample(params_rs216, n=2, seed=0, box=[(v, v) for v in on_orbit],
                            t_end=1.0)
    assert stats.periodic == 2
    assert stats.decided_by == {"section": 2}


def test_basin_sample_rejects_bad_n(params_n30):
    with pytest.raises(ValueError):
        sc.basin_sample(params_n30, n=0, seed=0)


def test_periodic_orbit_rs216(params_rs216):
    config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=20.0,
                              n_samples=20001)
    traj = sc.simulate_full(params_rs216, sc.SgState(0.0, 0.0, 0.0, 0.0), config)
    verdict = sc.detect_convergence(traj, sc.solve_equilibria(params_rs216),
                                    params=params_rs216)
    assert isinstance(verdict, PeriodicOrbit)
    assert abs(verdict.period - 0.16) <= 0.02
    assert verdict.omega_below_grid is True
    assert verdict.mean_omega < params_rs216.omega_g


def test_periodic_orbit_dp15(params_dp15):
    config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=60.0,
                              n_samples=60001)
    traj = sc.simulate_full(params_dp15, sc.SgState(0.0, 0.0, 0.0, 0.0), config)
    verdict = sc.detect_convergence(traj, sc.solve_equilibria(params_dp15),
                                    params=params_dp15)
    assert isinstance(verdict, PeriodicOrbit)
    assert verdict.omega_below_grid is True


def test_basin_finds_periodic_region(params_rs216):
    stats = sc.basin_sample(params_rs216, n=30, seed=11)
    assert stats.periodic > 0
    assert stats.converged_stable > 0
    assert "periodic" in stats.exemplars


def test_converged_trajectory_yields_no_orbit(params_n30, equilibria_n30):
    stable = [pt for pt in equilibria_n30 if pt.classification.value == "stable"][0]
    near = sc.SgState(stable.state.i_d + 5.0, stable.state.i_q - 5.0,
                      stable.state.omega + 2.0, stable.state.delta + 0.1)
    config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=6.0, n_samples=3001)
    traj = sc.simulate_full(params_n30, near, config)
    verdict = sc.detect_convergence(traj, equilibria_n30, params=params_n30)
    assert isinstance(verdict, ConvergedToEquilibrium)
    # Without the stable point there is no basin, so only the section is
    # left, and a decaying oscillation is no orbit.
    unstable = [pt for pt in equilibria_n30 if pt.classification.value != "stable"]
    rule = simulator.Classifier(params_n30, unstable, False)
    rows, times = traj.states.tolist(), traj.times.tolist()
    for k in range(1, len(rows)):
        rule.segment(times[k - 1], times[k] - times[k - 1], rows[k - 1], None, rows[k])
    verdict = rule.finish(rows[-1])
    assert isinstance(verdict, Undecided)
    assert verdict.reason.startswith("no proven local basin; ")


def test_periodic_verdict_equivariant_under_sheet_shift(params_rs216):
    config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=15.0,
                              n_samples=15001)
    eqs = sc.solve_equilibria(params_rs216)
    verdicts = []
    for shift in (0.0, TWO_PI):
        traj = sc.simulate_full(params_rs216,
                                sc.SgState(0.0, 0.0, 100.0, 0.5 + shift), config)
        verdicts.append(sc.detect_convergence(traj, eqs, params=params_rs216))
    assert type(verdicts[0]) is type(verdicts[1]) is PeriodicOrbit
    assert abs(verdicts[0].period - verdicts[1].period) < 1e-6


def test_energy_rate_bounded_along_trajectory(params_n30):
    config = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, t_end=2.0, n_samples=2001)
    traj = sc.simulate_full(params_n30, sc.SgState(80.0, -60.0, 500.0, 2.0), config)
    _, _, C = storage_energy((0, 0, 0, 0), params_n30)
    for row in traj.states[::50]:
        _, Wdot, _ = storage_energy(row, params_n30)
        assert Wdot <= C * (1.0 + 1e-6)


def test_default_horizon(params_n30, params_dp15):
    assert 1.0 < default_horizon(params_n30, sc.solve_equilibria(params_n30)) < 30.0
    # No stable equilibrium.
    assert default_horizon(params_dp15, sc.solve_equilibria(params_dp15)) == 60.0


def test_default_box_scales_with_iv(params_n30):
    dc = sc.derive_constants(params_n30)
    box = default_basin_box(params_n30)
    assert box[0] == (-3 * dc.i_v, 3 * dc.i_v)
    assert box[2] == (0.0, 2 * params_n30.omega_g)


def test_trajectory_csv_round_trip(params_n30, equilibria_n30):
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, t_end=0.5, n_samples=6)
    traj = sc.simulate_full(params_n30, sc.SgState(1.0, 2.0, 300.0, 0.1), config)
    traj.verdict = sc.detect_convergence(traj, equilibria_n30, params=params_n30)
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,i_d,i_q,omega,delta"
    assert len(lines) == 8  # header + 6 samples + verdict record
    assert lines[-1].startswith("# verdict: ")
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:], traj.states)


def test_trajectory_columns_come_from_the_model_description(params_n30):
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, t_end=0.1, n_samples=3)
    initial = sc.SgState(5.0, -5.0, 320.0, 0.3)
    full = sc.simulate_full(params_n30, initial, config)
    ese = sc.simulate_ese(params_n30, initial, config)
    rhs, y0 = simulator.combined_full_ese_rhs(params_n30, initial)
    stacked = integrate(rhs, y0, config)
    full_rhs = sc.full_rhs(params_n30)
    called = integrate(lambda t, y: full_rhs(t, y), initial.as_array(), config)
    assert full.columns == FULL_MODEL.state == ("i_d", "i_q", "omega", "delta")
    assert ese.columns == ESE_MODEL.state == ("eta", "eta_dot", "w_re", "w_im")
    assert stacked.columns == FULL_MODEL.state + ESE_MODEL.state
    assert called.columns == FULL_MODEL.state
    assert stacked.states.shape == (3, len(stacked.columns))
    assert trajectory_csv(ese).startswith("t,eta,eta_dot,w_re,w_im\n")


def _reference_trajectory_csv(traj):
    """Row-by-row formatting of every numpy scalar, as a reference."""
    lines = ["t," + ",".join(traj.columns)]
    for t, row in zip(traj.times, traj.states):
        lines.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row))
    lines.append("# verdict: " + json.dumps(verdict_to_dict(traj.verdict), sort_keys=True))
    return "\n".join(lines) + "\n"


def test_trajectory_csv_equals_reference_formatter(params_n30, equilibria_n30):
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, t_end=1.0, n_samples=2001)
    traj = sc.simulate_full(params_n30, sc.SgState(5.0, -5.0, 320.0, 0.3), config)
    traj.verdict = sc.detect_convergence(traj, equilibria_n30, params=params_n30)
    assert trajectory_csv(traj) == _reference_trajectory_csv(traj)
    special = Trajectory(times=np.array([0.0, 1e-300, 1.0]),
                         states=np.array([[np.nan, np.inf, -0.0, 1.0 / 3.0],
                                          [-np.inf, 5e-324, 1e300, -2.5],
                                          [1e-200, np.nextafter(1e-200, 0.0), 1e200,
                                           9.9999999999999999e16]]))
    assert trajectory_csv(special) == _reference_trajectory_csv(special)


def test_verdict_serialisation(equilibria_n30):
    stable = [pt for pt in equilibria_n30 if pt.classification.value == "stable"][0]
    d = verdict_to_dict(ConvergedToEquilibrium(stable, sheet=-1))
    assert d["kind"] == "converged"
    assert d["sheet"] == -1
    d = verdict_to_dict(PeriodicOrbit(period=0.16, mean_omega=275.0,
                                      omega_below_grid=True, fixed_point=(1.0, 2.0, 3.0),
                                      residual=0.5, multipliers=(0.35, 0.01, 0.0)))
    assert d == {"kind": "periodic", "period": 0.16, "mean_omega": 275.0,
                 "omega_below_grid": True, "t_decided": None, "fixed_point": (1.0, 2.0, 3.0),
                 "residual": 0.5, "multipliers": (0.35, 0.01, 0.0), "crossing": None}
    d = verdict_to_dict(PeriodicOrbit(period=0.16, mean_omega=275.0,
                                      omega_below_grid=True, t_decided=2.5,
                                      fixed_point=(1.0, 2.0, 3.0), residual=0.5,
                                      multipliers=(0.35, 0.01, 0.0), crossing=7))
    assert d["t_decided"] == 2.5
    assert d["fixed_point"] == (1.0, 2.0, 3.0) and d["residual"] == 0.5
    assert d["multipliers"] == (0.35, 0.01, 0.0) and d["crossing"] == 7
    d = verdict_to_dict(Undecided(reason="4 section crossings, steps not contracting"))
    assert d == {"kind": "undecided", "reason": "4 section crossings, steps not contracting"}
    unclassified = Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 4)))
    assert verdict_to_dict(unclassified.verdict) == {"kind": "undecided",
                                                     "reason": "not classified"}


def test_verdict_types_carry_their_tally_and_rule(equilibria_n30):
    stable = [pt for pt in equilibria_n30 if pt.classification.value == "stable"][0]
    orbit = dict(period=0.16, mean_omega=275.0, omega_below_grid=True,
                 fixed_point=(1.0, 2.0, 3.0), residual=0.5, multipliers=(0.35, 0.01, 0.0))
    verdicts = [ConvergedToEquilibrium(stable, sheet=0), PeriodicOrbit(**orbit),
                PeriodicOrbit(**orbit, t_decided=2.5), Undecided(reason="4 section crossings")]
    assert [(v.tally, v.decided_by) for v in verdicts] == [
        ("converged_stable", "local_basin"), ("periodic", "horizon"),
        ("periodic", "section"), ("undecided", None)]
    stats = simulator.BasinStatistics(n=len(verdicts), seed=0)
    assert all(getattr(stats, v.tally) == 0 for v in verdicts)


@pytest.mark.parametrize("turns, power, failure", [
    (2, 1, "2 section crossings, fewer than 3"),
    (4, 2, "4 section crossings, steps not contracting"),
])
def test_undecided_reason_names_both_failed_tests(turns, power, failure, params_n30,
                                                  equilibria_n30):
    # delta falls by ``turns`` full turns over the first 0.8 s, at a rate
    # growing with t**power, and then rests 1.7 rad above the stable angle:
    # beyond the basin's delta half-extent (at most pi/2) and short of the
    # section level (about 1.9 rad above it).  The other components stay
    # put, so the crossing steps are zero and never contract.
    verdict = sc.detect_convergence(_falling(equilibria_n30, turns, power, 0.0),
                                    equilibria_n30, params=params_n30)
    assert isinstance(verdict, Undecided)
    basin, section = verdict.reason.split("; ")
    assert basin == ("final state outside the proven local basin "
                     f"of the branch {_stable(equilibria_n30).branch} equilibrium")
    assert section == failure


def test_undecided_reason_names_the_failed_turn(params_n30, equilibria_n30):
    # The same fall through six turns, with (i_d, i_q, omega) contracting
    # onto the stable point's: the steps contract, so an attempt runs, but
    # the stored crossings are no solution of the model, and the turn that
    # recomputes the last one's image never reaches the next level.
    verdict = sc.detect_convergence(_falling(equilibria_n30, 6, 1, 1.0), equilibria_n30,
                                    params=params_n30)
    assert isinstance(verdict, Undecided)
    assert verdict.reason.split("; ")[1] == ("6 section crossings, a turn from the crossing "
                                             "missed the next level within 0.267 s")


def _stable(equilibria):
    return [pt for pt in equilibria if pt.classification.value == "stable"][0]


def _falling(equilibria, turns, power, offset):
    """Stored 1 s trajectory whose delta falls by ``turns`` turns over the
    first 0.8 s (rate growing with t**power) to rest 1.7 rad above the
    stable angle, while (i_d, i_q, omega) decay onto the stable point's
    from ``offset`` times (1, -1, 0.2) at the rate 6/s."""
    stable = _stable(equilibria)
    times = np.linspace(0.0, 1.0, 1001)
    fall = np.minimum(times / 0.8, 1.0) ** power
    delta = stable.state.delta + 1.7 + TWO_PI * turns * (1.0 - fall)
    rest = stable.state.as_array()[:3] + offset * np.exp(-6.0 * times)[:, None] * [1.0, -1.0, 0.2]
    return Trajectory(times=times, states=np.column_stack([rest, delta]))


# Early stop in the proven local basin and the rhs-call budget --------------

def _key(verdict):
    equilibrium = getattr(verdict, "equilibrium", None)
    return (verdict.kind, getattr(equilibrium, "branch", None),
            getattr(verdict, "sheet", None))


@pytest.mark.parametrize("rhs_kind", ["float", "array"])
def test_rhs_call_budget_stops_huge_horizon(rhs_kind, params_n30, monkeypatch):
    monkeypatch.setattr(simulator, "MAX_RHS_CALLS", 10_000)
    rhs = sc.full_rhs(params_n30)
    if rhs_kind == "array":
        rhs = (lambda f: lambda t, y: np.array(f(t, y)))(rhs)
    counted = _counted(rhs)
    config = IntegratorConfig(t_end=1e300)
    with pytest.raises(StiffnessError, match="budget") as excinfo:
        integrate(counted, [5.0, -5.0, 320.0, 0.3], config)
    assert counted.calls <= 10_000
    assert 0.0 < excinfo.value.t < 1e300
    assert np.all(np.isfinite(excinfo.value.state))


def test_rhs_call_budget_default():
    # Ten times the longest run in the suite (803,354 calls for the 60 s
    # weak-droop orbit of test_periodic_orbit_dp15).
    assert simulator.MAX_RHS_CALLS >= 10 * 803_354


def test_stop_hook_that_never_fires_changes_nothing(params_n30):
    rhs = sc.full_rhs(params_n30)
    config = _dense(default_horizon(params_n30, sc.solve_equilibria(params_n30)))
    y0 = sample_initial_state(default_basin_box(params_n30), 3, 0).as_array()
    runs = []
    for f in (rhs, lambda t, y: np.array(rhs(t, y))):
        plain, hooked = _counted(f), _counted(f)
        a = integrate(plain, y0, config)
        b = integrate(hooked, y0, config, stop=lambda t, h, y_old, K, y: False)
        assert plain.calls == hooked.calls
        assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
        assert not a.stopped and not b.stopped
        runs.append((plain.calls, a.states))
    # The tuple and the ndarray rhs share the one float stage path.
    assert runs[0][0] == runs[1][0] and np.array_equal(runs[0][1], runs[1][1])


def test_stopped_trajectory(params_n30, equilibria_n30):
    basin = stable_basin(params_n30, equilibria_n30)

    def stop(t, h, y_old, K, y):
        return basin.contains(y)

    config = _dense(default_horizon(params_n30, equilibria_n30))
    rhs = sc.full_rhs(params_n30)
    y0 = sample_initial_state(default_basin_box(params_n30), 3, 1).as_array()
    runs = []
    for f in (rhs, lambda t, y: np.array(rhs(t, y))):
        full = integrate(f, y0, config)
        traj = integrate(f, y0, config, stop=stop)
        runs.append(traj)
        assert traj.stopped
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] < config.t_end
        assert basin.contains(traj.final_state)
        # Same steps as the full run: the samples before the stop agree.
        k = len(traj.times) - 1
        assert np.array_equal(traj.times[:k], full.times[:k])
        assert np.array_equal(traj.states[:k], full.states[:k])
    # The tuple and the ndarray rhs stop at the same step.
    assert np.array_equal(runs[0].times, runs[1].times)
    assert np.array_equal(runs[0].states, runs[1].states)


def test_shared_sample_times_give_identical_rows(params_rs216):
    # The steps do not depend on the output grid, and each sample is read
    # from the step that covers it, so a time both grids hold gets the same
    # row however densely the run is sampled.
    rhs = sc.full_rhs(params_rs216)
    coarse, fine = (integrate(rhs, [0.0, 0.0, 0.0, 0.0], IntegratorConfig(t_end=2.0, n_samples=n))
                    for n in (201, 20001))
    rows = dict(zip(fine.times.tolist(), fine.states.tolist()))
    shared = [(t, y) for t, y in zip(coarse.times.tolist(), coarse.states.tolist())
              if t in rows]
    assert len(shared) > 150
    assert all(rows[t] == y for t, y in shared)


def test_stop_on_the_step_ending_at_t_end(params_n30):
    # The stop state replaces the sample at the stop time, even when that
    # is the last sample time t_end.
    rhs = sc.full_rhs(params_n30)
    y0 = sample_initial_state(default_basin_box(params_n30), 3, 2).as_array()
    config = IntegratorConfig(t_end=0.5, n_samples=11)
    steps = []
    full = integrate(rhs, y0, config, stop=lambda *step: steps.append(step))
    n_steps, last = len(steps), steps[-1]
    steps.clear()
    traj = integrate(rhs, y0, config,
                     stop=lambda *step: steps.append(step) or len(steps) == n_steps)
    assert traj.stopped and steps[-1][4] == last[4]
    assert np.array_equal(traj.times, full.times)
    assert np.array_equal(traj.states[:-1], full.states[:-1])
    assert traj.states[-1].tolist() == last[4]


def test_stable_basin_is_built_once(params_n30, equilibria_n30):
    basin = stable_basin(params_n30, equilibria_n30)
    again = stable_basin(params_n30.replace(), list(reversed(equilibria_n30)))
    assert again is basin
    assert stable_basin(params_n30, []) is None


@pytest.mark.parametrize("design", ["params_n30", "params_rs216"])
def test_early_stop_verdicts_equal_full_horizon(design, request):
    params = request.getfixturevalue(design)
    equilibria = sc.solve_equilibria(params)
    config = _dense(default_horizon(params, equilibria))
    box = default_basin_box(params)
    rhs = sc.full_rhs(params)
    tally, first = Counter(), None
    for i in range(40):
        if i == 8:
            first = dict(tally)  # basin_sample below classifies the first 8
        initial = sample_initial_state(box, 17, i)
        early = classify_initial_state(params, initial, equilibria, config)
        full = sc.detect_convergence(integrate(rhs, initial.as_array(), config),
                                     equilibria, params=params)
        assert _key(early) == _key(full), i
        if early.kind == "converged":
            stable = early.equilibrium.classification.value == "stable"
            tally["converged_stable" if stable else "converged_unstable"] += 1
            assert early.decided_by == "local_basin"
        else:
            tally[early.kind] += 1
        if early.kind != "undecided":
            assert 0.0 < early.t_decided < config.t_end
            assert full.t_decided is None
    stats = sc.basin_sample(params, n=8, seed=17).to_dict()
    assert {k: stats[k] for k in first} == first
    decided = {"local_basin": first.get("converged_stable", 0),
               "section": first.get("periodic", 0)}
    assert stats["decided_by"] == {k: v for k, v in decided.items() if v}
    assert tally["converged_stable"] > 0


def test_early_stop_verdict_independent_of_sampling(params_n30, equilibria_n30):
    t_end = default_horizon(params_n30, equilibria_n30)
    box = default_basin_box(params_n30)
    for i in range(3):
        initial = sample_initial_state(box, 23, i)
        verdicts = [classify_initial_state(params_n30, initial, equilibria_n30,
                                           IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8,
                                                            t_end=t_end, n_samples=n))
                    for n in (2001, 20001)]
        assert verdicts[0] == verdicts[1]
        assert verdicts[0].t_decided is not None


def test_converged_verdict_explains_itself(params_n30, equilibria_n30):
    stable = [pt for pt in equilibria_n30 if pt.classification.value == "stable"][0]
    d = verdict_to_dict(ConvergedToEquilibrium(stable, sheet=0, t_decided=1.25))
    assert d["decided_by"] == "local_basin" and d["t_decided"] == 1.25
    config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=5.0, n_samples=501)
    traj = sc.simulate_full(params_n30, stable.state, config)
    d = verdict_to_dict(sc.detect_convergence(traj, equilibria_n30, params=params_n30))
    assert d["decided_by"] == "local_basin" and d["t_decided"] is None
    # A run that sits at the unstable point never enters the stable point's
    # basin, the only route to "converged", and never crosses the section.
    unstable = [pt for pt in equilibria_n30 if pt.classification.value == "unstable"][0]
    still = Trajectory(times=np.linspace(0.0, 1.0, 11),
                       states=np.tile(unstable.state.as_array(), (11, 1)))
    d = verdict_to_dict(sc.detect_convergence(still, equilibria_n30, params=params_n30))
    assert d == {"kind": "undecided",
                 "reason": "final state outside the proven local basin of the branch "
                           f"{stable.branch} equilibrium; 0 section crossings, fewer than 3"}


# Early stop on the Poincare section ---------------------------------------

def test_section_stop_verdicts_equal_full_horizon(params_rs216):
    equilibria = sc.solve_equilibria(params_rs216)
    config = _dense(default_horizon(params_rs216, equilibria))
    box = default_basin_box(params_rs216)
    rhs = sc.full_rhs(params_rs216)
    periodic = 0
    for i in range(40):
        initial = sample_initial_state(box, 1, i)
        early = classify_initial_state(params_rs216, initial, equilibria, config)
        full = sc.detect_convergence(integrate(rhs, initial.as_array(), config),
                                     equilibria, params=params_rs216)
        assert _key(early) == _key(full), i
        if early.kind == "periodic":
            periodic += 1
            assert 0.0 < early.t_decided < config.t_end and full.t_decided is None
            assert abs(early.period - full.period) <= 0.005 * full.period
            assert early.omega_below_grid is full.omega_below_grid is True
    assert periodic > 0


# Period of the doubled-resistor orbit: the interval between consecutive
# section crossings of the run from rest at t = 20 s, at rel_tol 1e-11.
ORBIT_PERIOD_RS216 = 0.1593055


def test_periodic_verdicts_locate_the_orbit(params_rs216):
    # Each periodic verdict of a basin run comes from a verified fixed point
    # of the return map, so its period is that of the orbit, not a mean of
    # crossing intervals that are still settling.
    equilibria = sc.solve_equilibria(params_rs216)
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, n_samples=2,
                              t_end=default_horizon(params_rs216, equilibria))
    box = default_basin_box(params_rs216)
    periodic = [v for v in (classify_initial_state(params_rs216, sample_initial_state(box, 7, i),
                                                   equilibria, config) for i in range(40))
                if isinstance(v, PeriodicOrbit)]
    assert periodic
    for v in periodic:
        assert abs(v.period - ORBIT_PERIOD_RS216) <= 5e-4 * ORBIT_PERIOD_RS216
        assert v.residual <= simulator._RESIDUAL_NORMS
        assert len(v.multipliers) == 3 and max(v.multipliers) < 1.0
        assert len(v.fixed_point) == 3 and v.fixed_point[2] < params_rs216.omega_g
        assert v.crossing >= 3 and 0.0 < v.t_decided < config.t_end


@pytest.mark.parametrize("design", ["params_n30", "params_rs216"])
def test_converged_verdicts_independent_of_the_periodic_rule(design, request, monkeypatch):
    # Turns are nested runs that leave the run's own steps alone, so a
    # converged verdict, t_decided included, is the same bit for bit when
    # no attempt ever finds a fixed point.
    params = request.getfixturevalue(design)
    equilibria = sc.solve_equilibria(params)
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, n_samples=2,
                              t_end=default_horizon(params, equilibria))
    box = default_basin_box(params)
    states = [sample_initial_state(box, 29, i) for i in range(30)]

    def verdicts():
        return [verdict_to_dict(classify_initial_state(params, s, equilibria, config))
                for s in states]

    with_rule = verdicts()
    monkeypatch.setattr(simulator, "_attempt", lambda *args: "disabled")
    without = verdicts()
    converged = [k for k, v in enumerate(without) if v["kind"] == "converged"]
    assert converged
    assert repr([with_rule[k] for k in converged]) == repr([without[k] for k in converged])
    assert all(with_rule[k]["kind"] == "periodic" for k in range(30) if k not in converged)


# The design's pole-slip orbit ------------------------------------------------

def _basin_config(params, equilibria):
    return IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, n_samples=2,
                            t_end=default_horizon(params, equilibria))


def _without_run(verdict):
    return dataclasses.replace(verdict, crossing=None, t_decided=None)


def test_design_orbit_does_not_depend_on_which_run_builds_it(params_rs216):
    # Seed-7 states 1 and 2 slip; whichever is classified first builds the
    # orbit, from standstill, so both orders give the same records.
    equilibria = sc.solve_equilibria(params_rs216)
    config = _basin_config(params_rs216, equilibria)
    box = default_basin_box(params_rs216)
    states = [sample_initial_state(box, 7, i) for i in (1, 2)]
    runs = []
    for order in (states, states[::-1]):
        simulator._design_orbit.cache_clear()
        runs.append({s: verdict_to_dict(classify_initial_state(params_rs216, s, equilibria,
                                                               config))
                     for s in order})
    assert runs[0] == runs[1]
    assert [runs[0][s]["kind"] for s in states] == ["periodic", "periodic"]


def test_hit_carries_the_standstill_record(params_rs216):
    equilibria = sc.solve_equilibria(params_rs216)
    config = _basin_config(params_rs216, equilibria)
    orbit = simulator._design_orbit(params_rs216, tuple(equilibria), 1e-6, 1e-8)
    still = classify_initial_state(params_rs216, sc.SgState(0.0, 0.0, 0.0, 0.0), equilibria,
                                   config)
    assert isinstance(orbit, PeriodicOrbit) and still == orbit
    box = default_basin_box(params_rs216)
    slipping = classify_initial_state(params_rs216, sample_initial_state(box, 7, 2), equilibria,
                                      config)
    assert slipping.crossing != orbit.crossing and slipping.t_decided != orbit.t_decided
    assert _without_run(slipping) == _without_run(orbit)


def test_a_missed_orbit_falls_back_to_newton(monkeypatch):
    # State 13 of the H_seconds=5 variant's sweep is the one of its 80 runs
    # whose step misses the orbit at a contracted crossing (by 2.9
    # mu/(1 - mu) steps): Newton runs there and fails, and the next
    # crossing hits.
    from periodic_soundness import designs

    name, params, states = designs()[3]
    assert name.endswith("H_seconds=5 R_drop_pct=1.0")
    equilibria = sc.solve_equilibria(params)
    config = _basin_config(params, equilibria)
    orbit = simulator._design_orbit(params, tuple(equilibria), 1e-6, 1e-8)
    attempts, attempt = [], simulator._attempt
    monkeypatch.setattr(simulator, "_attempt",
                        lambda *args: attempts.append(attempt(*args)) or attempts[-1])
    verdict = classify_initial_state(params, states[13], equilibria, config)
    assert attempts == ["a Newton turn missed the next level within 0.0961 s"]
    assert _without_run(verdict) == _without_run(orbit) and verdict.crossing == 7


def test_converging_runs_build_no_orbit(params_n30):
    # No run of the certified design reaches a contracted crossing, so none
    # pays for the standstill run.
    simulator._design_orbit.cache_clear()
    sc.basin_sample(params_n30, n=10, seed=3)
    assert simulator._design_orbit.cache_info().currsize == 0


@pytest.mark.parametrize("mu, base, image, hit", [
    # mu/(1 - mu) = 1, so |image - x*| may be up to 2 crossing steps.
    (0.5, 2.5, 1.5, True),
    (0.5, 1.0, 0.5, True),
    (0.5, 3.5, 2.5, False),  # 2.5 steps from x*
    (0.5, -1.0, 2.0, False),  # moving away from x*
    # mu/(1 - mu) = 999: only the reach of 100 steps binds.
    (0.999, 99.0, 98.0, True),
    (0.999, 150.0, 149.0, False),
])
def test_hit_needs_reach_approach_and_contraction(mu, base, image, hit):
    # An orbit at x* = (1, 2, 3); the crossing and its image lie off x* in
    # i_d by ``base`` and ``image`` crossing steps of 1e-5.
    orbit = PeriodicOrbit(period=0.16, mean_omega=0.0, omega_below_grid=True,
                          fixed_point=(1.0, 2.0, 3.0), residual=1.0,
                          multipliers=(mu, 0.1, 0.01))
    assert simulator._hit(orbit, [1.0 + 1e-5 * base, 2.0, 3.0], [1.0 + 1e-5 * image, 2.0, 3.0],
                          1e-6, 1e-8) is hit


def test_periodic_soundness_sweep_on_a_small_sample():
    # The CI sweep (tests/periodic_soundness.py) on the first state of each
    # rotor-speed slice of seed 1.
    from periodic_soundness import designs, full_horizon, violation

    _, params, states = designs()[0]
    equilibria = sc.solve_equilibria(params)
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, n_samples=2,
                              t_end=default_horizon(params, equilibria))
    kinds = Counter()
    for initial in states[:80:10]:
        early = classify_initial_state(params, initial, equilibria, config)
        assert violation(early, *full_horizon(params, equilibria, initial, config)) is None
        kinds[early.kind] += 1
    assert kinds["periodic"] > 0 and kinds["converged"] > 0


def _affine_turn(A):
    """A stand-in for a turn of 0.16 s: the return map x -> c + A (x - c)
    around c = (1, 2, 3), or a turn that fails when A is a str."""
    def turn(x, t_max):
        if isinstance(A, str):
            return A
        y = np.add([1.0, 2.0, 3.0], np.dot(A, np.subtract(x, [1.0, 2.0, 3.0])))
        return 0.16, y.tolist(), x[2]
    return turn


@pytest.mark.parametrize("A, failure", [
    ("entered the local basin", "a Jacobian turn entered the local basin"),
    (np.diag([1.5, 0.2, 0.1]), "return-map multiplier |mu| = 1.5 >= 1"),
    # Multipliers 0.5 and 0.1, but a step that moves the crossing away first.
    ([[0.5, 40.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.1]],
     "section crossings not approaching the fixed point"),
], ids=["turn", "multiplier", "approach"])
def test_attempt_names_the_check_that_failed(A, failure):
    base = [1.0, 2.1, 3.0]
    turn = _affine_turn(A)
    image = [1.0, 2.1, 3.0] if isinstance(A, str) else turn(base, 1.0)[1]
    assert simulator._attempt(turn, base, image, 0.16, 1e-6, 1e-8, 100.0) == failure


def test_attempt_rejects_a_fixed_point_far_from_the_crossing():
    # P(x) = x + (0.1, 0, 0) has no fixed point.  Its Jacobian differences
    # are rounding noise, so Newton jumps about 1e12 away, where a residual
    # of 0.1 is a tiny share of the error norm; only the reach check, which
    # runs first, rejects the point.
    def turn(x, t_max):
        return 0.16, [x[0] + 0.1, x[1], x[2]], x[2]

    base = [1.0, 2.0, 3.0]
    failure = simulator._attempt(turn, base, turn(base, 1.0)[1], 0.16, 1e-6, 1e-8,
                                 100.0)
    assert failure.startswith("fixed point ") and failure.endswith(
        " error norms from the crossing, beyond 100 crossing steps")
    assert float(failure.split()[2]) > 1e15


def test_attempt_reports_a_singular_jacobian():
    # P(x) = x + (0.5, 0, 0) from the crossing (0, 0, 0): the difference
    # turns give an F' = P' - I whose last two columns are exactly zero
    # (the first holds only rounding), so F' is singular, and the attempt
    # fails with a reason instead of raising, so the run goes on.
    def turn(x, t_max):
        return 0.16, [x[0] + 0.5, x[1], x[2]], x[2]

    base = [0.0, 0.0, 0.0]
    failure = simulator._attempt(turn, base, turn(base, 1.0)[1], 0.16, 1e-6, 1e-8,
                                 100.0)
    assert failure == "singular return-map Jacobian"


def test_attempt_finds_the_fixed_point_of_a_contraction():
    turn = _affine_turn(np.diag([0.3, 0.2, 0.1]))
    base = [1.1, 2.1, 2.9]
    # The stand-in turn's largest omega is its start's, x*'s 3.0, and delta
    # falls by 2 pi in 0.16 s below a grid at 100 rad/s.
    orbit = simulator._attempt(turn, base, turn(base, 1.0)[1], 0.16, 1e-6, 1e-8, 100.0)
    assert orbit.fixed_point == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)
    assert orbit.period == 0.16 and orbit.residual <= simulator._RESIDUAL_NORMS
    assert orbit.mean_omega == 100.0 - TWO_PI / 0.16 and orbit.omega_below_grid is True
    assert orbit.multipliers == pytest.approx([0.3, 0.2, 0.1], abs=1e-6)
    assert (orbit.t_decided, orbit.crossing) == (None, None)


def _newton_turns(newton):
    """A stand-in turn whose three Jacobian turns see the contraction
    diag(0.3, 0.2, 0.1) around (1, 2, 3) and whose k-th Newton turn from x
    returns ``newton(x, k)``; the states it was asked for are in the list."""
    affine, seen = _affine_turn(np.diag([0.3, 0.2, 0.1])), []

    def turn(x, t_max):
        seen.append(list(x))
        return affine(x, t_max) if len(seen) <= 3 else newton(x, len(seen) - 3)

    return turn, seen


def test_attempt_halves_the_step_of_a_failed_newton_turn():
    # Every Newton turn fails, so each halves the step and the attempt ends
    # after _NEWTON_TURNS of them, naming the last failure.
    turn, seen = _newton_turns(lambda x, k: "missed the next level within 0.32 s")
    base = [1.1, 2.1, 2.9]
    image = _affine_turn(np.diag([0.3, 0.2, 0.1]))(base, 1.0)[1]
    failure = simulator._attempt(turn, base, image, 0.16, 1e-6, 1e-8, 100.0)
    assert failure == "a Newton turn missed the next level within 0.32 s"
    steps = [np.subtract(x, base) for x in seen[3:]]
    assert len(steps) == simulator._NEWTON_TURNS
    for k, step in enumerate(steps):
        assert step == pytest.approx(0.5 ** k * steps[0], rel=1e-12)


def test_attempt_reports_no_newton_convergence():
    # The Newton turns land 1e3 off in i_d, a residual of about 5e8 error
    # norms, above the crossing's, so no step is accepted however short.
    turn, seen = _newton_turns(lambda x, k: (0.16, [x[0] + 1e3, x[1], x[2]], x[2]))
    base = [1.1, 2.1, 2.9]
    image = _affine_turn(np.diag([0.3, 0.2, 0.1]))(base, 1.0)[1]
    failure = simulator._attempt(turn, base, image, 0.16, 1e-6, 1e-8, 100.0)
    assert failure.startswith("no Newton convergence (residual ")
    assert failure.endswith(" error norms)") and float(failure.split()[4]) > 1e8
    assert len(seen) == 3 + simulator._NEWTON_TURNS


def test_attempt_reports_the_residual_after_the_last_newton_turn():
    # Each Newton turn is accepted, since its residual halves, but after
    # _NEWTON_TURNS of them it is still far above _RESIDUAL_NORMS.
    base = [1.1, 2.1, 2.9]
    image = _affine_turn(np.diag([0.3, 0.2, 0.1]))(base, 1.0)[1]
    f0 = np.subtract(image, base)
    turn, seen = _newton_turns(lambda x, k: (0.16, np.add(x, 0.5 ** k * f0).tolist(), x[2]))
    failure = simulator._attempt(turn, base, image, 0.16, 1e-6, 1e-8, 100.0)
    assert failure.startswith("return-map residual ")
    assert failure.endswith(" error norms after 6 Newton turns, above 10")
    assert float(failure.split()[2]) > simulator._RESIDUAL_NORMS
    assert len(seen) == 3 + simulator._NEWTON_TURNS


def test_turn_stops_when_it_enters_the_local_basin(params_n30, equilibria_n30):
    turn = simulator._turn_fn(sc.full_rhs(params_n30), simulator.section_angle(equilibria_n30),
                              1e-6, 1e-8, lambda y: True)
    assert turn([0.0, 0.0, 300.0], 1.0) == "entered the local basin"


def test_turn_reports_a_run_that_fails_to_integrate():
    def rhs(t, y):
        raise ValueError("math domain error")

    turn = simulator._turn_fn(rhs, 0.0, 1e-6, 1e-8, None)
    assert turn([0.0, 0.0, 300.0], 1.0) == "failed to integrate"


def test_no_proven_basin_leaves_every_run_undecided(params_n30, monkeypatch):
    # A design of its own, so the cached basins of the others stay as they are.
    params = params_n30.replace(J=1.01 * params_n30.J)
    equilibria = sc.solve_equilibria(params)

    def no_level(params, point):
        raise sc.core.NumericalError("no positive level of the local basin is proven")

    monkeypatch.setattr(sc.equilibria, "local_basin", no_level)
    assert stable_basin(params, equilibria) is None
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, t_end=1.0, n_samples=2)
    box = default_basin_box(params)
    for i in range(2):
        verdict = classify_initial_state(params, sample_initial_state(box, 0, i), equilibria,
                                         config)
        assert isinstance(verdict, Undecided)
        assert verdict.reason.startswith("no proven local basin; ")
    stats = sc.basin_sample(params, n=2, seed=0, t_end=1.0)
    assert (stats.undecided, stats.decided_by) == (2, {})


def test_section_stop_verdict_independent_of_sampling(params_rs216):
    # The crossings come from the step interpolant, not from the samples.
    equilibria = sc.solve_equilibria(params_rs216)
    t_end = default_horizon(params_rs216, equilibria)
    verdicts = [classify_initial_state(params_rs216, sc.SgState(0.0, 0.0, 0.0, 0.0),
                                       equilibria,
                                       IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8,
                                                        t_end=t_end, n_samples=n))
                for n in (2001, 20001)]
    assert isinstance(verdicts[0], PeriodicOrbit)
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].t_decided is not None


def test_slipping_basin_runs_stop_early(params_rs216):
    equilibria = sc.solve_equilibria(params_rs216)
    config = _dense(default_horizon(params_rs216, equilibria))
    box = default_basin_box(params_rs216)
    periodic = [v for v in (classify_initial_state(params_rs216, sample_initial_state(box, 11, i),
                                                   equilibria, config) for i in range(30))
                if isinstance(v, PeriodicOrbit)]
    assert periodic
    assert all(v.t_decided < 0.6 * config.t_end for v in periodic)


def test_section_angle_is_the_first_unstable_point(params_n30, equilibria_n30):
    unstable = [pt for pt in equilibria_n30 if pt.classification.value != "stable"]
    assert simulator.section_angle(equilibria_n30) == unstable[0].state.delta
    assert simulator.section_angle([]) == 0.0


def test_huge_initial_state_fails_with_initial_state(params_n30):
    y0 = [1e200, -1e200, 1e250, 1e300]
    with pytest.raises(StiffnessError, match="underflow") as excinfo:
        integrate(sc.full_rhs(params_n30), y0, IntegratorConfig(t_end=1.0, n_samples=3))
    assert excinfo.value.t == 0.0
    assert excinfo.value.state.tolist() == y0


def _line(delta0, delta1, t_end=1.0):
    """Stored two-sample trajectory whose delta falls from delta0 to delta1."""
    return Trajectory(times=np.array([0.0, t_end]),
                      states=np.array([[1.0, 2.0, 3.0, delta0], [1.0, 2.0, 3.0, delta1]]))


def test_classifier_rejects_power_angles_without_distinct_levels(params_n30, equilibria_n30):
    # From 2**55 on floats are 8 apart, so section levels a turn apart
    # coincide and the crossing loop never moved past one.
    for delta0 in (1e50, -1e50, 2.0 ** 55):
        with pytest.raises(ValueError, match="too large"):
            sc.detect_convergence(_line(delta0, delta0 - 1.0), [], params=params_n30)
    delta0 = math.nextafter(2.0 ** 55, 0.0)
    assert isinstance(sc.detect_convergence(_line(delta0, delta0 - 1.0), [], params=params_n30),
                      Undecided)
    # A run that falls that far is a numerical failure at the segment end.
    with pytest.raises(StiffnessError, match="too large") as excinfo:
        sc.detect_convergence(_line(0.0, -1e20), [], params=params_n30)
    assert excinfo.value.t == 1.0
    assert excinfo.value.state.tolist() == [1.0, 2.0, 3.0, -1e20]


def test_segment_through_many_levels_keeps_the_last_crossings(params_n30):
    # One stored segment falls through 159,154,943,091 section levels
    # (delta = -2 pi k down to -1e12); the count covers every one, but only
    # the last three are located, so the call returns at once.  The segment
    # is no solution of the model and its crossing states do not move, so
    # the steps never contract and no attempt is made on it.
    verdict = sc.detect_convergence(_line(0.0, -1e12), [], params=params_n30)
    assert isinstance(verdict, Undecided)
    assert verdict.reason == ("no proven local basin; 159154943091 section crossings, "
                              "steps not contracting")


def test_section_levels_are_placed_by_the_first_segment(params_n30, monkeypatch):
    # A stored run whose delta first rises two turns above its start, 0.5,
    # and then falls five, one turn per sample.  Without equilibria the
    # section is delta = 0 (mod 2 pi), so the levels lie at 0, -2 pi, ...
    # below the start and the run crosses three of them, at the fraction
    # 0.5 / (2 pi) of its fifth, sixth and seventh intervals.  Levels placed
    # again at a later segment, below the top at 0.5 + 4 pi, would count
    # the levels 4 pi and 2 pi too.
    deltas = 0.5 + TWO_PI * np.array([0.0, 1.0, 2.0, 1.0, 0.0, -1.0, -2.0, -3.0])
    traj = Trajectory(times=np.arange(8.0),
                      states=np.column_stack([np.ones(8), np.full(8, 2.0), np.full(8, 3.0),
                                              deltas]))
    times = []
    cross = simulator._Section.cross

    def recorded(self, *segment):
        passed = cross(self, *segment)
        times.extend(time for time, _ in passed)
        return passed

    monkeypatch.setattr(simulator._Section, "cross", recorded)
    verdict = sc.detect_convergence(traj, [], params=params_n30)
    assert verdict.reason == ("no proven local basin; 3 section crossings, "
                              "steps not contracting")
    expected = [k + (deltas[k] - level) / (deltas[k] - deltas[k + 1])
                for k, level in zip((4, 5, 6), (0.0, -TWO_PI, -2 * TWO_PI))]
    assert times == expected


# delta' = -c / (1 + b c cos delta) reaches delta at the time
# t(delta) = (delta0 - delta) / c + b (sin delta0 - sin delta), so it falls
# by 2 pi every 2 pi / c = 0.16 seconds, and (i_d, i_q, omega) decay onto
# (1, 2, 3) at the rates lam: the return map of delta = 0 (mod 2 pi) is
# linear, with fixed point (1, 2, 3) and multipliers exp(-lam 2 pi / c).
_ANALYTIC_C = TWO_PI / 0.16
_ANALYTIC_B = 0.5 / _ANALYTIC_C
_ANALYTIC_CENTRE, _ANALYTIC_LAM = np.array([1.0, 2.0, 3.0]), np.array([5.0, 10.0, 20.0])


def _analytic_rhs(as_array=False):
    c, b, centre, lam = _ANALYTIC_C, _ANALYTIC_B, _ANALYTIC_CENTRE, _ANALYTIC_LAM

    def rhs(t, y):
        d = (*(-lam * (np.array(y[:3]) - centre)).tolist(),
             -c / (1.0 + b * c * math.cos(y[3])))
        return np.array(d) if as_array else d

    return rhs


@pytest.mark.parametrize("omega", [3.01, 2.99])
def test_turn_returns_the_map_at_the_next_level_down(omega):
    # From (x, 0) the analytic system's delta first falls to -2 pi after
    # 0.16 s, where x has decayed onto (1, 2, 3) by exp(-lam 0.16).  Omega
    # falls from 3.01, so its largest value is the start's, and rises from
    # 2.99, so its largest is the image's.
    x = [1.02, 1.98, omega]
    turn = simulator._turn_fn(_analytic_rhs(), 0.0, 1e-10, 1e-12, None)
    period, image, top = turn(x, 1.0)
    assert period == pytest.approx(0.16, rel=1e-9)
    assert image == pytest.approx((_ANALYTIC_CENTRE + (np.array(x) - _ANALYTIC_CENTRE)
                                   * np.exp(-_ANALYTIC_LAM * 0.16)).tolist(), abs=1e-9)
    assert top == (omega if omega > 3.0 else image[2])


@pytest.mark.parametrize("as_array", [False, True])
def test_section_crossings_located_on_interpolant(as_array, params_n30):
    # The analytic system above, from delta0 = 1.
    c, b, delta0 = _ANALYTIC_C, _ANALYTIC_B, 1.0
    centre, lam, y0 = _ANALYTIC_CENTRE, _ANALYTIC_LAM, [1.02, 1.98, 3.01, delta0]
    rhs = _analytic_rhs(as_array)

    def time_of(delta, start=delta0):  # from delta = start
        return (start - delta) / c + b * (math.sin(start) - math.sin(delta))

    config = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=5.0, n_samples=11)
    steps = []  # a hook that records each accepted step and never fires
    integrate(rhs, y0, config, stop=lambda *step: steps.append(step))
    for t, h, y_old, K, _ in steps[::50]:
        state = simulator._step_state(h, y_old, K, 0.3)
        # Against the solution through the step's start: delta within 1e-6
        # rad, read as a time, and the decaying components within 1e-6.
        assert time_of(state[3], y_old[3]) == pytest.approx(0.3 * h, abs=1e-6 / c)
        assert state[:3] == pytest.approx(
            centre + (np.array(y_old[:3]) - centre) * np.exp(-lam * 0.3 * h), abs=1e-6)
    # No equilibria: the section is delta = 0 and there is no basin.  Its
    # k-th crossing is the level -2 pi (k - 1).
    rule = simulator.Classifier(params_n30.replace(omega_g=100.0), [], True, rhs,
                                config.rel_tol, config.abs_tol)
    traj = integrate(rhs, y0, config, stop=rule.segment)
    assert traj.stopped
    verdict = rule.finish(traj.final_state.tolist())
    assert isinstance(verdict, PeriodicOrbit)
    # The steps contract from the start and stay below 5% of the state, so
    # the first attempt, at the third crossing, decides the run.
    assert verdict.crossing == 3
    assert verdict.t_decided == pytest.approx(time_of(-TWO_PI * 2), abs=1e-9)
    assert verdict.period == pytest.approx(0.16, rel=1e-9)
    assert verdict.mean_omega == pytest.approx(100.0 - c, abs=1e-6)
    assert verdict.omega_below_grid is True
    assert verdict.fixed_point == pytest.approx(centre.tolist(), abs=1e-8)
    assert verdict.residual <= simulator._RESIDUAL_NORMS
    assert verdict.multipliers == pytest.approx(np.exp(-lam * 0.16).tolist(), rel=1e-4)


# The generated stage function against the per-component formula --------------

# The tableau's nonzero entries, named after their row and column.
_C2, _C3, _C4, _C5 = simulator._C[1:5]
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65) = simulator._A[1:]
_B1, _, _B3, _B4, _B5, _B6 = simulator._B
_E1, _, _E3, _E4, _E5, _E6, _E7 = simulator._E


def _reference_stages(rhs, t, y, k1, h, rtol, atol):
    """One Dormand-Prince attempt as a list comprehension per stage: the
    oracle for ``simulator._stages_for``, which must round every value the
    same way."""
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


def _hex(values):
    """Bit patterns of floats; every NaN reads "nan", so NaN equals NaN."""
    return [float(v).hex() for v in values]


def _recorded_quadratic_rhs(coeffs, calls):
    """A quadratic rhs of random coefficients that appends each (t, y) it gets
    to ``calls``; arithmetic only, so huge states overflow to inf and inf
    minus inf gives NaN, and nothing raises."""
    n = len(coeffs)

    def rhs(t, y):
        calls.append((t.hex(), _hex(y)))
        return [p * y[i] + q * y[(i + 1) % n] * y[i - 1] + r * t
                for i, (p, q, r) in enumerate(coeffs)]

    return rhs


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_stage_function_matches_reference_bit_for_bit(n):
    rng = np.random.default_rng([18, n])
    stages = simulator._stages_for(n)
    non_finite = 0
    for case in range(300):
        # Ordinary magnitudes, states and steps large enough to overflow,
        # and states or derivatives that are already inf or NaN.
        kind = case % 4
        scale = (1.0, 1e150, 1.0, 1e300)[kind]
        y = [float(v) * scale for v in rng.normal(size=n)]
        k1 = [float(v) for v in rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)]
        if kind == 2:
            k1[int(rng.integers(n))] = float(rng.choice([math.inf, -math.inf, math.nan]))
        h = float(10.0 ** rng.uniform(-8, 0)) * (1e200 if kind == 3 else 1.0)
        t = float(rng.uniform(0.0, 10.0))
        rtol, atol = float(10.0 ** rng.uniform(-12, -3)), float(10.0 ** rng.uniform(-14, -6))
        coeffs = [tuple(float(v) for v in rng.normal(size=3)) for _ in range(n)]
        got_calls, want_calls = [], []
        got = stages(_recorded_quadratic_rhs(coeffs, got_calls), t, y, k1, h, rtol, atol)
        want = _reference_stages(_recorded_quadratic_rhs(coeffs, want_calls),
                                 t, y, k1, h, rtol, atol)
        assert got_calls == want_calls
        assert _hex(got[0]) == _hex(want[0])
        assert [_hex(k) for k in got[1]] == [_hex(k) for k in want[1]]
        assert _hex([got[2]]) == _hex([want[2]])
        non_finite += not all(map(math.isfinite, got[0] + [got[2]]))
    assert non_finite >= 100  # the overflow and inf/NaN cases really ran


def _model_rhs(model, params):
    """The rhs closure of the full model, of the ESE matched to a state
    where every term of its forcing is nonzero, or of the two stacked."""
    initial = sc.SgState(5.0, -5.0, 320.0, 0.3)
    return {"full": lambda: sc.full_rhs(params),
            "ese": lambda: sc.ese_rhs_fn(params, sc.ese_from_full(initial, params)[1]),
            "stacked": lambda: simulator.combined_full_ese_rhs(params, initial)[0]}[model]()


@pytest.mark.parametrize("model, loads", [
    ("full", {"remainder", "sin", "cos", "TWO_PI", "math"}),
    ("ese", {"sin", "cos", "exp", "math"}),
    ("stacked", {"remainder", "sin", "cos", "TWO_PI", "exp", "math"}),
    ("called", {"math"}),
], ids=["full", "ese", "stacked", "called"])
def test_stage_functions_read_only_math_and_the_rhs_namespace(model, loads, params_n30):
    # The tableau is written into the code as literals, so the only globals
    # a stage function loads are math and, inlined, the model's functions;
    # only a model that reads the time binds t at each stage.
    import dis

    source = None if model == "called" else _model_rhs(model, params_n30).model_source
    stages = simulator._stages_for(4 if source is None else len(source.state), source)
    assert {ins.argval for ins in dis.get_instructions(stages)
            if ins.opname == "LOAD_GLOBAL"} == loads
    assert ("t" in stages.__code__.co_varnames) == (model in ("ese", "stacked"))


def test_step_state_matches_reference_bit_for_bit():
    # The interpolant against a loop over the nonzero rows of _P_ROWS, in
    # stage order, on ordinary, overflowing and non-finite derivatives; a
    # non-finite second stage must be skipped, not weighted by zero.
    rng = np.random.default_rng(25)
    for case in range(300):
        kind = case % 3
        K = [(rng.normal(size=4) * (1e300 if kind == 1 else 1.0)).tolist() for _ in range(7)]
        if kind == 2:
            K[int(rng.integers(7))][int(rng.integers(4))] = float(
                rng.choice([math.inf, -math.inf, math.nan]))
        y_old, h, x = rng.normal(size=4).tolist(), float(rng.uniform(1e-6, 1.0)), float(
            rng.uniform(0.0, 1.0))
        total = None
        for row, k in zip(simulator._P_ROWS, K):
            if any(row):
                w = h * x * (row[0] + x * (row[1] + x * (row[2] + x * row[3])))
                total = ([w * a for a in k] if total is None
                         else [s + w * a for s, a in zip(total, k)])
        want = [u + s for u, s in zip(y_old, total)]
        assert _hex(simulator._step_state(h, y_old, K, x)) == _hex(want)


@pytest.mark.parametrize("design", ["params_n30", "params_rs216"])
def test_verdicts_equal_with_reference_stages(design, request, monkeypatch):
    # Whole runs: the early-stopped basin verdicts, t_decided included, and
    # a cross-validation deviation are the same on the oracle's stages.
    params = request.getfixturevalue(design)
    equilibria = sc.solve_equilibria(params)
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, n_samples=2,
                              t_end=default_horizon(params, equilibria))
    box = default_basin_box(params)
    states = [sample_initial_state(box, 1, i) for i in range(12)]

    def outputs():
        verdicts = [verdict_to_dict(classify_initial_state(params, s, equilibria, config))
                    for s in states]
        return verdicts, simulator.cross_validate(params, states[0], t_end=2.0)

    generated = outputs()
    # The oracle replaces the inlined model stages as well as the called ones.
    monkeypatch.setattr(simulator, "_stages_for", lambda n, model=None: _reference_stages)
    assert repr(outputs()) == repr(generated)
    kinds = Counter(v["kind"] for v in generated[0])
    assert kinds["converged"] > 0
    assert kinds["periodic"] > 0 or design == "params_n30"


def _stage_outputs(stages, rhs, t, y, k1, h, rtol, atol):
    """An attempt's outputs as bit patterns, or the exception it raised."""
    try:
        y_new, K, err = stages(rhs, t, y, k1, h, rtol, atol)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return _hex(y_new), [_hex(k) for k in K], _hex([err])


# Each description's typical component magnitudes, and its angles.
_SCALES = {"full": ([50.0, 50.0, 300.0, 3.0], [3]), "ese": ([3.0, 30.0, 0.01, 0.01], [0])}
_SCALES["stacked"] = (_SCALES["full"][0] + _SCALES["ese"][0], [3, 4])


@pytest.mark.parametrize("design", ["params_n30", "params_rs216"])
def test_inlined_model_stages_match_reference_bit_for_bit(design, request):
    # The expressions of the full model, the ESE and the two stacked, written
    # into the stage code, give every value, and every domain error, of the
    # stages that call their closures.
    params = request.getfixturevalue(design)
    for model, (base, angles) in _SCALES.items():
        rhs = _model_rhs(model, params)
        n = len(base)
        stages = simulator._stages_for(n, rhs.model_source)
        rng = np.random.default_rng([22, len(design), len(model)])
        raised = non_finite = 0
        for case in range(400):
            # Ordinary states, states and steps large enough to overflow,
            # and angles that are huge, infinite or NaN, where remainder or
            # sin raises or the derivative is NaN; every third time is huge,
            # up to where omega_g * t overflows.
            kind = case % 5
            scale = np.array(base) * (1.0, 1e150, 1.0, 1e300, 1.0)[kind]
            y = (rng.normal(size=n) * scale).tolist()
            if kind == 2:
                y[int(rng.choice(angles))] = float(rng.choice([math.inf, -math.inf, math.nan]))
            k1 = list(rhs(0.0, y)) if kind != 2 else (rng.normal(size=n) * 1e3).tolist()
            if kind == 4:
                k1[int(rng.integers(n))] = float(rng.choice([math.inf, -math.inf, math.nan]))
            h = float(10.0 ** rng.uniform(-8, 0)) * (1e200 if kind == 3 else 1.0)
            t = float(rng.uniform(0.0, 10.0)) if case % 3 else float(10.0 ** rng.uniform(1, 306))
            rtol, atol = float(10.0 ** rng.uniform(-12, -3)), float(10.0 ** rng.uniform(-14, -6))
            got = _stage_outputs(stages, rhs, t, y, k1, h, rtol, atol)
            assert got == _stage_outputs(_reference_stages, rhs, t, y, k1, h, rtol, atol), model
            raised += got[0] is ValueError
            non_finite += got[0] is not ValueError and not math.isfinite(float.fromhex(got[2][0]))
        assert raised >= 50 and non_finite >= 30, model  # both failure kinds really ran


@pytest.mark.parametrize("y0", [[5.0, -5.0, 320.0, 0.3], [0.0, 0.0, 0.0, 1e300],
                                [1e100, 0.0, 0.0, 0.0], [0.0, 0.0, -1e10, 0.0]],
                         ids=["basin", "huge-angle", "huge-current", "budget"])
def test_inlined_run_equals_called_run(y0, params_n30, monkeypatch):
    # A whole run on the inlined stages and one that calls the rhs through a
    # counting wrapper end the same way: the same samples, or the same
    # StiffnessError at the same time and state (the last two spend the
    # rhs-call budget).  The wrapper carries no model description, so it is
    # called for every stage derivative.
    monkeypatch.setattr(simulator, "MAX_RHS_CALLS", 20_000)
    real, asked, attempts = simulator._stages_for, [], [0]

    def stages_for(n, model=None):
        asked.append(model)
        stages = real(n, model)

        def counted(*args):
            attempts[0] += 1
            return stages(*args)

        return counted

    monkeypatch.setattr(simulator, "_stages_for", stages_for)
    rhs = sc.full_rhs(params_n30)
    wrapped = _counted(rhs)
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, t_end=0.5, n_samples=51)
    outcomes = []
    for f in (rhs, wrapped):
        attempts[0] = 0
        try:
            traj = integrate(f, y0, config)
            outcomes.append((_hex(traj.times), [_hex(row) for row in traj.states]))
        except StiffnessError as exc:
            outcomes.append((str(exc), exc.t, _hex(exc.state)))
    assert asked == [sc.core.FULL_MODEL, None]
    assert outcomes[0] == outcomes[1]
    assert wrapped.calls == 2 + (simulator._N_STAGES - 1) * attempts[0]


def test_import_generates_no_stage_function():
    # A stage function is generated by the first run of its state length,
    # so importing the package does no code generation.
    src = os.path.dirname(os.path.dirname(sc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import swingcert, swingcert.cli; "
            "print(swingcert.simulator._stages_for.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"


def test_import_builds_no_basin():
    # The local basin is proven, and the pole-slip orbit found, by the first
    # run that needs it, so importing the package runs neither.
    src = os.path.dirname(os.path.dirname(sc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import swingcert, swingcert.cli; "
            "print(swingcert.equilibria._basin_of.cache_info().currsize, "
            "swingcert.simulator._design_orbit.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "0"]
