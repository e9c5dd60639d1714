import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import swingcert as sc
from swingcert import simulator
from swingcert.core import TWO_PI
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
    stable_basin,
    trajectory_csv,
    verdict_to_dict,
)


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
    # Over 2.5 s some slipping runs stop on the section and some are left
    # undecided; every other run is counted by the rule that decided it.
    stats = sc.basin_sample(params_rs216, n=12, seed=1, t_end=2.5)
    assert stats.undecided > 0 and stats.decided_by.get("section", 0) > 0
    assert sum(stats.decided_by.values()) == stats.n - stats.undecided
    assert set(stats.decided_by) <= {"local_basin", "section", "horizon"}
    assert stats.converged_unstable == 0
    # A run that starts on the orbit repeats its fewer than 12 crossings
    # within 1 s: periodic, decided at the horizon.
    on_orbit = sc.simulate_full(params_rs216, sc.SgState(0.0, 0.0, 0.0, 0.0),
                                IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, t_end=5.0,
                                                 n_samples=2)).final_state
    stats = sc.basin_sample(params_rs216, n=2, seed=0, box=[(v, v) for v in on_orbit],
                            t_end=1.0)
    assert stats.periodic == 2
    assert stats.decided_by == {"horizon": 2}


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
    rule = simulator.Classifier(params_n30, unstable, near.delta, False)
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
    assert type(verdicts[0]) is type(verdicts[1])
    if isinstance(verdicts[0], PeriodicOrbit):
        assert abs(verdicts[0].period - verdicts[1].period) < 1e-6


def test_energy_rate_bounded_along_trajectory(params_n30):
    config = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, t_end=2.0, n_samples=2001)
    traj = sc.simulate_full(params_n30, sc.SgState(80.0, -60.0, 500.0, 2.0), config)
    _, _, C = sc.storage_energy(sc.SgState(0, 0, 0, 0), params_n30)
    for row in traj.states[::50]:
        _, Wdot, _ = sc.storage_energy(sc.SgState(*row), params_n30)
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
    special = Trajectory(times=np.array([0.0, 1e-300]),
                         states=np.array([[np.nan, np.inf, -0.0, 1.0 / 3.0],
                                          [-np.inf, 5e-324, 1e300, -2.5]]))
    assert trajectory_csv(special) == _reference_trajectory_csv(special)


def test_verdict_serialisation(equilibria_n30):
    stable = [pt for pt in equilibria_n30 if pt.classification.value == "stable"][0]
    d = verdict_to_dict(ConvergedToEquilibrium(stable, sheet=-1))
    assert d["kind"] == "converged"
    assert d["sheet"] == -1
    d = verdict_to_dict(PeriodicOrbit(period=0.16, mean_omega=275.0,
                                      omega_below_grid=True))
    assert d == {"kind": "periodic", "period": 0.16, "mean_omega": 275.0,
                 "omega_below_grid": True, "t_decided": None}
    d = verdict_to_dict(PeriodicOrbit(period=0.16, mean_omega=275.0,
                                      omega_below_grid=True, t_decided=2.5))
    assert d["t_decided"] == 2.5
    d = verdict_to_dict(Undecided(reason="section states not repeating"))
    assert d == {"kind": "undecided", "reason": "section states not repeating"}
    unclassified = Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 4)))
    assert verdict_to_dict(unclassified.verdict) == {"kind": "undecided",
                                                     "reason": "not classified"}


@pytest.mark.parametrize("turns, power, failure", [
    (2, 1, "2 section crossings, fewer than 3"),
    (4, 2, "section crossing intervals not repeating"),
])
def test_undecided_reason_names_both_failed_tests(turns, power, failure, params_n30,
                                                  equilibria_n30):
    # delta falls by ``turns`` full turns over the first 0.8 s, at a rate
    # growing with t**power, and then rests 0.2 rad above the stable angle.
    stable = [pt for pt in equilibria_n30 if pt.classification.value == "stable"][0]
    times = np.linspace(0.0, 1.0, 1001)
    fall = np.minimum(times / 0.8, 1.0) ** power
    delta = stable.state.delta + 0.2 + TWO_PI * turns * (1.0 - fall)
    states = np.column_stack([np.tile(stable.state.as_array()[:3], (len(times), 1)), delta])
    verdict = sc.detect_convergence(Trajectory(times=times, states=states), equilibria_n30,
                                    params=params_n30)
    assert isinstance(verdict, Undecided)
    basin, section = verdict.reason.split("; ")
    assert basin == ("final state outside the proven local basin "
                     f"of the branch {stable.branch} equilibrium")
    assert section == failure


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
    # One stored segment falls through about 1.6e11 section levels; only the
    # last PERIODIC_MAX_CROSSINGS are located, evenly spaced by 2 pi / 1e12.
    verdict = sc.detect_convergence(_line(0.0, -1e12), [], params=params_n30)
    assert isinstance(verdict, PeriodicOrbit)
    assert verdict.period == pytest.approx(TWO_PI / 1e12, rel=1e-6)


@pytest.mark.parametrize("as_array", [False, True])
def test_section_crossings_located_on_interpolant(as_array, params_n30):
    # delta(t) = delta0 - c t + a sin(c t) falls by 2 pi every 2 pi / c
    # seconds, with the other components constant, so the section rule must
    # stop at the 12th crossing of delta = 0 (mod 2 pi) with period 2 pi / c.
    c, a, delta0 = TWO_PI / 0.16, 0.5, 1.0

    def rhs(t, y):
        d = (0.0, 0.0, 0.0, -c + a * c * math.cos(c * t))
        return np.array(d) if as_array else d

    def delta(t):
        return delta0 - c * t + a * math.sin(c * t)

    def crossing(level):
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if delta(mid) > level:
                lo = mid
            else:
                hi = mid
        return hi

    config = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=5.0, n_samples=11)
    steps = []  # a hook that records each accepted step and never fires
    integrate(rhs, [1.0, 2.0, 3.0, delta0], config, stop=lambda *step: steps.append(step))
    for t, h, y_old, K, _ in steps[::50]:
        state = simulator._step_state(h, y_old, K, 0.3)
        assert state[:3] == [1.0, 2.0, 3.0]
        assert state[3] == pytest.approx(delta(t + 0.3 * h), abs=1e-6)
    # No equilibria: the section is delta = 0 and there is no basin.
    rule = simulator.Classifier(params_n30.replace(omega_g=100.0), [], delta0, True)
    traj = integrate(rhs, [1.0, 2.0, 3.0, delta0], config, stop=rule.segment)
    assert traj.stopped
    verdict = rule.finish(traj.final_state.tolist())
    expected = crossing(-TWO_PI * (simulator.PERIODIC_MAX_CROSSINGS - 1))
    assert verdict.t_decided == pytest.approx(expected, abs=1e-9)
    assert verdict.period == pytest.approx(0.16, rel=1e-9)
    assert verdict.mean_omega == pytest.approx(100.0 - c, abs=1e-6)
    assert verdict.omega_below_grid is True
