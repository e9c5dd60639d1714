"""Sweep of the periodic verdict that the section's return map gives: the
design's pole-slip orbit, found once from standstill, or Newton's own.

For each run the sweep makes it twice, with the settings ``basin_sample``
uses (``default_horizon``, rel_tol 1e-6, abs_tol 1e-8):

- early: ``classify_initial_state``, which stops at the first verified
  fixed point or on entering the proven local basin;
- full: the same run over the whole horizon, its steps fed to a
  ``Classifier`` built as ``classify_initial_state`` builds it, without
  stopping, and watched for the proven local basin at every step end.

A violation is an early verdict of another kind than the full one, an
early periodic verdict that differs from the full one in anything but
``t_decided``, or a run called periodic whose full run enters the local
basin before the horizon.  The runs are seeded states over eight equal
slices of the default box's rotor speed: ten per slice for seeds 1-5 and
917 on the doubled-resistor design (480 runs), and five per slice for
seeds 1 and 917 on three more slipping designs (240 runs), whose orbits
have other periods and multipliers; and the weak-droop design from rest.
Exit 1 on any violation:

    PYTHONPATH=src python tests/periodic_soundness.py
"""

from __future__ import annotations

import dataclasses
import os
import sys

import swingcert as sc
from swingcert import simulator
from swingcert.equilibria import stable_basin

SEEDS = (1, 2, 3, 4, 5, 917)
SLICES = 8
PER_SLICE = 10

# Further slipping variants of the nominal design, each run for these seeds
# with this many states per slice.
VARIANTS = (["R_drop_pct=1.5"], ["H_seconds=5", "R_drop_pct=1.0"],
            ["L_drop_pct=3", "R_drop_pct=1.0"])
VARIANT_SEEDS = (1, 917)
VARIANT_PER_SLICE = 5


def sliced_states(params, seeds, per_slice):
    """Seeded states over the SLICES equal slices of the default box's
    rotor speed, ``per_slice`` of each for every seed."""
    box = simulator.default_basin_box(params)
    lo, hi = box[2]
    width = (hi - lo) / SLICES
    return [simulator.sample_initial_state(
                (box[0], box[1], (lo + k * width, lo + (k + 1) * width), box[3]),
                seed * SLICES + k, i)
            for seed in seeds for k in range(SLICES) for i in range(per_slice)]


def designs():
    """(name, params, initial states) of the swept runs."""
    from swingcert import cli

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    nominal = os.path.join(root, "demos", "configs", "500kw_nominal.json")
    slip = cli.params_from_config(cli.load_config(nominal, ["R_drop_pct=1.0"]))
    # Weak droop: D_p = 15 with the mechanical torque P_n / omega_g + D_p * omega_g.
    spec = cli.load_config(nominal, None)
    base = cli.params_from_config(spec)
    droop = base.replace(D_p=15.0, T_m=spec["P_n"] / base.omega_g + 15.0 * base.omega_g)
    runs = [("500kw_nominal.json R_drop_pct=1.0", slip, sliced_states(slip, SEEDS, PER_SLICE)),
            ("500kw_nominal.json D_p=15 (weak droop)", droop, [sc.SgState(0.0, 0.0, 0.0, 0.0)])]
    for sets in VARIANTS:
        params = cli.params_from_config(cli.load_config(nominal, sets))
        runs.append((f"500kw_nominal.json {' '.join(sets)}", params,
                     sliced_states(params, VARIANT_SEEDS, VARIANT_PER_SLICE)))
    return runs


def full_horizon(params, equilibria, initial, config):
    """The verdict of the run over its whole horizon, and the first step end
    in the proven local basin (None when it never enters)."""
    rhs = sc.full_rhs(params)
    clf = simulator.Classifier(params, equilibria, False, rel_tol=config.rel_tol,
                               abs_tol=config.abs_tol)
    basin = stable_basin(params, equilibria)
    entered = []

    def step(t, h, y_old, K, y):
        if basin is not None and not entered and basin.contains(y):
            entered.append(t + h)
        return clf.segment(t, h, y_old, K, y)

    traj = sc.integrate(rhs, initial.as_array(), config, stop=step)
    return clf.finish(traj.final_state.tolist()), (entered[0] if entered else None)


def violation(early, full, entered) -> str | None:
    """Why the early verdict is unsound against its full run, or None."""
    if early.kind != full.kind:
        return f"early {early.kind}, full {full.kind}"
    if isinstance(early, sc.PeriodicOrbit):
        if dataclasses.replace(early, t_decided=None) != full:
            return f"early {early} differs from full {full}"
        if entered is not None:
            return f"called periodic, enters the local basin at t={entered:.4g}"
    return None


def main() -> int:
    failed = False
    for name, params, states in designs():
        equilibria = sc.solve_equilibria(params)
        config = sc.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, n_samples=2,
                                     t_end=simulator.default_horizon(params, equilibria))
        kinds, periods, moduli = {}, [], []
        for initial in states:
            early = simulator.classify_initial_state(params, initial, equilibria, config)
            why = violation(early, *full_horizon(params, equilibria, initial, config))
            if why:
                failed = True
                print(f"FAIL  {name}: {tuple(initial.as_array())}: {why}")
            kinds[early.kind] = kinds.get(early.kind, 0) + 1
            if isinstance(early, sc.PeriodicOrbit):
                periods.append(early.period)
                moduli.append(early.multipliers[0])
        orbit = (f"; periods {min(periods):.7f}..{max(periods):.7f} s, largest |mu| "
                 f"{max(moduli):.3f}" if periods else "")
        print(f"{name}: {len(states)} runs over {config.t_end:.3g} s, "
              f"{dict(sorted(kinds.items()))}{orbit}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
