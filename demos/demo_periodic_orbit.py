"""A locally stable machine that is not almost globally stable.

Doubling the stator resistance of the sized 500 kW machine (resistor
drop 1% instead of 0.5% of phase rms) keeps a locally stable equilibrium
but creates an attracting pole-slipping orbit: from a stalled start the
rotor never synchronises, the power angle decreases monotonically and
the currents oscillate with a period of about 0.16 s, with the rotor
speed below the grid frequency throughout.  The verdict comes from Newton
on the return map of the Poincare section: the fixed point it finds, and
the moduli of the return map's multipliers, all inside the unit circle.
"""

import math

import numpy as np

import swingcert as sc

spec = sc.NominalSpec(P_n=500e3, V=6000 * math.sqrt(3), omega_g=100 * math.pi,
                      d_p=3.0, H_seconds=2.0, L_drop_pct=4.0, R_drop_pct=0.5)
params = sc.size_parameters(spec).replace(R_s=2.16)
equilibria = sc.solve_equilibria(params)
print("equilibria:", [pt.classification.value for pt in equilibria])

config = sc.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=20.0,
                             n_samples=20001)

for label, initial in [
    ("stalled rotor      (0, 0,      0, 0)", sc.SgState(0.0, 0.0, 0.0, 0.0)),
    ("synchronous start  (0, 0, omega_g, 0)", sc.SgState(0.0, 0.0, params.omega_g, 0.0)),
]:
    traj = sc.simulate_full(params, initial, config)
    verdict = traj.verdict
    print(f"\n{label} -> {type(verdict).__name__}")
    if isinstance(verdict, sc.PeriodicOrbit):
        print(f"  period        = {verdict.period:.4f} s")
        print(f"  mean rotor speed on orbit = {verdict.mean_omega:.1f} rad/s "
              f"(grid: {params.omega_g:.1f})")
        print(f"  rotor slower than grid throughout: {verdict.omega_below_grid}")
        i_d, i_q, omega = verdict.fixed_point
        print(f"  fixed point on the section: i_d = {i_d:.2f} A, i_q = {i_q:.2f} A, "
              f"omega = {omega:.2f} rad/s (found at crossing {verdict.crossing})")
        print("  return-map multipliers |mu| = "
              + ", ".join(f"{m:.3g}" for m in verdict.multipliers)
              + f" (all < 1: attracting); residual {verdict.residual:.2g} error norms")
        tail = traj.times > 15.0
        print(f"  power angle drops {-(traj.column('delta')[-1] - traj.column('delta')[tail][0]) / (20.0 - 15.0) / (2 * math.pi):.2f} "
              f"turns per second in the tail")
    elif isinstance(verdict, sc.ConvergedToEquilibrium):
        print(f"  settled on branch {verdict.equilibrium.branch} "
              f"(sheet {verdict.sheet})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the phase plot")
else:
    traj = sc.simulate_full(params, sc.SgState(0.0, 0.0, 0.0, 0.0), config)
    tail = traj.times > 18.0
    delta = np.mod(traj.column("delta")[tail], 2 * math.pi)
    omega = traj.column("omega")[tail]
    order = np.argsort(delta)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(delta[order], omega[order], ".", ms=2)
    ax.axhline(params.omega_g, color="k", ls="--", lw=1, label="grid frequency")
    ax.set_xlabel("power angle mod 2*pi (rad)")
    ax.set_ylabel("rotor speed (rad/s)")
    ax.legend()
    ax.set_title("pole-slipping orbit, R_s = 2.16 ohm")
    fig.tight_layout()
    fig.savefig("periodic_orbit.png", dpi=130)
    print("\nwrote periodic_orbit.png")
