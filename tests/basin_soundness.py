"""Sampled checks of the level that ``equilibria.local_basin`` proves.

For the proven ellipsoid ``x^T P x < c`` of a design's stable point:

- ``sampled_level`` is the minimum of ``(q(u) / K(u))^2`` over seeded unit
  directions u in Cholesky coordinates; the proven c may never exceed it.
- ``shell_rates`` is dV/dt from ``core.full_rhs`` at seeded points of the
  shell ``0.9 c <= V <= c``, with delta on the equilibrium's own sheet or
  one sheet to either side; every rate must be negative.

The Tier-1 tests call these on small samples.  Run as a script, it makes
the denser sweep (10**6 directions, 10**5 shell points) on every config in
``demos/configs`` and on the doubled-resistor design, and exits 1 on any
failure:

    PYTHONPATH=src python tests/basin_soundness.py
"""

from __future__ import annotations

import glob
import math
import os
import sys

import numpy as np

import swingcert as sc
from swingcert.core import TWO_PI
from swingcert.equilibria import Stability, linearize, local_basin

CHUNK = 100_000


def stable_point(params):
    return next(pt for pt in sc.solve_equilibria(params)
                if pt.classification is Stability.STABLE)


def decay_ratio_squared(params, point, P, u) -> np.ndarray:
    """``(q(u) / K(u))^2`` for the unit rows of ``u`` (0 where q <= 0)."""
    A = linearize(params, point.state)
    Q = -(A.T @ P + P @ A)
    L = np.linalg.cholesky(P)
    x = np.linalg.solve(L.T, u.T).T  # x = L^-T u
    Px = u @ L.T
    q = np.einsum("ni,ij,nj->n", x, Q, x)
    K = (2.0 * np.abs(x[:, 2] * (Px[:, 0] * x[:, 1] - Px[:, 1] * x[:, 0]))
         + params.V / params.L_s * x[:, 3] ** 2 * (np.abs(Px[:, 0]) + np.abs(Px[:, 1])))
    return np.where(q > 0.0, (q / K) ** 2, 0.0)


def unit_rows(rng, n) -> np.ndarray:
    u = rng.standard_normal((n, 4))
    return u / np.linalg.norm(u, axis=1)[:, None]


def sampled_level(params, point, P, n: int, seed: int) -> float:
    """Minimum of ``(q/K)^2`` over ``n`` seeded directions, in chunks."""
    rng = np.random.default_rng(seed)
    return min(float(np.min(decay_ratio_squared(params, point, P,
                                                unit_rows(rng, min(CHUNK, n - k)))))
               for k in range(0, n, CHUNK))


def shell_rates(params, point, P, c: float, n: int, seed: int) -> np.ndarray:
    """dV/dt at ``n`` seeded points of ``0.9 c <= V <= c``, delta shifted by
    -2*pi, 0 or 2*pi."""
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(P)
    r = np.sqrt(c * rng.uniform(0.9, 1.0, n))
    x = r[:, None] * np.linalg.solve(L.T, unit_rows(rng, n).T).T  # x^T P x = r^2
    e = point.state.as_array()
    y = e + x
    y[:, 3] += TWO_PI * rng.integers(-1, 2, n)
    rhs = sc.full_rhs(params)
    f = np.array([rhs(0.0, row) for row in y.tolist()])
    dx = y - e
    dx[:, 3] = [math.remainder(d, TWO_PI) for d in dx[:, 3].tolist()]
    return 2.0 * np.einsum("ni,ij,nj->n", dx, P, f)


def main() -> int:
    from swingcert import cli

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    designs = []
    for path in sorted(glob.glob(os.path.join(root, "demos", "configs", "*.json"))):
        designs.append((os.path.basename(path), cli.load_config(path, None)))
    designs.append(("500kw_nominal.json R_drop_pct=1.0",
                    cli.load_config(os.path.join(root, "demos", "configs", "500kw_nominal.json"),
                                    ["R_drop_pct=1.0"])))
    failed = False
    for name, data in designs:
        params = cli.params_from_config(data)
        point = stable_point(params)
        P, c, boxes = local_basin(params, point)
        level = sampled_level(params, point, P, 1_000_000, seed=1)
        rate = float(np.max(shell_rates(params, point, P, c, 100_000, seed=2)))
        bad = not (c <= level and rate < 0.0)
        failed |= bad
        print(f"{'FAIL' if bad else 'ok'}  {name}: proven level {c:.6g} ({boxes} boxes), "
              f"sampled minimum {level:.6g}, largest dV/dt on the shell {rate:.4g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
