"""Print every seeded basin run's verdict and its Dormand-Prince attempts.

The runs are ``classify_initial_state`` at ``basin_sample``'s settings
(``default_horizon``, rel_tol 1e-6, abs_tol 1e-8, two samples) on three
designs: the n=30 design of ``demos/configs/500kw_n30_nominal.json``, the
doubled-resistor design (``500kw_nominal.json`` with R_drop_pct=1.0) and a
design that slips above grid speed (``500kw_n30_nominal.json`` with the
five values set below), most of whose runs the classifier leaves
undecided, so that their failure texts are compared too.
The initial states are five per rotor-speed slice of the default box for
seeds 1 and 917, drawn as ``periodic_soundness.py`` draws them.  Each line
gives the design, the seed, the slice and the index, the verdict as
``verdict_to_dict`` writes it and the number of stage attempts, counted as
calls to the functions ``simulator._stages_for`` returns, nested return-map
turns included.

Two source trees that compute bit for bit the same print the same bytes,
so the output is diffed against the base commit's:

    PYTHONPATH=src python tests/run_parity.py > parity.txt
"""

from __future__ import annotations

import json
import os

import swingcert as sc
from swingcert import cli, simulator

from periodic_soundness import SLICES, sliced_states

SEEDS = (1, 917)
PER_SLICE = 5
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESIGNS = (("500kw_n30_nominal.json", None), ("500kw_nominal.json", ["R_drop_pct=1.0"]),
           ("500kw_n30_nominal.json", ["d_p=3.6111001397540425", "H_seconds=5.311301638583686",
                                       "L_drop_pct=4.164564213216835",
                                       "R_drop_pct=0.37053174114036197",
                                       "n=36.07121210881287"]))


def main() -> None:
    attempts = [0]
    stages_for = simulator._stages_for

    def counted_stages_for(n, model=None):
        stages = stages_for(n, model)

        def counted(*args):
            attempts[0] += 1
            return stages(*args)

        return counted

    simulator._stages_for = counted_stages_for
    for config_name, sets in DESIGNS:
        name = " ".join([config_name, *(sets or ())])
        path = os.path.join(ROOT, "demos", "configs", config_name)
        params = cli.params_from_config(cli.load_config(path, sets))
        equilibria = sc.solve_equilibria(params)
        config = sc.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, n_samples=2,
                                     t_end=simulator.default_horizon(params, equilibria))
        states = iter(sliced_states(params, SEEDS, PER_SLICE))
        for seed in SEEDS:
            for k in range(SLICES):
                for i in range(PER_SLICE):
                    attempts[0] = 0
                    verdict = simulator.classify_initial_state(params, next(states),
                                                               equilibria, config)
                    record = json.dumps(simulator.verdict_to_dict(verdict), sort_keys=True)
                    print(f"{name} seed={seed} slice={k} i={i} {record} attempts={attempts[0]}")


if __name__ == "__main__":
    main()
