"""Command-line front end.

One JSON config format serves both machine parameters and nominal
ratings, discriminated by a ``kind`` field:

    {"kind": "sg_params", "J": ..., "D_p": ..., "T_m": ..., "m_if": ...,
     "L_s": ..., "R_s": ..., "V": ..., "omega_g": ...}

    {"kind": "nominal_spec", "P_n": ..., "V": ..., "omega_g": ...,
     "d_p": ..., "H_seconds": ..., "L_drop_pct": ..., "R_drop_pct": ...,
     "n": ...}

Subcommands: design, equilibria, check, simulate, basin, sweep,
validate.  Exit codes: 0 success (check: certified), 1 check not
certified, 2 usage/parameter error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .core import (
    NumericalError,
    ParameterError,
    SgParameters,
    SgState,
    config_float,
    derive_constants,
)
from .design import NominalSpec, apply_virtual_inductor, size_parameters
from .certificate import certificate_csv, check_certificate
from .equilibria import solve_equilibria
from .simulator import (
    IntegratorConfig,
    basin_sample,
    cross_validate,
    sample_initial_state,
    default_basin_box,
    simulate_ese,
    simulate_full,
    trajectory_csv,
)

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

KIND_PARAMS = "sg_params"
KIND_SPEC = "nominal_spec"

# The largest swing-vs-full angle deviation (rad) that `validate` accepts,
# checked over IntegratorConfig.t_end.  Fixed: no setting judges a run.
VALIDATE_BOUND_RAD = 1e-4


class UsageError(Exception):
    pass


def load_config(path: str, overrides) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(data, dict) or "kind" not in data:
        raise UsageError(f"config {path!r} must be a JSON object with a 'kind' field")
    if data["kind"] not in (KIND_PARAMS, KIND_SPEC):
        raise UsageError(f"unknown config kind {data['kind']!r}")
    if data["kind"] == KIND_PARAMS:
        allowed = set(SgParameters.__dataclass_fields__)
    else:
        allowed = set(NominalSpec.__dataclass_fields__)
    for item in overrides or ():
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        if key not in allowed:
            raise UsageError(f"unknown override key {key!r} for kind {data['kind']!r}")
        data[key] = config_float(key, value)
    return data


def params_from_config(data: dict) -> SgParameters:
    body = {k: v for k, v in data.items() if k != "kind"}
    if data["kind"] == KIND_PARAMS:
        return SgParameters.from_dict(body)
    spec = NominalSpec.from_dict(body)
    params = size_parameters(spec)
    if spec.n > 1.0:
        params = apply_virtual_inductor(params, spec.n)
    return params


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path!r}: {exc}")
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Subcommands ----------------------------------------------------------------

def cmd_design(args) -> int:
    data = load_config(args.config, args.set)
    if data["kind"] != KIND_SPEC:
        raise UsageError("design needs a config of kind 'nominal_spec'")
    params = params_from_config(data)
    doc = {"kind": KIND_PARAMS, **params.to_dict()}
    _emit(_dump(doc), args.out)
    return EXIT_OK


def cmd_equilibria(args) -> int:
    params = params_from_config(load_config(args.config, args.set))
    points = solve_equilibria(params)
    dc = derive_constants(params)
    doc = {
        "Lambda": dc.Lambda,
        "n_points": len(points),
        "equilibria": [pt.to_dict() for pt in points],
    }
    _emit(_dump(doc), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    params = params_from_config(load_config(args.config, args.set))
    report = check_certificate(params)
    sys.stdout.write(_dump(report.to_dict()))
    _emit(certificate_csv(report), args.out)
    return EXIT_OK if report.certified else EXIT_NOT_CERTIFIED


def _parse_initial(text, params) -> SgState:
    if text is None:
        return SgState(0.0, 0.0, params.omega_g, 0.0)
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--initial expects 'i_d,i_q,omega,delta'")
    try:
        values = [float(v) for v in parts]
    except ValueError:
        raise UsageError(f"--initial has a non-numeric component: {text!r}")
    if not np.all(np.isfinite(values)):
        raise UsageError(f"--initial has a non-finite component: {text!r}")
    return SgState(*values)


def cmd_simulate(args) -> int:
    params = params_from_config(load_config(args.config, args.set))
    initial = _parse_initial(args.initial, params)
    config = IntegratorConfig(t_end=args.t_end, n_samples=args.samples)
    if args.ese:
        traj = simulate_ese(params, initial, config)
    else:
        traj = simulate_full(params, initial, config)
    _emit(trajectory_csv(traj), args.out)
    return EXIT_OK


def cmd_basin(args) -> int:
    params = params_from_config(load_config(args.config, args.set))
    stats = basin_sample(params, n=args.samples, seed=args.seed, t_end=args.t_end)
    _emit(_dump(stats.to_dict()), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    data = load_config(args.config, args.set)
    base = params_from_config(data)
    if args.param not in base.to_dict():
        raise UsageError(f"unknown sweep parameter {args.param!r}")
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    if args.log:
        if not (args.min > 0 and args.max > 0):  # NaN fails too
            raise UsageError(f"--log sweep needs --min > 0 and --max > 0, "
                             f"got {args.min} and {args.max}")
        values = np.geomspace(args.min, args.max, args.points)
    else:
        values = np.linspace(args.min, args.max, args.points)

    reports = [check_certificate(base.replace(**{args.param: float(value)}))
               for value in values]

    lines = [f"{args.param},verdict,margin,rel_margin,worst_d,band_ok_all"]
    for value, report in zip(values, reports):
        lines.append(
            f"{value:.17g},{report.verdict},{report.margin:.17g},"
            f"{report.rel_margin:.17g},{report.worst_d:.17g},"
            f"{int(bool(np.all(report.band_ok)))}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    params = params_from_config(load_config(args.config, args.set))
    box = default_basin_box(params)
    deviations = [cross_validate(params, sample_initial_state(box, args.seed, i))
                  for i in range(args.samples)]
    doc = {
        "n": args.samples,
        "seed": args.seed,
        "t_end": IntegratorConfig.t_end,
        "tol": VALIDATE_BOUND_RAD,
        "deviations": deviations,
        "max_deviation": max(deviations),
    }
    _emit(_dump(doc), args.out)
    if max(deviations) > VALIDATE_BOUND_RAD:
        sys.stderr.write(f"validation failed: max deviation {max(deviations):.3e} "
                         f"> {VALIDATE_BOUND_RAD:.3e}\n")
        return EXIT_NUMERICAL
    return EXIT_OK


# Parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swingcert",
        description="Stability certification and simulation of a grid-connected "
                    "synchronous generator / synchronverter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config value (repeatable)")
        if out:
            p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("design", help="size machine parameters from nominal ratings")
    common(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("equilibria", help="locate and classify equilibria")
    common(p)
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("check", help="evaluate the stability certificate")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="integrate the model and classify the run")
    common(p)
    p.add_argument("--initial", help="initial state 'i_d,i_q,omega,delta' "
                                     "(default: 0,0,omega_g,0)")
    p.add_argument("--ese", action="store_true",
                   help="simulate the reduced swing formulation instead")
    p.add_argument("--t-end", type=float, default=IntegratorConfig.t_end)
    p.add_argument("--samples", type=int, default=IntegratorConfig.n_samples,
                   help="output samples")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("basin", help="sample initial states and tally outcomes")
    common(p)
    p.add_argument("--samples", type=int, default=100, help="number of initial states")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-end", type=float, default=None,
                   help="horizon override (default: tied to slowest stable mode)")
    p.set_defaults(func=cmd_basin)

    p = sub.add_parser("sweep", help="re-run the certificate over a parameter range")
    common(p)
    p.add_argument("--param", required=True, help="parameter name to vary")
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--log", action="store_true", help="log-spaced values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="cross-validate the swing reduction "
                                        "against the full model")
    common(p)
    p.add_argument("--samples", type=int, default=20, help="number of initial states")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # A closed stdout (say, piped into head) is not "not certified":
        # silence the flush at exit and report it like an unwritable --out.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"error: cannot write to stdout: {exc}\n")
        return EXIT_USAGE
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ParameterError as exc:
        sys.stderr.write(f"parameter error: {exc}\n")
        return EXIT_USAGE
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical failure: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
