import json
import os
import subprocess
import sys
import warnings

import pytest

import swingcert
from swingcert import cli, simulator

from conftest import LINE_V, OMEGA_G, agrees_with_printed

NOMINAL = {
    "kind": "nominal_spec",
    "P_n": 500e3,
    "V": LINE_V,
    "omega_g": OMEGA_G,
    "d_p": 3.0,
    "H_seconds": 2.0,
    "L_drop_pct": 4.0,
    "R_drop_pct": 0.5,
    "n": 1.0,
}


@pytest.fixture
def nominal_config(tmp_path):
    path = tmp_path / "nominal.json"
    path.write_text(json.dumps(NOMINAL))
    return str(path)


@pytest.fixture
def params_n30_config(tmp_path, nominal_config):
    out = tmp_path / "params_n30.json"
    rc = cli.main(["design", "--config", nominal_config, "--set", "n=30",
                   "--out", str(out)])
    assert rc == 0
    return str(out)


def test_design_reproduces_sizing(nominal_config, capsys):
    rc = cli.main(["design", "--config", nominal_config])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "sg_params"
    assert agrees_with_printed(doc["D_p"], "168.87")
    assert agrees_with_printed(doc["L_s"], "0.0275")
    assert agrees_with_printed(doc["m_if"], "33.11")


def test_design_requires_nominal_kind(params_n30_config, capsys):
    rc = cli.main(["design", "--config", params_n30_config])
    assert rc == 2
    assert "nominal_spec" in capsys.readouterr().err


def test_design_output_feeds_check(params_n30_config, tmp_path, capsys):
    csv_path = tmp_path / "fig.csv"
    rc = cli.main(["check", "--config", params_n30_config, "--out", str(csv_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "certified-agas"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "d,nscr,omega_min_d,omega_max_d,band_ok"
    assert len(lines) == 1 + swingcert.certificate.DEFAULT_GRID_POINTS


def test_check_prints_report_then_csv(params_n30_config, capsys):
    rc = cli.main(["check", "--config", params_n30_config])
    assert rc == 0
    out = capsys.readouterr().out
    report_text, _, csv_text = out.partition("d,nscr,")
    assert json.loads(report_text)["n_grid"] == swingcert.certificate.DEFAULT_GRID_POINTS
    params = cli.params_from_config(cli.load_config(params_n30_config, None))
    expected = swingcert.certificate_csv(swingcert.check_certificate(params))
    assert "d,nscr," + csv_text == expected


def test_cli_defaults_are_the_library_defaults(params_n30_config, monkeypatch, capsys):
    parser = cli.build_parser()
    config = simulator.IntegratorConfig()
    args = parser.parse_args(["simulate", "--config", "x.json"])
    assert (args.t_end, args.samples) == (config.t_end, config.n_samples)

    # simulate integrates at the library's default tolerances ...
    seen = []
    real_simulate_full = cli.simulate_full

    def spy_simulate_full(params, initial, run_config):
        seen.append(run_config)
        return real_simulate_full(params, initial, run_config)

    monkeypatch.setattr(cli, "simulate_full", spy_simulate_full)
    assert cli.main(["simulate", "--config", params_n30_config, "--t-end", "0.1",
                     "--samples", "3"]) == 0
    assert (seen[0].rel_tol, seen[0].abs_tol) == (config.rel_tol, config.abs_tol)

    # ... and validate checks over the library's default horizon.
    horizons = []
    monkeypatch.setattr(cli, "cross_validate",
                        lambda params, initial, **kw: horizons.append(kw) or 0.0)
    capsys.readouterr()
    assert cli.main(["validate", "--config", params_n30_config, "--samples", "2"]) == 0
    assert horizons == [{}, {}]
    doc = json.loads(capsys.readouterr().out)
    assert (doc["t_end"], doc["tol"]) == (config.t_end, cli.VALIDATE_BOUND_RAD)


def test_check_not_certified_exit_code(nominal_config, tmp_path, capsys):
    rc = cli.main(["check", "--config", nominal_config, "--out", str(tmp_path / "n1.csv")])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "not-certified"


def test_check_refuses_a_margin_below_grid_resolution(nominal_config, capsys):
    # Every grid point passes, but the relative margin is below the threshold.
    rc = cli.main(["check", "--config", nominal_config, "--set", "n=18.325"])
    assert rc == 1
    report = json.loads(capsys.readouterr().out.partition("d,nscr,")[0])
    assert report["verdict"] == "not-certified" and report["band_ok_all"]
    assert report["notes"] == ["grid-resolution: relative margin 6.428e-04 below threshold "
                               "1.0e-03; condition may fail between grid points"]


def test_check_fails_design_a_coarse_grid_would_pass(nominal_config, capsys):
    # Points for d in about [8.9e-3, 5.6e-2]*Gamma fail; a 2-point grid
    # steps over all of them.
    rc = cli.main(["check", "--config", nominal_config, "--set", "n=30",
                   "--set", "d_p=2.5", "--set", "H_seconds=5"])
    assert rc == 1
    out = capsys.readouterr().out
    report = json.loads(out.partition("d,nscr,")[0])
    assert report["verdict"] == "not-certified"
    assert report["rel_margin"] < 0.0


@pytest.mark.parametrize("command", [
    ["check"],
    ["sweep", "--param", "D_p", "--min", "100", "--max", "200", "--points", "2"],
], ids=["check", "sweep"])
def test_certificate_grid_is_not_an_option(command, params_n30_config, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*command, "--config", params_n30_config, "--grid", "2"])
    assert excinfo.value.code == 2
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("config, command", [
    ("params_n30_config", ["check", "--set", "D_p=1e308"]),
    ("params_n30_config", ["check", "--set", "J=1e-320"]),
    ("nominal_config", ["check", "--set", "n=30", "--set", "P_n=1e-300"]),
    ("params_n30_config", ["sweep", "--param", "J", "--min", "1e-320",
                           "--max", "1e-319", "--points", "2"]),
], ids=["check-D_p", "check-J", "check-P_n", "sweep-J"])
def test_extreme_parameters_exit_numerical(config, command, request, capsys):
    # Valid values whose arithmetic overflows or divides by zero are a
    # numerical failure (exit 3), not a "not certified" verdict (exit 1).
    path = request.getfixturevalue(config)
    rc = cli.main([command[0], "--config", path, *command[1:]])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command, setting", [
    ("equilibria", "J=1e-308"), ("simulate", "J=1e-308"), ("basin", "J=1e-308"),
    ("equilibria", "R_s=1e-308"), ("check", "R_s=1e-308"), ("simulate", "R_s=1e-308"),
    ("basin", "R_s=1e-308"), ("check", "m_if=1e308"), ("check", "V=1e-308"),
    ("check", "J=1e308"), ("equilibria", "T_m=1e308"), ("check", "D_p=1e-308"),
    ("check", "D_p=1e-200"), ("check", "D_p=1e200"),
])
def test_valid_values_whose_arithmetic_fails_exit_numerical(command, setting,
                                                            params_n30_config, capsys):
    # The characteristic coefficients come out NaN (J, R_s tiny), rho, V_r
    # or alpha leaves (0, inf), Lambda overflows (T_m huge), 1/alpha does
    # (D_p tiny) or the velocity band's slack 4 Gamma / alpha^2 does (alpha^2
    # underflows or overflows): a numerical failure, not bad input or a "not
    # certified" verdict.
    extra = {"simulate": ["--t-end", "0.01", "--samples", "3"],
             "basin": ["--samples", "2"]}.get(command, [])
    rc = cli.main([command, "--config", params_n30_config, "--set", setting, *extra])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("numerical failure: ")
    assert "Traceback" not in err
    if setting == "R_s=1e-308" and command == "check":
        assert "(p*rho)**2" in err, err
    if setting.startswith("D_p=1e") and command == "check":
        assert "4*Gamma/alpha**2" in err or "1/alpha" in err, err
        assert "OverflowError" not in err


def test_unknown_override_key(nominal_config, capsys):
    rc = cli.main(["check", "--config", nominal_config, "--set", "bogus=1"])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_invalid_parameter_value(nominal_config, capsys):
    rc = cli.main(["design", "--config", nominal_config, "--set", "P_n=-5"])
    assert rc == 2
    assert "P_n" in capsys.readouterr().err


@pytest.mark.parametrize("value", [None, True, [1.0], {"value": 1.0}, "fast"],
                         ids=["null", "true", "list", "object", "unparsable"])
@pytest.mark.parametrize("command, config, key", [
    ("check", "params_n30_config", "J"),
    ("check", "nominal_config", "P_n"),
    ("design", "nominal_config", "P_n"),
    ("check", "nominal_config", "n"),
], ids=["check-sg_params", "check-nominal_spec", "design", "check-nominal_spec-n"])
def test_non_numeric_config_value_exits_usage(command, config, key, value, request,
                                              tmp_path, capsys):
    # A config value that is not a number is bad input (exit 2): not a
    # traceback with exit 1, which check uses for "not certified", and not
    # true read as 1.0.  A --set value goes through the same parser.
    good_path = request.getfixturevalue(config)
    with open(good_path) as fh:
        data = json.load(fh)
    data[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    text = value if isinstance(value, str) else json.dumps(value)
    for argv in (["--config", str(path)], ["--config", good_path, "--set", f"{key}={text}"]):
        rc = cli.main([command, *argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("parameter error: ") and repr(key) in err


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(["check", "--config", str(tmp_path / "absent.json")])
    assert rc == 2


def test_malformed_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = cli.main(["check", "--config", str(path)])
    assert rc == 2
    path.write_text(json.dumps({"J": 1.0}))
    rc = cli.main(["check", "--config", str(path)])
    assert rc == 2
    path.write_text(json.dumps({"kind": "mystery"}))
    rc = cli.main(["check", "--config", str(path)])
    assert rc == 2


def test_equilibria_output(params_n30_config, capsys):
    rc = cli.main(["equilibria", "--config", params_n30_config])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_points"] == 2
    kinds = {e["branch"]: e["classification"] for e in doc["equilibria"]}
    assert kinds == {1: "stable", 2: "unstable"}


def test_simulate_csv(params_n30_config, tmp_path):
    out = tmp_path / "traj.csv"
    rc = cli.main(["simulate", "--config", params_n30_config, "--t-end", "1",
                   "--samples", "11", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,i_d,i_q,omega,delta"
    assert len(lines) == 13
    assert lines[-1].startswith("# verdict: ")


def test_simulate_ese_csv(params_n30_config, tmp_path):
    out = tmp_path / "ese.csv"
    rc = cli.main(["simulate", "--config", params_n30_config, "--ese",
                   "--t-end", "1", "--samples", "11", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("t,eta,eta_dot,w_re,w_im")
    # The swing formulation is not classified, and the trailer says so.
    trailer = text.splitlines()[-1]
    assert trailer.startswith("# verdict: ")
    assert json.loads(trailer[len("# verdict: "):]) == {"kind": "undecided",
                                                        "reason": "not classified"}


def test_simulate_initial_parsing(params_n30_config, tmp_path, capsys):
    rc = cli.main(["simulate", "--config", params_n30_config,
                   "--initial", "1,2,3", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "i_d,i_q,omega,delta" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--param", "D_p", "--min", "100", "--max", "200", "--points", "0"],
     "--points must be >= 1"),
    (["validate", "--samples", "0"], "--samples must be >= 1"),
    (["simulate", "--initial", "nan,0,314,0"], "non-finite component"),
    (["simulate", "--initial", "0,0,inf,0"], "non-finite component"),
    (["simulate", "--t-end", "nan"], "--t-end must be finite and > 0, got nan"),
    (["basin", "--t-end", "nan", "--samples", "1"], "--t-end must be finite and > 0, got nan"),
    (["simulate", "--initial", "0,0,314,1e50", "--t-end", "1", "--samples", "3"],
     "too large to place section levels"),
    (["simulate", "--initial", "0,0,x,0"], "--initial has a non-numeric component: '0,0,x,0'"),
    (["check", "--set", "J"], "--set expects key=value, got 'J'"),
    *[([command, "--t-end", t_end, "--samples", "2"],
       f"--t-end must be finite and > 0, got {float(t_end)}")
      for command in ("simulate", "basin") for t_end in ("0", "-1", "inf")],
])
def test_bad_input_exits_usage(argv, message, params_n30_config, tmp_path, capsys):
    rc = cli.main(argv[:1] + ["--config", params_n30_config, "--out",
                              str(tmp_path / "out")] + argv[1:])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["check"],
    ["simulate", "--t-end", "0.1", "--samples", "3"],
    ["equilibria"],
])
def test_unwritable_out_exits_usage(command, params_n30_config, tmp_path, capsys):
    # Exit 1 would read as "not certified" for check, so a failed write is
    # bad input (exit 2) naming the path.
    out = tmp_path / "missing" / "x.csv"
    rc = cli.main(command[:1] + ["--config", params_n30_config, "--out", str(out)]
                  + command[1:])
    assert rc == 2
    assert f"cannot write --out {str(out)!r}" in capsys.readouterr().err


def test_simulate_deterministic_output(params_n30_config, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["simulate", "--config", params_n30_config, "--t-end", "2",
            "--samples", "201", "--initial", "5,-5,320,0.3"]
    assert cli.main(base + ["--out", str(a)]) == 0
    assert cli.main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


DEMO_CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                            "demos", "configs")


@pytest.mark.parametrize("config, extra, expected", [
    # The doubled-resistor design slips from rest: a periodic orbit.
    ("500kw_nominal.json", ["--set", "R_drop_pct=1.0", "--initial", "0,0,0,0"],
     {"kind": "periodic", "t_decided": None}),
    ("500kw_n30_nominal.json", [],
     {"kind": "converged", "decided_by": "local_basin", "t_decided": None}),
])
def test_simulate_verdict_independent_of_samples(config, extra, expected, tmp_path):
    trailers = set()
    for n in (201, 501, 20001):
        out = tmp_path / f"traj_{n}.csv"
        rc = cli.main(["simulate", "--config", os.path.join(DEMO_CONFIGS, config), *extra,
                       "--samples", str(n), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == n + 2
        trailers.add(lines[-1])
    assert len(trailers) == 1
    verdict = json.loads(trailers.pop()[len("# verdict: "):])
    assert {k: verdict[k] for k in expected} == expected


def test_basin_cli_deterministic(params_n30_config, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["basin", "--config", params_n30_config, "--samples", "4",
            "--seed", "5", "--t-end", "6"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["converged_stable"] == 4


def test_sweep_csv(params_n30_config, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", params_n30_config, "--param", "D_p",
                   "--min", "100", "--max", "200", "--points", "3",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "D_p,verdict,margin,rel_margin,worst_d,band_ok_all"
    assert len(lines) == 4


def test_sweep_log_values_are_geometric(params_n30_config, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", params_n30_config, "--param", "D_p",
                   "--min", "100", "--max", "10000", "--points", "3", "--log",
                   "--out", str(out)])
    assert rc == 0
    values = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert values == pytest.approx([100.0, 1000.0, 10000.0], rel=1e-12)
    rc = cli.main(["sweep", "--config", params_n30_config, "--param", "D_p",
                   "--min", "0", "--max", "10000", "--points", "3", "--log"])
    assert rc == 2
    assert "--min > 0" in capsys.readouterr().err


@pytest.mark.parametrize("lo, hi", [("1", "-1"), ("-1", "1"), ("nan", "1"), ("1", "nan")])
def test_sweep_log_needs_positive_ends(lo, hi, params_n30_config, capsys):
    # Both ends are checked before numpy takes their logarithms.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["sweep", "--config", params_n30_config, "--param", "J",
                       "--min", lo, "--max", hi, "--points", "2", "--log"])
    assert rc == 2
    assert not caught
    err = capsys.readouterr().err
    assert "--min > 0 and --max > 0" in err and "RuntimeWarning" not in err


def test_sweep_rejects_unknown_param(params_n30_config, capsys):
    rc = cli.main(["sweep", "--config", params_n30_config, "--param", "X",
                   "--min", "1", "--max", "2"])
    assert rc == 2
    assert "X" in capsys.readouterr().err


def test_simulate_huge_horizon_exits_numerical(params_n30_config, tmp_path,
                                               monkeypatch, capsys):
    # A finite but huge horizon runs out of rhs calls and exits 3; the
    # budget is lowered so the test ends quickly.
    monkeypatch.setattr(simulator, "MAX_RHS_CALLS", 10_000)
    rc = cli.main(["simulate", "--config", params_n30_config, "--t-end", "1e300",
                   "--out", str(tmp_path / "traj.csv")])
    assert rc == 3
    assert "budget" in capsys.readouterr().err


def test_simulate_huge_initial_state_exits_numerical(params_n30_config, tmp_path, capsys):
    # The first derivative overflows, so no first step size exists.
    rc = cli.main(["simulate", "--config", params_n30_config,
                   "--initial", "1e200,-1e200,1e250,1e300", "--t-end", "1",
                   "--samples", "3", "--out", str(tmp_path / "traj.csv")])
    assert rc == 3
    assert "step size underflow at t=0.0" in capsys.readouterr().err


def test_simulate_has_one_integrator(params_n30_config, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["simulate", "--config", params_n30_config, "--method", "rk4"])
    assert excinfo.value.code == 2
    assert "--method" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    ("simulate", "--rel-tol"),
    ("simulate", "--abs-tol"),
    ("validate", "--tol"),
    ("validate", "--t-end"),
])
def test_judging_strictness_is_not_an_option(command, option, params_n30_config, capsys):
    # Loose integrator tolerances turn a pole-slipping run into a converged
    # one, and a large --tol or short --t-end passes any validation: no
    # setting may choose how strictly a run is judged.
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--config", params_n30_config, option, "1"])
    assert excinfo.value.code == 2
    assert option in capsys.readouterr().err


def test_validate(params_n30_config, capsys):
    rc = cli.main(["validate", "--config", params_n30_config, "--samples", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_deviation"] < cli.VALIDATE_BOUND_RAD
    assert len(doc["deviations"]) == 2


def test_validate_reports_numerical_failure(params_n30_config, monkeypatch, capsys):
    monkeypatch.setattr(cli, "VALIDATE_BOUND_RAD", 1e-18)
    rc = cli.main(["validate", "--config", params_n30_config, "--samples", "1"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("validation failed: max deviation ")


@pytest.mark.parametrize("command", ["basin", "validate"])
def test_negative_seed_exits_usage_naming_the_option(command, params_n30_config, capsys):
    # numpy rejects a negative seed with a message that names no option.
    rc = cli.main([command, "--config", params_n30_config, "--samples", "1", "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("command", ["basin", "validate", "simulate"])
def test_nonpositive_samples_exits_usage_naming_the_option(command, samples,
                                                           params_n30_config, capsys):
    # basin_sample rejects n < 1, and IntegratorConfig fewer than two output
    # samples, with messages that name no option.
    least = 2 if command == "simulate" else 1
    rc = cli.main([command, "--config", params_n30_config, "--samples", samples])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --samples must be >= {least}, got {samples}\n"


@pytest.mark.parametrize("command", ["check", "equilibria"])
def test_closed_stdout_exits_usage(command, params_n30_config):
    # A closed stdout (say, piped into head) is bad output, exit 2: not exit
    # 1, which check uses for "not certified", and no traceback.  Buffered
    # stdout, so equilibria's short output fails only when it is flushed.
    src = os.path.dirname(os.path.dirname(swingcert.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "swingcert.cli", command, "--config", params_n30_config],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write to stdout: ")
    assert proc.stderr.count("\n") == 1


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(swingcert.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, swingcert, swingcert.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
