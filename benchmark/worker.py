"""One fresh interpreter of the benchmark: set-up, then the workload.

Started by run.py from the root of a checkout.  Prints one JSON object
on its last line of stdout.  Modes:

  setup    import swingcert, load the workload's config and finish set-up
  measure  set-up, warm-up, then the untraced closed loop
  trace    set-up, an untraced and a traced closed loop over the same
           requests, then a fixed probe of every layer
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WARMUP_S = 0.5


def closed_loop(workload, pool, seconds: float, issue) -> dict:
    """One client: each request is issued after the previous one completes.

    Runs whole passes over ``pool``, at least one, until the next pass
    would end more than half a pass after ``seconds``.
    ``issue(request, index)`` returns (answer, failed items, seconds of
    program time).  An item's latency is its request's program time
    divided by the request's item count.
    """
    latencies = []
    attempted = failed = passes = 0
    first = None
    repeatable = True
    start = time.perf_counter()
    elapsed = 0.0
    while passes == 0 or elapsed * (passes + 0.5) / passes <= seconds:
        answers = []
        for index, request in enumerate(pool):
            n = workload.items(request)
            try:
                answer, bad, busy = issue(request, index)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                answer, bad, busy = ("raised",), n, 0.0
            latencies.extend([busy / n] * n)
            attempted += n
            failed += bad
            answers.append(answer)
        passes += 1
        if first is None:
            first = answers
        repeatable = repeatable and answers == first
        elapsed = time.perf_counter() - start
    return {
        "wall": elapsed,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "answers": first,
        "repeatable": repeatable,
    }


def untraced_issue(ctx, workload):
    def issue(request, index):
        t0 = time.perf_counter()
        out = workload.run(ctx, request)
        busy = time.perf_counter() - t0
        return workload.answer(request, out), workload.check(ctx, request, out), busy
    return issue


def warm_up(ctx, workload) -> tuple:
    """Repeat the workload's probe request, untimed, until WARMUP_S has passed.

    Returns (attempted, failed) items.
    """
    issue = untraced_issue(ctx, workload)
    request = workload.probe_request(ctx)
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < WARMUP_S:
        _, bad, _ = issue(request, 0)
        attempted += workload.items(request)
        failed += bad
    return attempted, failed


def measure(ctx, workload, seconds: float) -> dict:
    import workloads as wl

    warm_attempted, warm_failed = warm_up(ctx, workload)
    loop = closed_loop(workload, workload.pool, seconds, untraced_issue(ctx, workload))
    return {
        "wall": loop["wall"],
        "latencies": loop["latencies"],
        "attempted": loop["attempted"] + warm_attempted,
        "failed": loop["failed"] + warm_failed,
        "passes": loop["passes"],
        "pool_items": sum(workload.items(r) for r in workload.pool),
        "digest": wl.digest(loop["answers"]),
        "repeatable": loop["repeatable"],
    }


def probe(ctx, workload_cls, tracer, stats) -> int:
    """Time every layer at least once, whatever the workload exercises.

    The micro-probes time bare per-call costs on the workload's own
    parameters.  One probe request of each other workload is replayed
    (the certificate one on the paper's certified design), so that every
    per-layer metric has spans on every workload.  Returns the number of
    failed probe items.
    """
    import swingcert as sc
    from swingcert import simulator
    import workloads as wl

    params = ctx.params
    initial = simulator.sample_initial_state(ctx.box, ctx.seed, 0)
    y = initial.as_array()
    rhs = sc.full_rhs(params)
    ese0, init_currents = sc.ese_from_full(initial, params)
    ese_rhs = sc.ese_rhs_fn(params, init_currents)
    x = ese0.as_array()
    tracer.repeat("design.size", lambda: wl.size_design(ctx.spec), 200, item="probe")
    tracer.repeat("core.derive_constants", lambda: sc.derive_constants(params), 200, item="probe")
    tracer.repeat("core.full_rhs", lambda: rhs(0.0, y), 2000, item="probe")
    tracer.repeat("swing.ese_rhs", lambda: ese_rhs(0.0, x), 2000, item="probe")
    tracer.repeat("equilibria.solve", lambda: sc.solve_equilibria(params), 3, item="probe")
    failed = 0
    for other in (wl.CertifySweep, wl.BasinSync, wl.CrossCheck):
        if issubclass(workload_cls, wl.Basin) and other is wl.BasinSync or other is workload_cls:
            continue
        failed += other.replay(ctx, other.probe_request(ctx), tracer, stats, "probe")[1]
    return failed


def layer_metrics(tracer, stats) -> dict:
    mean = statistics.fmean
    us = lambda name: 1e6 * tracer.median_per_count(name)
    ms = lambda name: 1e3 * tracer.median_per_count(name)
    integrate_ms = ms("simulator.integrate")
    nfev = mean(stats.nfev)
    full_rhs_us = us("core.full_rhs")
    kinds = [key for key, _, _ in stats.verdicts]
    return {
        "design.size_us": (us("design.size"), "us"),
        "core.derive_constants_us": (us("core.derive_constants"), "us"),
        "core.full_rhs_us": (full_rhs_us, "us"),
        "equilibria.solve_ms": (ms("equilibria.solve"), "ms"),
        "certificate.check_ms": (ms("certificate.check"), "ms"),
        "certificate.grid_points": (mean(stats.grid_points), "count"),
        "certificate.velocity_band_us": (us("certificate.velocity_band"), "us"),
        "certificate.p_bounds_us": (us("certificate.p_bounds"), "us"),
        "certificate.band_ok_frac": (mean(stats.band_ok), "ratio"),
        "certificate.certified_frac": (mean(stats.certified), "ratio"),
        "certificate.csv_ms": (ms("certificate.csv"), "ms"),
        "simulator.integrate_ms": (integrate_ms, "ms"),
        "simulator.nfev_per_traj": (nfev, "count"),
        "simulator.rhs_overhead_ratio": (1e3 * integrate_ms / nfev / full_rhs_us, "ratio"),
        "simulator.samples_per_traj": (mean(stats.samples), "count"),
        "simulator.classify_ms": (ms("simulator.classify"), "ms"),
        # No converged trajectory: an early stop would keep the whole horizon.
        "simulator.useful_horizon_frac": (
            mean(stats.useful_horizon) if stats.useful_horizon else 1.0, "ratio"),
        "simulator.periodic_frac": (kinds.count("periodic") / len(kinds), "ratio"),
        "simulator.undecided_frac": (kinds.count("undecided") / len(kinds), "ratio"),
        "swing.ese_rhs_us": (us("swing.ese_rhs"), "us"),
        "simulator.xcheck_nfev": (mean(stats.xcheck_nfev), "count"),
        "simulator.cross_validate_ms": (ms("simulator.cross_validate"), "ms"),
        "swing.max_deviation_rad": (max(stats.deviations), "rad"),
    }


def trace(ctx, workload, seconds: float, spans_path: str) -> dict:
    import workloads as wl
    from spans import Tracer

    # The first half of the pool is enough for per-layer figures.
    pool = workload.pool[:max(1, len(workload.pool) // 2)]
    warm_attempted, warm_failed = warm_up(ctx, workload)
    untraced = closed_loop(workload, pool, seconds / 2.0, untraced_issue(ctx, workload))

    tracer = Tracer()
    stats = wl.Stats()

    def traced_issue(request, index):
        t0 = time.perf_counter()
        answer, bad = workload.replay(ctx, request, tracer, stats, str(index))
        return answer, bad, time.perf_counter() - t0

    traced = closed_loop(workload, pool, seconds / 2.0, traced_issue)
    replay_only = sum(s["end"] - s["start"] for s in tracer.spans
                      if s["name"] in wl.REPLAY_ONLY_SPANS)
    untraced_rate = len(untraced["latencies"]) / untraced["wall"]
    traced_rate = len(traced["latencies"]) / (traced["wall"] - replay_only)
    verdict_digest = wl.digest(stats.verdicts) if stats.verdicts else None
    probe_failed = probe(ctx, type(workload), tracer, stats)
    tracer.write_jsonl(spans_path)

    metrics = layer_metrics(tracer, stats)
    metrics["trace.untraced_items_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_items_per_s"] = (untraced_rate - traced_rate, "1/s")
    return {
        "metrics": metrics,
        "attempted": untraced["attempted"] + traced["attempted"] + warm_attempted,
        "failed": traced["failed"] + untraced["failed"] + warm_failed,
        "probe_failed": probe_failed,
        "digest": wl.digest(untraced["answers"]),
        "verdict_digest": verdict_digest,
        "replay_matches": traced["answers"] == untraced["answers"],
        "repeatable": untraced["repeatable"] and traced["repeatable"],
        "self_s_by_layer": tracer.self_by_layer(),
        "spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--src", required=True, help="directory holding the swingcert package")
    parser.add_argument("--spans", help="JSON-lines output for the traced run's spans")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, args.src)
    import swingcert as sc
    import_s = time.perf_counter() - t0
    package_dir = os.path.realpath(os.path.join(args.src, "swingcert"))
    if os.path.dirname(os.path.realpath(sc.__file__)) != package_dir:
        sys.stderr.write(f"swingcert was imported from {sc.__file__}, not {package_dir}\n")
        return 2
    from swingcert import cli, simulator
    import workloads as wl

    workload_cls = wl.WORKLOADS[args.workload]
    data = cli.load_config(os.path.join(HERE, "configs", workload_cls.config), None)
    params = cli.params_from_config(data)
    # basin_sample's per-run set-up, paid before the first item.
    simulator.default_horizon(params, sc.solve_equilibria(params))
    spec = sc.NominalSpec.from_dict({k: v for k, v in data.items() if k != "kind"})
    ctx = wl.Context(spec, params, args.seed)
    workload = workload_cls(ctx, args.tiny)
    result = {"setup_s": time.perf_counter() - t0, "import_s": import_s}

    if args.mode == "measure":
        result.update(measure(ctx, workload, args.seconds))
    elif args.mode == "trace":
        result.update(trace(ctx, workload, args.seconds, args.spans))
    import numpy
    import scipy
    result["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
