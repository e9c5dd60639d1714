"""swingcert benchmark: four workloads, timed end to end and layer by layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload certify-sweep --seed 1 --seconds 20 --trace 0

Each run starts fresh interpreters: several that only set up (their
median is ``setup_s``) and one that sets up, warms up and then drives
the workload with a single closed-loop client for ``--seconds``.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` a
traced replay of the same requests gives the per-layer metrics, and the
spans are written as JSON lines under ``.benchmark_out/``.  Human-readable
lines come first; the last line of stdout is the JSON result.  The run
refuses to start when ``SWINGCERT_THREADS`` is set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("certify-sweep", "basin-sync", "basin-slip", "cross-check")
SETUP_RUNS = 5
DEADLINE_S = 170.0
OUT_DIR = ".benchmark_out"
# Never used while the benchmark or a change is tuned; confirms later claims.
HELD_OUT_SEED = 917


def tail_latency(latencies) -> tuple:
    """(value, percentile): the highest latency with at least 10 items above it.

    With 10 items or fewer no such latency exists and the maximum is given.
    """
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_worker(mode: str, args, src: str, deadline: float, spans=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--src", src]
    if args.tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for the {mode} worker")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest pools and one set-up run (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S

    if "SWINGCERT_THREADS" in os.environ:
        sys.stderr.write("refusing to run: SWINGCERT_THREADS is set and would change "
                         "the numbers; unset it\n")
        return 2
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "swingcert", "__init__.py")):
        sys.stderr.write(f"no swingcert package under {src}; run from the repository root\n")
        return 2

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "held_out_seed": HELD_OUT_SEED,
              "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}
    try:
        setups = [run_worker("setup", args, src, deadline)
                  for _ in range(1 if args.tiny else SETUP_RUNS - 1)]
        if args.trace:
            main_run = run_worker("trace", args, src, deadline,
                                  spans=os.path.join(out_dir, stem + ".spans.jsonl"))
        else:
            main_run = run_worker("measure", args, src, deadline)
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    setups.append(main_run)
    record.update(main_run["versions"])
    setup_s = statistics.median(r["setup_s"] for r in setups)
    import_s = statistics.median(r["import_s"] for r in setups)

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"held-out seed {HELD_OUT_SEED}  nproc {record['nproc']}  "
             f"python {record['python']}  numpy {record['numpy']}  scipy {record['scipy']}"]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in main_run["metrics"].items()}
        metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
        correct = (main_run["failed"] == 0 and main_run["probe_failed"] == 0
                   and main_run["replay_matches"] and main_run["repeatable"])
        lines.append(f"spans {main_run['spans']}; replayed answers equal the untraced "
                     f"calls: {main_run['replay_matches']}; verdict digest "
                     f"{main_run['verdict_digest']}")
        lines.append("self time by layer (s): " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(main_run["self_s_by_layer"].items())))
        record.update({k: main_run[k] for k in ("verdict_digest", "replay_matches",
                                                 "probe_failed", "self_s_by_layer")})
    else:
        lat = main_run["latencies"]
        items = len(lat)
        tail, pct = tail_latency(lat)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": items / main_run["wall"], "unit": "1/s"},
            "item_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "item_tail_ms": {"value": 1e3 * tail, "unit": "ms"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
        }
        correct = main_run["failed"] == 0 and main_run["repeatable"]
        record.update({"tail_percentile": pct, "tail_items": items,
                       "passes": main_run["passes"], "pool_items": main_run["pool_items"]})
        lines.append(f"{items} items in {main_run['wall']:.2f} s, {main_run['passes']} "
                     f"passes over a pool of {main_run['pool_items']}; set-up median of "
                     f"{len(setups)} fresh interpreters; item_tail_ms is p{pct:.2f} of "
                     f"{items} items")
    failed_frac = main_run["failed"] / main_run["attempted"]
    record.update({"digest": main_run["digest"], "repeatable": main_run["repeatable"],
                   "attempted": main_run["attempted"], "failed": main_run["failed"],
                   "failed_frac": failed_frac, "correct": correct, "metrics": metrics})
    for name, m in metrics.items():
        lines.append(f"{name:32s} {m['value']:.6g} {m['unit']}")
    lines.append(f"{'failed_frac':32s} {failed_frac:.6g} ratio")
    lines.append(f"checked {main_run['attempted']} items, {main_run['failed']} failed; "
                 f"digest {main_run['digest']}; passes agree: {main_run['repeatable']}")
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps({"correct": bool(correct), "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
