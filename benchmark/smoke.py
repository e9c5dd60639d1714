"""Smoke test for the benchmark.

Runs every workload run.py offers at its smallest size, untraced and traced, and
asserts that every end-to-end and per-layer metric named in
BENCHMARK.json is printed with its unit and that the output checks ran.
Also asserts that the benchmark refuses to run when SWINGCERT_THREADS is
set or when the package sources are missing.  Run from the repository
root:

    python3 benchmark/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import WORKLOADS

ROOT = os.getcwd()
RUN = os.path.join("benchmark", "run.py")


def run(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=180)


def check_output(proc, expected: dict, label: str) -> None:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: not correct\n{proc.stdout}"
    assert result["attempted"] >= 1 and result["failed"] == 0, label
    assert set(result["metrics"]) == set(expected), (
        f"{label}: metrics differ: {set(result['metrics']) ^ set(expected)}")
    human = "\n".join(lines[:-1])
    for name, unit in expected.items():
        got = result["metrics"][name]
        assert got["unit"] == unit, f"{label}: {name} has unit {got['unit']}, not {unit}"
        assert isinstance(got["value"], (int, float)), f"{label}: {name} is not a number"
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in human.splitlines()), f"{label}: {name} not printed with {unit}"
    assert f"checked {result['attempted']} items, 0 failed" in human, (
        f"{label}: output checks did not run")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in WORKLOADS:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            label = f"{workload} trace {trace}"
            proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", trace, "--tiny"])
            check_output(proc, expected, label)
            assert "failed_frac" in proc.stdout, f"{label}: failed_frac not printed"
            print(f"ok  {label}")

    args = ["--workload", "certify-sweep", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--tiny"]
    proc = run(args, env={**os.environ, "SWINGCERT_THREADS": "2"})
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran with SWINGCERT_THREADS set"
    print("ok  refuses SWINGCERT_THREADS")

    bare = os.path.join(ROOT, ".benchmark_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "benchmark"), os.path.join(bare, "benchmark"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(args, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without the package"
    print("ok  refuses to run without src/swingcert")
    return 0


if __name__ == "__main__":
    sys.exit(main())
