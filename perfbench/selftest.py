"""Smoke test of the benchmark at the tiny shape. Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload for a second, untraced and traced, at seed 20250809 and
checks that

- each run exits 0 and ends with a result whose output checks passed, which
  at this seed includes the ``digests.json`` comparison of ``records.csv``
  and ``bounds.json``;
- every metric ``BENCHMARK.json`` names is printed with its unit, in the
  result and in the report lines before it;
- in traced runs, each thread's span self times sum to no more than the
  traced wall time, and per-call span counts repeat exactly;

and that a tiny ``shiftcp tau`` run writes the ``tau_records.csv`` recorded
in ``digests.json``. Prints one PASS/FAIL line per check; exits 1 on a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = workloads.DEFAULT_SEED


def run_benchmark(workload: str, trace: int) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    """Failure messages of one smoke run (empty when it passes)."""
    code, lines = run_benchmark(workload, trace)
    if code != 0 or not lines:
        return [f"exit code {code}"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    if set(result["metrics"]) != set(expected):
        problems.append(f"metrics {sorted(set(result['metrics']) ^ set(expected))} missing or unexpected")
    report = {line.split()[0]: line.split()[2] for line in lines[:-1] if not line.startswith("#") and len(line.split()) > 2}
    for name, unit in expected.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: result gives {got}, expected a number in {unit}")
        if report.get(name) != unit:
            problems.append(f"{name}: report line gives unit {report.get(name)}, expected {unit}")
    if trace:
        results_path = next(line.split(" ", 2)[2] for line in lines if line.startswith("# results "))
        check = json.loads((ROOT / results_path).read_text(encoding="utf-8"))["trace_check"]
        if not check["self_within_wall"]:
            problems.append(f"thread self times {check['thread_self_sums_s']} exceed traced wall {check['traced_wall_s']}")
        if not check["counts_repeat"]:
            problems.append("span counts differ between traced calls of the same inputs")
        if check["missing_functions"]:
            problems.append(f"traced functions missing from the package: {check['missing_functions']}")
    return problems


def check_tau(expected_digest: str) -> list[str]:
    out = ROOT / ".perfbench" / f"selftest-tau-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        config = out / "config.json"
        config.write_text(json.dumps(workloads.SHAPES["tiny"]["sweep"]), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        cmd = [sys.executable, "-m", "shiftcp", "tau", "--config", str(config), "--seed", str(SEED), "--out", str(out / "run")]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            return [f"shiftcp tau exited with code {proc.returncode}: {proc.stderr.strip()}"]
        digest = workloads.sha256(out / "run" / "tau_records.csv")
        return [] if digest == expected_digest else [f"tau_records.csv sha256 {digest}, expected {expected_digest}"]
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    failures = 0
    checks = [(f"{w} trace={t}", lambda w=w, t=t: check_run(w, t, expected[t])) for w in workloads.NAMES for t in (0, 1)]
    checks.append(("tau digest", lambda: check_tau(digests["tiny"]["tau"])))
    for name, check in checks:
        problems = check()
        failures += bool(problems)
        print(f"selftest {name}: {'FAIL' if problems else 'PASS'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
