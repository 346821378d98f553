"""shiftcp benchmark: one closed-loop client calling ``shiftcp.cli.main`` in-process.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep``, ``replay`` and ``bounds``. A run

1. sets up its inputs ``SETUP_REPS`` times, each in a fresh interpreter, and
   reports the median as ``setup_s`` (interpreter start, imports and input
   generation); every set-up must produce the same bytes;
2. makes one untimed warm-up call, then calls the CLI back to back for
   ``--seconds`` seconds: one client, the next call after the previous one
   returns, with no more CLI worker threads than cores;
3. checks every call's output (exit code, record count and header, finite
   coverage and ESS in range, bytes identical to the first call and, at
   seed 20250809, to ``digests.json``). A failed call counts in ``failed``
   and adds no timing.

With ``--trace 0`` the metrics are end to end: ``setup_s``, ``wall_s`` and
``cpu_s`` (medians per CLI call), ``items_per_s`` (median of items over wall
time) and ``peak_rss_mb`` (the process high-water mark; set-up runs in other
processes). With ``--trace 1`` calls alternate between untraced and traced
(see ``tracing.py``); the metrics are per layer, per traced call, plus
``trace.overhead_ratio`` (median traced over median untraced wall time,
minus 1). The last line of standard output is the JSON result; the lines
before it give each metric with its unit, sample count and base.

BLAS and OpenMP pools are pinned to one thread, so a process runs exactly
the CLI's ``--threads``. Results and spans go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPS = 3
SETUP_TIMEOUT_S = 60
MIN_CALLS = 3  # timed calls per run (per kind when tracing), whatever --seconds says

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ProgramMissing(RuntimeError):
    pass


class SetupFailed(RuntimeError):
    pass


@dataclass
class Call:
    traced: bool
    ok: bool
    wall: float
    cpu: float
    subsample_warnings: int
    error: str | None
    op_id: int = 0


def import_cli():
    """The CLI module of the checkout's own ``src/`` tree."""
    sys.path.insert(0, str(SRC))
    try:
        import shiftcp.cli as cli
    except ImportError as exc:
        raise ProgramMissing(f"cannot import shiftcp from {SRC}: {exc}") from exc
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"shiftcp was imported from {cli.__file__}, not from {SRC}")
    return cli


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(workload) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cli_threads": workload.threads,
        "machine": platform.machine(),
    }


def set_up(workload, size: str, seed: int, run_dir: Path) -> tuple[Path, list[float], bool]:
    """Generate the inputs ``SETUP_REPS`` times; returns (inputs, seconds, all identical)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    seconds, digests = [], []
    for rep in range(SETUP_REPS):
        directory = run_dir / f"setup-{rep}"
        cmd = [sys.executable, str(HERE / "setup_inputs.py"), "--workload", workload.name, "--size", size, "--seed", str(seed), "--dir", str(directory)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise SetupFailed(f"set-up did not finish in {SETUP_TIMEOUT_S} s") from exc
        seconds.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupFailed(f"set-up exited with code {proc.returncode}:\n{proc.stderr}")
        digests.append(workloads.tree_digest(directory))
        if rep > 0:
            shutil.rmtree(directory)
    return run_dir / "setup-0", seconds, len(set(digests)) == 1


def call_cli(cli, argv: list[str], tracer: tracing.Tracer | None) -> tuple[object, str, str, float, float, int, str | None]:
    """One CLI call with output captured: (exit code, stdout, stderr, wall, cpu, subsampling warnings, traceback)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    code = None
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install()
            tracer.begin_op()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            error = traceback.format_exc()
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if tracer is not None:
                tracer.end_op()
                tracer.uninstall()
    subsampling = sum(1 for w in caught if issubclass(w.category, UserWarning) and "subsampling" in str(w.message))
    other = {str(w.message) for w in caught if "subsampling" not in str(w.message)}
    for message in sorted(other):
        print(f"perfbench: warning from the CLI: {message}", file=sys.stderr)
    return code, stdout.getvalue(), stderr.getvalue(), wall, cpu, subsampling, error


def measure(cli, workload, inputs: Path, out: Path, seed: int, seconds: float, tracer, expected_digest):
    """Warm-up plus the timed loop; returns (calls, output sha256, whether it matches digests.json)."""
    calls: list[Call] = []
    first_digest = None

    def one(traced: bool) -> Call:
        nonlocal first_digest
        shutil.rmtree(out, ignore_errors=True)  # no call may pass on an earlier call's output
        code, stdout, stderr, wall, cpu, subsampling, error = call_cli(cli, workload.argv(inputs, out, seed), tracer if traced else None)
        if error is None:
            error = workload.check(inputs, out, code, stdout)
            if error is not None and stderr:
                error += f"; stderr: {stderr.strip()}"
        if error is None:
            digest = workload.digest(inputs, out)
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                error = f"output sha256 {digest} differs from the first call's {first_digest}"
        call = Call(traced, error is None, wall, cpu, subsampling, error, tracer.op_id if traced else 0)
        if error is not None:
            print(f"perfbench: failed call ({'traced' if traced else 'untraced'}): {error}", file=sys.stderr)
        return call

    calls.append(one(False))  # warm-up, untimed
    start = time.perf_counter()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        calls.append(one(traced))
        n += 1
        per_kind = n // 2 if tracer is not None else n
        if time.perf_counter() - start >= seconds and per_kind >= MIN_CALLS:
            break
    digest_ok = expected_digest is None or first_digest == expected_digest
    if not digest_ok:
        print(f"perfbench: output sha256 {first_digest} differs from digests.json {expected_digest}", file=sys.stderr)
    return calls, first_digest, digest_ok


def end_to_end(workload, setup_seconds, timed: list[Call]) -> dict:
    walls = [c.wall for c in timed]
    items = workload.items()
    return {
        "setup_s": (statistics.median(setup_seconds), "s", f"median of {len(setup_seconds)} set-ups"),
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} CLI calls"),
        "items_per_s": (statistics.median(items / w for w in walls), "items/s", f"median of {len(walls)} calls; an item is one {workload.item}, {items} per call"),
        "cpu_s": (statistics.median(c.cpu for c in timed), "s", f"median of {len(timed)} CLI calls, process CPU"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "high-water mark of the client process"),
    }


def per_layer(workload, tracer, plain: list[Call], traced: list[Call]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced calls, plus the trace consistency record."""
    ok_ops = {c.op_id for c in traced}
    spans = [s for s in tracer.spans if s.root in ok_ops]
    metrics = tracing.layer_metrics(spans, len(traced), workload.items())
    subsampling = sum(c.subsample_warnings for c in traced)
    metrics["shift_bounds.subsample_warnings"] = (subsampling / len(traced), "count", f"per CLI call, {len(traced)} calls")
    metrics["cli.cpu_per_wall"] = (
        sum(c.cpu for c in plain) / sum(c.wall for c in plain),
        "ratio",
        f"process CPU / wall over {len(plain)} untraced calls",
    )
    plain_wall = statistics.median(c.wall for c in plain)
    traced_wall = statistics.median(c.wall for c in traced)
    metrics["trace.overhead_ratio"] = (
        traced_wall / plain_wall - 1.0,
        "ratio",
        f"median traced {traced_wall:.4f} s over median untraced {plain_wall:.4f} s ({len(traced)}/{len(plain)} calls)",
    )
    wall_total = sum(s.duration for s in spans if s.name == "op")
    thread_sums = tracing.thread_self_sums(spans)
    # Span names per call must repeat exactly: the inputs of every call are the same.
    per_call: dict[int, dict[str, int]] = {}
    threads_per_call: dict[int, set[int]] = {}
    for s in spans:
        names = per_call.setdefault(s.root, {})
        names[s.name] = names.get(s.name, 0) + 1
        threads_per_call.setdefault(s.root, set()).add(s.thread)
    check = {
        "traced_wall_s": wall_total,
        "thread_self_sums_s": sorted(thread_sums.values(), reverse=True),
        "self_within_wall": all(v <= wall_total * (1 + 1e-9) for v in thread_sums.values()),
        "counts_repeat": len({tuple(sorted(v.items())) for v in per_call.values()}) <= 1,
        "max_threads_per_call": max(len(t) for t in threads_per_call.values()),
        "spans": len(spans),
        "missing_functions": tracer.missing,
    }
    return metrics, check


def report(workload, args, env, metrics: dict, attempted: int, failed: int) -> None:
    print(f"# perfbench workload={workload.name} size={args.size} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "blas_env") + " " + " ".join(f"{k}={v}" for k, v in env["blas_env"].items()))
    if args.trace:
        print("# per-layer values are per traced CLI call; the counts in a base are totals over all traced calls")
    for name, (value, unit, base) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit:8s} {base}")
    print(f"{'failed_ratio':44s} {failed / attempted:>16.6g} {'ratio':8s} {failed} failed / {attempted} attempted CLI calls (warm-up included)")


def run(args) -> int:
    try:
        cli = import_cli()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = workloads.build(args.size, nproc())[args.workload]
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    expected_digest = digests[args.size].get(workload.name) if args.seed == workloads.DEFAULT_SEED else None

    tag = f"{workload.name}-{args.size}-s{args.seed}-t{args.trace}"
    run_dir = WORK / f"{tag}-p{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            inputs, setup_seconds, setup_identical = set_up(workload, args.size, args.seed, run_dir)
        except SetupFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if not setup_identical:
            print("perfbench: set-up runs produced different inputs from the same seed", file=sys.stderr)
        tracer = tracing.Tracer() if args.trace else None
        calls, output_digest, digest_ok = measure(cli, workload, inputs, run_dir / "out", args.seed, args.seconds, tracer, expected_digest)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(calls)
    failed = sum(not c.ok for c in calls)
    timed = [c for c in calls[1:] if c.ok]
    plain = [c for c in timed if not c.traced]
    traced = [c for c in timed if c.traced]
    env = environment(workload)
    trace_check = None
    if not plain or (args.trace and not traced):
        print("perfbench: no successful timed call", file=sys.stderr)
        return 1
    if args.trace:
        metrics, trace_check = per_layer(workload, tracer, plain, traced)
        tracer.write(results_dir / f"{tag}.spans.jsonl.gz")
    else:
        metrics = end_to_end(workload, setup_seconds, plain)
    correct = failed == 0 and setup_identical and digest_ok and (trace_check is None or trace_check["self_within_wall"])

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    details = {
        "workload": workload.name,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items_per_call": workload.items(),
        "item": workload.item,
        "environment": env,
        "setup_s": setup_seconds,
        "setup_identical": setup_identical,
        "output_sha256": output_digest,
        "digest_checked": expected_digest is not None,
        "digest_ok": digest_ok,
        "calls": [vars(c) for c in calls],
        "bases": {k: b for k, (_, _, b) in metrics.items()},
        "trace_check": trace_check,
        "result": result,
    }
    results_path = results_dir / f"{tag}.json"
    results_path.write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    report(workload, args, env, metrics, attempted, failed)
    print(f"# results {results_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shiftcp benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="bench", choices=sorted(workloads.SHAPES), help="input shape; tiny is the smoke-test shape")
    args = parser.parse_args(argv)
    # Before numpy is first imported; set-up processes inherit the setting.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
