"""The benchmark workloads: inputs, CLI arguments and output checks.

Why these three:

- ``sweep``: the paper's headline experiment at the default shape (n_cal 2000,
  n_test 5000, six shift strengths, all four methods) on two threads. The
  source-tuned cutoff sweep does most of its work, and it is the only
  workload on the threaded trial path. An item is one (sigma, trial) cell.
- ``replay``: the audit of a sweep of the same shape, written during set-up,
  on one thread. Data regeneration and coverage evaluation dominate and no
  tuning runs, so a tuning optimisation should leave it unchanged. An item is
  one audited record.
- ``bounds``: the bound certificates at the default shape; exact assignment
  solves on subsampled classes dominate, with no trial loop and no tuning.
  An item is one shift-strength report.

A sweep over an ingested logit table is not a workload: its run time is
dominated by pure-Python CSV parsing, whose median time per call varied by a
quartile spread of 0.18 to 0.28 over ten runs on a shared two-core machine,
more than the largest regression bound a benchmark metric may have.

Each workload receives only files generated in set-up (a config document,
or the sweep output to audit), and the benchmark's seed as
``--seed``.

``digests.json`` holds the sha256 of each workload's output at seed
20250809 (the CLI's default seed), captured from the seed implementation; a
run at that seed compares against it. ``records.csv`` is a behavioural
contract of the CLI, so these digests only change with a documented reason.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20250809
NAMES = ("sweep", "replay", "bounds")

RECORD_COLUMNS = ["method", "sigma", "trial", "threshold", "u_star", "tau", "coverage", "ess", "thm2_bound", "cor1_bound"]

N_CLASSES = 3
N_METHODS = 4
SIGMA_GRID = (0.0, 0.15, 0.3, 0.8, 1.6, 2.4)

# Shapes. "bench" is what the benchmark measures; "tiny" is the smoke run of
# selftest.py. Bounds keeps n_test large enough in both for every class to
# exceed the 512-point assignment limit, so subsampling is exercised.
SHAPES = {
    "bench": {
        "sweep": {"n_cal": 2000, "n_test": 5000, "trials": 5},
        "bounds": {"n_cal": 2000, "n_test": 5000},
    },
    "tiny": {
        "sweep": {"n_train": 600, "n_cal": 200, "n_test": 500, "trials": 1},
        "bounds": {"n_train": 600, "n_cal": 200, "n_test": 1800, "sigma_grid": [0.0, 0.8]},
    },
}

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(directory: Path) -> str:
    """Digest of every file under ``directory`` (relative names and bytes)."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _write_config(directory: Path, config: dict) -> Path:
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def check_records(path: Path, expected_rows: int) -> str | None:
    """Error message for a malformed records.csv, or None when it passes."""
    if not path.is_file():
        return f"{path.name} was not written"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != RECORD_COLUMNS:
        return f"{path.name}: unexpected header {rows[:1]}"
    body = rows[1:]
    if len(body) != expected_rows:
        return f"{path.name}: {len(body)} records, expected {expected_rows}"
    for lineno, row in enumerate(body, start=2):
        try:
            cov, ess = float(row[6]), float(row[7])
        except (IndexError, ValueError):
            return f"{path.name}: line {lineno}: unreadable coverage/ess {row}"
        if not (math.isfinite(cov) and 0.0 <= cov <= 1.0):
            return f"{path.name}: line {lineno}: coverage {cov} outside [0, 1]"
        if not (math.isfinite(ess) and 0.0 <= ess <= N_CLASSES):
            return f"{path.name}: line {lineno}: ess {ess} outside [0, {N_CLASSES}]"
    return None


@dataclass(frozen=True)
class Workload:
    """One workload: set-up inputs, the CLI call, and the check of its output.

    ``check`` returns an error message or None; ``digest`` is the sha256 of
    the output that must repeat exactly across calls and, at the default
    seed, match ``digests.json``.
    """

    name: str
    item: str
    threads: int
    config: dict

    def generate(self, seed: int, directory: Path) -> None:
        _write_config(directory, self.config)

    def argv(self, inputs: Path, out: Path, seed: int) -> list[str]:
        raise NotImplementedError

    def items(self) -> int:
        raise NotImplementedError

    def check(self, inputs: Path, out: Path, code, stdout: str) -> str | None:
        raise NotImplementedError

    def digest(self, inputs: Path, out: Path) -> str:
        raise NotImplementedError


def _sigmas(config: dict) -> int:
    return len(config.get("sigma_grid", SIGMA_GRID))


class Sweep(Workload):
    def argv(self, inputs, out, seed):
        return ["sweep", "--config", str(inputs / "config.json"), "--seed", str(seed), "--out", str(out), "--threads", str(self.threads)]

    def items(self):
        return _sigmas(self.config) * self.config["trials"]

    def check(self, inputs, out, code, stdout):
        if code != 0:
            return f"exit code {code}"
        return check_records(out / "records.csv", N_METHODS * self.items())

    def digest(self, inputs, out):
        return sha256(out / "records.csv")


class Replay(Workload):
    """Audit of a sweep written in set-up; the sweep itself is not timed."""

    def generate(self, seed, directory):
        from shiftcp.cli import main

        config = _write_config(directory, self.config)
        code = main(["sweep", "--config", str(config), "--seed", str(seed), "--out", str(directory / "run"), "--threads", "1"])
        if code != 0:
            raise RuntimeError(f"set-up sweep exited with code {code}")

    def argv(self, inputs, out, seed):
        return ["replay", "--seed", str(seed), "--out", str(inputs / "run"), "--threads", str(self.threads)]

    def items(self):
        return N_METHODS * _sigmas(self.config) * self.config["trials"]

    def check(self, inputs, out, code, stdout):
        if code != 0:
            return f"exit code {code}"
        expected = f"replay audit passed: {self.items()} records verified"
        if expected not in stdout:
            return f"replay printed {stdout.strip()!r}, expected {expected!r}"
        return None

    def digest(self, inputs, out):
        return sha256(inputs / "run" / "records.csv")


class Bounds(Workload):
    def argv(self, inputs, out, seed):
        return ["bounds", "--config", str(inputs / "config.json"), "--seed", str(seed), "--out", str(out)]

    def items(self):
        return _sigmas(self.config)

    def check(self, inputs, out, code, stdout):
        if code != 0:
            return f"exit code {code}"
        path = out / "bounds.json"
        if not path.is_file():
            return "bounds.json was not written"
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
            per_sigma = report["per_sigma"]
            if len(per_sigma) != self.items():
                return f"bounds.json: {len(per_sigma)} shift strengths, expected {self.items()}"
            for entry in per_sigma:
                for key in ("w1_scores_measured", "w1_score_bound", "coverage_gap_measured", "coverage_gap_bound"):
                    if not (math.isfinite(entry[key]) and entry[key] >= 0.0):
                        return f"bounds.json: sigma {entry['sigma']}: {key} = {entry[key]}"
                floors = [entry["pseudo_coverage_lower"]] + [v for _, v in entry["relaxed_coverage_lower"]]
                if not all(0.0 <= v <= 1.0 for v in floors):
                    return f"bounds.json: sigma {entry['sigma']}: coverage floor outside [0, 1]"
                w1 = entry["per_class_w1_paired"]
                if len(w1) != N_CLASSES or not all(math.isfinite(v) and v >= 0.0 for v in w1):
                    return f"bounds.json: sigma {entry['sigma']}: per-class W1 {w1}"
        except (KeyError, TypeError, ValueError) as exc:
            return f"bounds.json: malformed report ({type(exc).__name__}: {exc})"
        return None

    def digest(self, inputs, out):
        return sha256(out / "bounds.json")


def build(size: str, nproc: int) -> dict[str, Workload]:
    """The workloads at ``size`` ("bench" or "tiny"); no call uses more threads than ``nproc``."""
    shape = SHAPES[size]
    return {
        "sweep": Sweep("sweep", "cell", min(2, nproc), shape["sweep"]),
        "replay": Replay("replay", "record", 1, shape["sweep"]),
        "bounds": Bounds("bounds", "sigma report", 1, shape["bounds"]),
    }
