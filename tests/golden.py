"""The pinned output bytes of ``golden.json``, and the kernel a mismatch reports.

Each case of ``golden.json`` runs one subcommand at a config and a seed, at
each of its worker counts, and pins the sha256 of the files it names. A
worker count ``w`` is the usable core count the run sees and, where the
subcommand takes it, its ``--threads``. ``config`` is a dict of overrides, or
the path of a config file relative to the repository root. ``pinned_under``
names the numpy version and the OpenBLAS core the digests were taken under:
the fitted weights' last bits, and so every full-precision JSON output,
depend on which BLAS kernel runs.
"""

import ctypes
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))
CASES = GOLDEN["cases"]


def params() -> list:
    """One pytest param per (case, worker count); the one-worker run is named by the case alone."""
    return [
        pytest.param(name, w, id=name if w == 1 else f"{name}-threads{w}")
        for name, case in CASES.items()
        for w in case["workers"]
    ]


def config_path(case: dict, directory: Path) -> Path:
    """The case's config file: the repository file it names, or its overrides written into ``directory``."""
    if isinstance(case["config"], str):
        return ROOT / case["config"]
    path = directory / "config.json"
    path.write_text(json.dumps(case["config"]), encoding="utf-8")
    return path


def openblas_core() -> str:
    """The core name numpy's bundled OpenBLAS chose on this machine, or ``unknown``."""
    try:
        (lib,) = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    except (ValueError, OSError, AttributeError):  # no single bundled library, or no such symbol
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def mismatch(name: str, workers: int, got: dict, want: dict) -> str:
    """Failure message for ``got != want``: each differing file, and this run's kernel next to the pinned one."""
    pinned = GOLDEN["pinned_under"]
    lines = [f"{file}: sha256 {got.get(file)}, pinned {digest}" for file, digest in want.items() if got.get(file) != digest]
    return "\n".join([
        f"golden case {name!r} at {workers} worker(s) wrote other bytes:",
        *lines,
        f"this run: numpy {np.__version__}, OpenBLAS core {openblas_core()}; "
        f"pinned under numpy {pinned['numpy']}, OpenBLAS core {pinned['openblas_core']}",
    ])
