"""Set-up phase of one benchmark run: write a workload's inputs into a directory.

``run.py`` starts this script in a fresh interpreter for each set-up it
times, so the measured set-up covers interpreter start, imports and input
generation. Run it from the repository root:

    PYTHONPATH=src python3 perfbench/setup_inputs.py --workload replay --seed 1 --dir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--size", default="bench", choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args(argv)
    # Import the program even where generation does not need it: set-up time
    # covers the program's import cost on every workload.
    import shiftcp.cli  # noqa: F401
    # Inputs do not depend on the thread count, so any nproc builds them.
    workload = workloads.build(args.size, nproc=1)[args.workload]
    args.dir.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        workload.generate(args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
