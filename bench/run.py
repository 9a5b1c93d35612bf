"""cliptrack benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload suite --seed 0 --seconds 25 --trace 0

Builds the workload's inputs from the seed three times (set-up), then repeats
whole rounds of operations until ``--seconds`` have passed (at least two
rounds).  A round trains the summarizer for the workload's number of SGD
steps, tracks every scene with every tracking cell through ``cliptrack
track``, scores each output with ``cliptrack eval`` and scores the ground truth
against itself.  Every output is checked apart from the program (checks.py);
an operation that raises, exits non-zero or fails a check counts as failed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced.  With ``--trace 1`` the first
round runs untraced, later rounds record spans around the program's functions
(spans.py), the per-layer metrics are the medians over traced rounds, and the
spans are written to ``bench/out/trace-<workload>-seed<seed>.jsonl``.
"""

import os

# One BLAS thread: each workload is one single-threaded process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def load_program() -> bool:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    init = SRC / "cliptrack" / "__init__.py"
    if not init.is_file():
        print(f"error: the program's sources are missing ({init} not found)", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import cliptrack

    if Path(cliptrack.__file__).resolve() != init.resolve():
        print(f"error: imported cliptrack from {cliptrack.__file__}, not {init}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not load_program():
        return 2
    from harness import run_benchmark

    return run_benchmark(args, OUT)


if __name__ == "__main__":
    sys.exit(main())
