"""Collect sets of benchmark runs and compare them.

    python3 bench/compare.py collect --workload suite --seeds 0-9 --out bench/out/suite-a.jsonl
    python3 bench/compare.py summary bench/out/suite-a.jsonl [bench/out/suite-b.jsonl]

``collect`` runs ``bench/run.py`` once per seed, one run at a time, and
appends each run's result line (with its seed, wall time and ``#`` info
lines) to the output file.  ``summary`` prints, per metric, the median and
the spread of one set (first to third quartile as a share of the median),
the metric's bound from ``BENCHMARK.json``, and, given a second set, how much
worse the second median is than the first, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args) -> int:
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as fh:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            record = {"workload": args.workload, "seed": seed, "trace": args.trace,
                      "wall_s": wall, "info": lines[:-1], "result": json.loads(lines[-1])}
            fh.write(json.dumps(record) + "\n")
            fh.flush()
            print(f"{args.workload} seed {seed}: {wall:.1f} s, "
                  f"{record['result']['failed']}/{record['result']['attempted']} failed")
    return 0


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def summary(args) -> int:
    spec = json.loads(SPEC.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(path) for path in args.sets]
    status = 0
    for path, runs in zip(args.sets, sets):
        shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
        print(f"{path}: {len(runs)} runs, failed/attempted {sorted(shares)}, "
              f"wall {statistics.median(r['wall_s'] for r in runs):.1f} s median")
        for r in runs:
            for name, metric in r["result"]["metrics"].items():
                if name not in declared or declared[name]["unit"] != metric["unit"]:
                    print(f"  seed {r['seed']}: metric {name} [{metric['unit']}] is not declared")
                    status = 1
    names = list(sets[0][0]["result"]["metrics"])
    print(f"{'metric':44s} {'median':>12s} {'spread':>8s} {'bound':>6s}" + (
        f" {'median 2':>12s} {'spread 2':>8s} {'worse':>8s}" if len(sets) > 1 else ""))
    for name in names:
        m = declared.get(name, {})
        bound = m.get("bound")
        row = []
        for runs in sets:
            row.append(spread([r["result"]["metrics"][name]["value"] for r in runs]))
        line = f"{name:44s} {row[0][0]:12.6g} {row[0][1]:8.2%} " + (
            f"{bound:6.2f}" if bound is not None else f"{'-':>6s}")
        if len(row) > 1:
            first, second = row[0][0], row[1][0]
            worse = (first - second) / first if m.get("better") == "higher" else (second - first) / first
            line += f" {second:12.6g} {row[1][1]:8.2%} {worse:8.2%}"
        if bound is not None and name != "setup_s" and row[0][1] > bound / 3:
            line += "  spread above a third of the bound"
        print(line)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", required=True, help="e.g. 0-9 or 0,3,5-7")
    c.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("sets", nargs="+")
    args = parser.parse_args()
    return collect(args) if args.command == "collect" else summary(args)


if __name__ == "__main__":
    sys.exit(main())
