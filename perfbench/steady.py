"""Run one workload K times on the same code and report how steady it is.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload cluster_tail --runs 10

Each run is ``perfbench/run.py`` in its own process, one after another,
seeds ``first-seed .. first-seed + runs - 1``.  For every end-to-end
metric it prints the median, the quartiles, the quartile spread and
(max - min) / median, and flags a metric whose runs do not repeat within
a tenth, or whose quartile spread is a third or more of its bound in
``BENCHMARK.json``.  Each run's ``record:`` line (machine fingerprint
and CPU steal included) and result line are printed as it finishes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A metric whose runs spread more than this share of its median is
#: flagged as not repeating.
REPEAT_WITHIN = 0.10


def _run(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = completed.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("record: "):
            print(line)
    print("result: " + lines[-1], flush=True)
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}

    results = [
        _run(args.workload, args.first_seed + offset, seconds)
        for offset in range(args.runs)
    ]
    failed = sum(result["failed"] for result in results)
    print(
        f"{args.workload}: {args.runs} runs of {seconds:g} s, "
        f"{sum(result['attempted'] for result in results)} attempted, "
        f"{failed} failed"
    )
    print(
        f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}"
    )
    unsteady = 0
    for name, bound in bounds.items():
        values = [result["metrics"][name]["value"] for result in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        span = (max(values) - min(values)) / median if median else 0.0
        flags = []
        if span > REPEAT_WITHIN:
            flags.append("does not repeat within a tenth")
        if spread >= bound / 3:
            flags.append("quartile spread >= bound/3")
        unsteady += bool(flags)
        print(
            f"  {name:<18} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
            f"{spread:>8.4f} {span:>8.4f} {bound:>6.2f}  {'; '.join(flags)}"
        )
    return 1 if unsteady or failed else 0


if __name__ == "__main__":
    sys.exit(main())
