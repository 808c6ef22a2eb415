"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cluster_tail --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric of a separate traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The lines before it are a
readable table and a ``record:`` line with the machine fingerprint.

The benchmark imports the program from ``src/`` next to this directory
and refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))


def _leaks(scratch: Path) -> int:
    """Stop leftover child processes and count them, with every entry
    left in the scratch directory; each is a failed operation."""
    leaked = 0
    for child in multiprocessing.active_children():
        leaked += 1
        child.terminate()
        child.join(timeout=10)
    leftovers = list(scratch.iterdir()) if scratch.exists() else []
    return leaked + len(leftovers)


def _terminate(signum: int, frame: object) -> None:
    """A TERM signal unwinds like an exit, so the clean-up still runs."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans-out", help="traced run: also write every span as JSON lines here"
    )
    args = parser.parse_args(argv)
    _import_program()

    import layers
    from machine import fingerprint, steal_ticks
    from spans import Tracer
    from system import FULL
    from workloads import END_TO_END, WORKLOADS, run, run_traced

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Temporary files (snapshots, worker directories) stay in the
    # checkout, in a directory of this run that must be empty at the end.
    signal.signal(signal.SIGTERM, _terminate)
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)
    steal = steal_ticks()
    began = perf_counter()
    try:
        if args.trace:
            tracer = Tracer()
            outcome = run_traced(args.workload, args.seed, args.seconds, FULL, tracer)
            if args.spans_out:
                tracer.write(args.spans_out)
            units = layers.LAYER_METRICS
        else:
            outcome = run(args.workload, args.seed, args.seconds, FULL)
            units = END_TO_END
    finally:
        leaks = _leaks(scratch)
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    failed = outcome.failed + leaks
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": perf_counter() - began,
        "steal_ticks": steal_ticks() - steal,
        "leaks": leaks,
        "machine": fingerprint(ROOT),
        **outcome.details,
    }
    width = max(len(name) for name in units)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:<{width}}  {outcome.metrics[name]:>14.6g} {unit}")
    print(f"  attempted {outcome.attempted}, failed {failed}")
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
