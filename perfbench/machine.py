"""What a run record says about the machine it ran on."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
from pathlib import Path

import numpy as np


def steal_ticks() -> int:
    """Cumulative CPU steal ticks of all cores (0 where /proc is absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def _git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="ascii").strip()
        return ref
    except OSError:
        return "unknown"


def fingerprint(root: Path) -> dict:
    usable = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
    }


def _peak_kib(pid: int | str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children."""
    own = _peak_kib("self") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = sum(_peak_kib(child.pid) for child in multiprocessing.active_children())
    return (own + children) / 1024.0
