"""Benchmark harness plumbing.

Each benchmark regenerates one table/figure of the paper (see DESIGN.md's
per-experiment index), asserts its *shape* (who wins, roughly by how
much), and registers a formatted report.  Reports are printed in the
terminal summary (bypassing capture) and written to
``benchmarks/reports/`` — or, in smoke mode, to the untracked
``benchmarks/reports/smoke/``, so a smoke run never rewrites the
full-scale reports kept in the repository.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.config import RunScale
from repro.experiments.common import build_experiment_world

_REPORTS: list[tuple[str, str]] = []

#: Smoke mode (``REPRO_BENCH_SMOKE=1``): CI runs selected benchmarks at a
#: reduced scale to validate the harness end to end in seconds.  Shape
#: assertions with tight margins relax their thresholds under smoke —
#: timings at toy sizes are dominated by constant factors.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

_REPORT_DIR = Path(__file__).parent / "reports"
if SMOKE:
    _REPORT_DIR = _REPORT_DIR / "smoke"

#: Benchmark scale: item/corpus sizes between TINY and SMALL, tuned so the
#: whole suite finishes in minutes while every shape is stable.
BENCH_SCALE = RunScale(name="bench-lite", n_items=250, n_queries=400,
                       n_reviews=200, n_guides=80, embedding_dim=16,
                       hidden_dim=16, epochs=4, seed=7)
if SMOKE:
    BENCH_SCALE = RunScale(name="bench-smoke", n_items=140, n_queries=180,
                           n_reviews=90, n_guides=40, embedding_dim=16,
                           hidden_dim=16, epochs=2, seed=7)


@pytest.fixture(scope="session")
def ew():
    """The shared experiment world (built once per benchmark session).

    embedding_epochs=8: the SGNS vectors must be well-trained at this
    corpus size or every embedding-based experiment (Fig 9, Table 3)
    under-performs for the wrong reason.
    """
    return build_experiment_world(BENCH_SCALE, n_concepts=110,
                                  embedding_epochs=8)


@pytest.fixture
def report(request):
    """Register a report for the terminal summary and the reports dir."""

    def _add(text: str) -> None:
        _REPORTS.append((request.node.name, text))
        _REPORT_DIR.mkdir(parents=True, exist_ok=True)
        path = _REPORT_DIR / f"{request.node.name}.txt"
        path.write_text(text + "\n", encoding="utf-8")

    return _add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name, text in _REPORTS:
        terminalreporter.write_sep("=", name)
        terminalreporter.write_line(text)
