"""Put the benchmark's modules and the program's sources on the path.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]


@pytest.fixture(scope="session")
def smoke_setup():
    """One smoke-scale set-up of a single service, shared read-only."""
    from system import SMOKE, setup

    return setup(SMOKE, "service")
