"""File I/O helpers: atomic writes."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable


def atomic_write_bytes(path: str | Path, chunks: Iterable[bytes]) -> int:
    """Write byte chunks to ``path`` atomically; returns the byte count.

    The chunks go to a temp file beside ``path``, which is flushed and
    fsynced before a one-step rename over it, so a crash at any point
    leaves the previous contents of ``path`` intact and never a truncated
    file; on any error the temp file is removed.
    """
    path = Path(path)
    handle, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    count = 0
    try:
        with os.fdopen(handle, "wb") as temp_file:
            for chunk in chunks:
                temp_file.write(chunk)
                count += len(chunk)
            temp_file.flush()
            os.fsync(temp_file.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return count
