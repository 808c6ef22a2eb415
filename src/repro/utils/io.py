"""File I/O helpers: atomic writes."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator


@contextmanager
def _atomic_target(path: str | Path, mode: str) -> Iterator[IO]:
    """A temp file beside ``path`` that is renamed over it on a clean exit.

    The temp file is flushed and fsynced before the one-step rename, so a
    crash at any point leaves the previous contents of ``path`` intact and
    never a truncated file; on any error the temp file is removed.
    """
    path = Path(path)
    handle, temp_name = tempfile.mkstemp(dir=path.parent,
                                         prefix=f".{path.name}.", suffix=".tmp")
    encoding = None if "b" in mode else "utf-8"
    try:
        with os.fdopen(handle, mode, encoding=encoding) as temp_file:
            yield temp_file
            temp_file.flush()
            os.fsync(temp_file.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to ``path`` atomically (write temp file, then rename).

    A crash mid-write never leaves a truncated file behind.
    """
    with _atomic_target(path, "w") as handle:
        handle.write(text)


def atomic_write_bytes(path: str | Path, chunks: Iterable[bytes]) -> int:
    """Write byte chunks to ``path`` atomically; returns the byte count."""
    count = 0
    with _atomic_target(path, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
            count += len(chunk)
    return count
