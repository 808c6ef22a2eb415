"""File I/O helpers: atomic writes and JSON-lines streams."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

from ..errors import DataError


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


def write_jsonl(path: str | Path, records: Iterable[dict[str, Any]]) -> int:
    """Write records as JSON lines atomically; returns the line count.

    Records are streamed to the temp file one line at a time (never
    materialising the whole payload in memory — a full net can be orders
    of magnitude larger than any single record).
    """
    count = 0
    with _atomic_target(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line number, record) pairs from a JSON-lines file.

    Raises:
        DataError: On non-UTF-8 text, malformed JSON or non-object lines,
            with the line number in the message.
    """
    with Path(path).open("rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as error:
                raise DataError(
                    f"line {line_number}: not UTF-8 text") from error
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise DataError(
                    f"line {line_number}: malformed JSON ({error.msg})") \
                    from error
            if not isinstance(record, dict):
                raise DataError(f"line {line_number}: expected a JSON object")
            yield line_number, record
