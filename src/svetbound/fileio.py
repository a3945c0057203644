"""Text output: the one formatter of report values, and atomic file writes.

Writers land complete files or nothing.
"""

from __future__ import annotations

import os
import tempfile


def format_value(value) -> str:
    """Text form of a report value: floats to 16 digits, flags, none, vectors, x=.. y=.. z=.."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (str, int)):
        return str(value)
    if isinstance(value, dict):
        return " ".join(f"{key}={format_value(v)}" for key, v in value.items())
    if isinstance(value, (list, tuple)):
        return " ".join(format_value(v) for v in value)
    return format(value, ".15e")


def atomic_write_text(path: str, text: str) -> None:
    # Write to a sibling temp file, then rename over the target. A crash
    # mid-write leaves the old file untouched. An OSError names the given
    # path, not the temp file.
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
