"""Text output: the one formatter of report values, and atomic file writes.

Writers land complete files or nothing.
"""

from __future__ import annotations

import os
import stat
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


def _file_mode(path: str) -> int:
    """Permission bits for ``path``: those of the file it replaces, else what open() would give."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def atomic_write_text(path: str, text: str) -> None:
    # Write to a sibling temp file, then rename over the target. A crash
    # mid-write leaves the old file untouched. mkstemp creates the temp file
    # 0600, so it takes _file_mode's bits before the rename. An OSError names
    # the given path, not the temp file.
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, _file_mode(path))
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
