"""Whole-file writes that a crash cannot leave half done."""

from __future__ import annotations

import os


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it.

    The temporary file replaces ``path`` (``os.replace``) only once it is
    complete, so a reader sees the old file or the new one, never a part,
    even if the process dies mid-write; on any failure the temporary file
    is removed.  Encoding and permissions are those ``Path.write_text``
    gives a new file.  There is no fsync: the guarantee covers a crashed
    process, not a lost machine.  A symlink is written through, and a
    device or pipe (``/dev/stdout``) is written directly.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.write(text)
        return
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise
