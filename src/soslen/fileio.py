"""Canonical JSON text and whole-file writes that a crash cannot leave
half done."""

from __future__ import annotations

import json
import os
import sys


def canonical_json(obj) -> str:
    """One line of JSON with sorted keys and no spaces, so equal values give
    equal bytes: the text of certificates, representation files, cache
    records and cache keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _is_stdout(path) -> bool:
    """Whether ``path`` is the file open on stdout; False when stdout has no
    file descriptor (a captured stream)."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):
        return False


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it.

    The temporary file replaces ``path`` (``os.replace``) only once it is
    complete, so a reader sees the old file or the new one, never a part,
    even if the process dies mid-write; on any failure the temporary file
    is removed.  Encoding and permissions are those ``Path.write_text``
    gives a new file.  There is no fsync: the guarantee covers a crashed
    process, not a lost machine.  A symlink is written through, and a
    device or pipe (``/dev/stdout``) is written directly.  Stdout's own file,
    even a regular one, is written through ``sys.stdout``.
    """
    if _is_stdout(path):  # replacing a redirect target would cut stdout off
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.write(text)
        return
    path = os.path.realpath(path)
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
