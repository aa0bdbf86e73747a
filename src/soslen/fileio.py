"""Canonical JSON text and whole-file writes that a crash cannot leave
half done."""

from __future__ import annotations

import json
import os
import sys

_encode = json.JSONEncoder(separators=(",", ":")).encode  # one scalar, by json's C encoder
_SLICE = 1 << 16  # characters encoded at a time by write_atomic


def canonical_pieces(obj, end="\n"):
    """Yield ``canonical_json(obj)`` in pieces, ``end`` last: dicts (string
    keys, sorted) and lists are opened and separated here and each scalar is
    encoded by json, so no piece is longer than one scalar's text."""
    if isinstance(obj, dict):
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "") + _encode(key) + ":"
            yield from canonical_pieces(obj[key], "")
        yield "}" + end
    elif isinstance(obj, (list, tuple)):
        yield "["
        for i, x in enumerate(obj):
            yield from canonical_pieces(x, "," if i < len(obj) - 1 else "")
        yield "]" + end
    else:
        yield _encode(obj) + end


def canonical_json(obj) -> str:
    """One line of JSON with sorted keys and no spaces, so equal values give
    equal bytes: the text of certificates, representation files, cache
    records and cache keys."""
    return "".join(canonical_pieces(obj))


def _is_stdout(path) -> bool:
    """Whether ``path`` is the file open on stdout; False when stdout has no
    file descriptor (a captured stream)."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):
        return False


def _write_pieces(fh, pieces) -> None:
    """Write the pieces to ``fh``, a long one ``_SLICE`` characters at a time."""
    for piece in pieces:
        for i in range(0, len(piece), _SLICE):
            fh.write(piece[i : i + _SLICE])


def write_atomic(path, text) -> None:
    """Write ``text``, a str or an iterable of str pieces (``canonical_pieces``),
    to ``path`` through a temporary file beside it.

    The temporary file replaces ``path`` (``os.replace``) only once it is
    complete, so a reader sees the old file or the new one, never a part,
    even if the process dies mid-write or the pieces raise; on any failure
    the temporary file is removed.  Encoding and permissions are those
    ``Path.write_text`` gives a new file.  There is no fsync: the guarantee
    covers a crashed process, not a lost machine.  A symlink is written
    through, and a device or pipe (``/dev/stdout``) is written directly.
    Stdout's own file, even a regular one, is written through ``sys.stdout``.
    """
    pieces = [text] if isinstance(text, str) else text
    if _is_stdout(path):  # replacing a redirect target would cut stdout off
        _write_pieces(sys.stdout, pieces)
        sys.stdout.flush()
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            _write_pieces(fh, pieces)
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x") as fh:
            _write_pieces(fh, pieces)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise
