"""How every file the program keeps goes onto disk and comes back off.

Writers put the bytes in a temp file of their own beside the target
(``O_EXCL``, named ``<pid>-<n>.tmp``), so concurrent writers never share
one, a reader never sees a torn file, and a killed writer leaves only a
stray temp file, which no store counts or reads.  :func:`read_json` is
the one reader; each caller keeps its own error policy.

No store calls ``fsync``: each holds data that can be regenerated, and
crash-safe here means surviving a killed process, not a power loss.
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import suppress
from typing import Optional

#: Process-wide sequence for temp-file names.
_temp_seq = itertools.count()
#: Store files are a few hundred bytes; one read of this size takes a
#: whole one (a read that fills it is followed by more).
_READ_BYTES = 4096


def _temp_with(target: str, data: bytes, mode: int) -> str:
    """The name of a fresh temp file beside ``target`` holding ``data``
    (beside: ``os.replace`` and ``os.link`` must not cross a file
    system).  A taken name (another pid namespace on a shared volume, a
    crashed writer's leftover) is skipped, never reused."""
    directory = target[: target.rfind("/") + 1]     # "" for a bare name
    while True:
        tmp = f"{directory}{os.getpid()}-{next(_temp_seq)}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
            break
        except FileExistsError:
            pass
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
    return tmp


def atomic_write(path: os.PathLike | str, data: bytes,
                 mode: int = 0o666) -> None:
    """Replace ``path`` with ``data`` in one step (``mode`` as for
    ``os.open``, before the umask)."""
    target = os.fspath(path)
    tmp = _temp_with(target, data, mode)
    try:
        os.replace(tmp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_create(path: os.PathLike | str, data: bytes) -> bool:
    """Create ``path`` (mode 0600) holding ``data``, unless it exists:
    True when this call created it.  The temp file is linked, not
    renamed, into place, so of two racing creators exactly one wins."""
    target = os.fspath(path)
    tmp = _temp_with(target, data, 0o600)
    try:
        os.link(tmp, target)
        return True
    except FileExistsError:
        return False
    finally:
        with suppress(OSError):
            os.unlink(tmp)


def read_json(path: os.PathLike | str, schema: str) -> Optional[dict]:
    """The JSON object in ``path``; None only when there is no file.

    An unreadable file raises ``OSError``.  Bytes that are not UTF-8
    JSON raise ``UnicodeDecodeError`` / ``json.JSONDecodeError``, and a
    value that is not an object of ``schema`` a plain ``ValueError``
    saying which (all three are ``ValueError``).
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None
    try:
        data = os.read(fd, _READ_BYTES)
        if len(data) == _READ_BYTES:
            chunks = [data]
            while chunk := os.read(fd, 16 * _READ_BYTES):
                chunks.append(chunk)
            data = b"".join(chunks)
    finally:
        os.close(fd)
    doc = json.loads(data.decode())
    if type(doc) is not dict:
        raise ValueError(f"a JSON {type(doc).__name__}, not an object")
    if doc.get("schema") != schema:
        raise ValueError(f"schema={doc.get('schema')!r}")
    return doc
