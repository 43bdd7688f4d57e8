"""One crash-safe file writer for every on-disk store: a temp file of
the writer's own (``O_EXCL``, named by pid and sequence) replaces the
target whole, so concurrent writers never share one, a reader never sees
a torn file, and a killed writer leaves only a stray ``<pid>-<n>.tmp``."""

from __future__ import annotations

import itertools
import os

#: Process-wide sequence for temp-file names.
_temp_seq = itertools.count()


def atomic_write(path: os.PathLike | str, data: bytes,
                 mode: int = 0o666) -> None:
    """Replace ``path`` with ``data`` in one step (``mode`` as for
    ``os.open``, before the umask).  The temp file goes beside ``path``
    (``os.replace`` must not cross a file system); a taken name (another
    pid namespace on a shared volume, a crashed writer's leftover) is
    skipped, never reused."""
    target = os.fspath(path)
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
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
