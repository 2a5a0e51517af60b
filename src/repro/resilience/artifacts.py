"""Crash-consistent artifact writing (tempfile + fsync + rename).

Checkpoint journals are append-safe by construction, but every *other*
output a run leaves behind -- equivalence reports, benchmark JSON,
trace-derived metrics, rendered tables, VCD waveforms, grid caches --
used to be written in place: a kill mid-write left a torn file that
looks present but does not parse.  This module gives every non-journal
artifact the standard crash-consistency recipe:

1. write the full content to a temporary file *in the destination
   directory* (same filesystem, so the final rename is atomic);
2. flush and ``fsync`` the temporary file so the bytes are durable;
3. ``os.replace`` it over the destination (atomic on POSIX and
   Windows);
4. ``fsync`` the containing directory so the rename itself survives a
   power cut.

A crash at any instant therefore leaves either the complete old file or
the complete new file -- never a prefix.  The obvious costs (one extra
fsync pair per artifact) are irrelevant at artifact frequency.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Union

PathLike = Union[str, Path]


def default_cache_dir() -> Path:
    """Where cached artifacts (grid results, the compiled level kernel)
    live by default.

    ``REPRO_CACHE_DIR`` wins when set; otherwise the platform user
    cache (``$XDG_CACHE_HOME``/``~/.cache``) -- never the installed
    package tree, which may be read-only and is shared between
    projects.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def fsync_dir(path: PathLike) -> None:
    """Flush a directory's entry table to disk (best effort).

    Needed after creating, renaming, or deleting a file: the file's own
    fsync makes its *contents* durable, but the name-to-inode mapping
    lives in the directory.  Platforms that cannot open directories
    (Windows) are silently skipped -- the rename there is already as
    durable as the platform offers.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_open(path: PathLike, mode: str = "w") -> Iterator:
    """Open a temporary file that atomically becomes ``path`` on exit.

    The handle behaves like a normal file object opened with ``mode``
    (``"w"`` or ``"wb"``).  On clean exit the content is fsynced and
    renamed over ``path``; on an exception the temporary file is
    removed and the destination is left untouched.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_open supports 'w' and 'wb', not {mode!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                    prefix=path.name + ".", suffix=".tmp")
    tmp = Path(tmp_name)
    fh = os.fdopen(fd, mode)
    try:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
        fh.close()
        os.replace(tmp, path)
        fsync_dir(path.parent)
    except BaseException:
        if not fh.closed:
            fh.close()
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def atomic_write_bytes(path: PathLike, blob: bytes) -> None:
    """Atomically replace ``path`` with ``blob``."""
    with atomic_open(path, "wb") as fh:
        fh.write(blob)


def atomic_publish_bytes(path: PathLike, blob: bytes) -> bool:
    """Atomically create ``path`` with ``blob`` -- but never replace it.

    The write-once variant of :func:`atomic_write_bytes` for
    content-addressed objects, where the destination name *is* the
    content digest: once any writer has published the file, every other
    writer holds identical bytes, so losing the race is success.  The
    temporary file is linked to the destination with ``os.link`` (an
    O_EXCL-style create: it fails with ``EEXIST`` instead of replacing),
    which closes the window where two concurrent ``os.replace`` calls
    would re-expose a blob mid-read or bump its inode under a reader.

    Returns ``True`` when this call created the file, ``False`` when
    another writer got there first.  Filesystems without hard links
    fall back to the (still atomic, last-writer-wins) rename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                    prefix=path.name + ".", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        except OSError:
            # no hard links here (some network/FAT mounts): degrade to
            # the rename recipe -- atomic, identical content either way
            os.replace(tmp, path)
            tmp = None
        fsync_dir(path.parent)
        return True
    finally:
        if tmp is not None:
            try:
                tmp.unlink()
            except OSError:
                pass


def atomic_write_text(path: PathLike, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: PathLike, obj, indent: int = 2) -> None:
    """Atomically replace ``path`` with ``obj`` serialized as JSON."""
    atomic_write_text(path, json.dumps(obj, indent=indent, default=str)
                      + "\n")
