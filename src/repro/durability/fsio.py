"""Fsync-discipline file primitives for the durability layer.

Every byte the durability subsystem puts on disk flows through this
module: ``repro check`` (SA410) bans direct ``os.*`` / ``open()`` calls
in the rest of ``src/repro/durability/`` so the write/fsync/rename
ordering that crash recovery depends on lives in exactly one reviewable
place.

The contract each helper provides:

* :func:`write_bytes` writes and flushes to the OS but does **not**
  make the data durable — callers must follow with :func:`fsync_path`
  (or accept loss on power failure);
* :func:`replace` is POSIX-atomic rename; pairing it with
  :func:`fsync_dir` on the parent makes the *name change itself*
  durable (rename without a directory fsync can be lost);
* :func:`fsync_file` / :func:`fsync_path` force file contents (and
  size) to stable storage.
"""

from __future__ import annotations

import os
import pathlib

__all__ = [
    "ensure_dir", "exists", "file_size", "read_bytes", "write_bytes",
    "open_append", "fsync_file", "fsync_path", "fsync_dir", "replace",
    "truncate", "ReadHandle",
]


def ensure_dir(path) -> None:
    os.makedirs(os.fspath(path), exist_ok=True)


def exists(path) -> bool:
    return os.path.exists(os.fspath(path))


def file_size(path) -> int:
    return os.stat(os.fspath(path)).st_size


def read_bytes(path) -> bytes:
    with open(os.fspath(path), "rb") as handle:
        return handle.read()


def write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` (truncating), flushed but NOT fsynced."""
    with open(os.fspath(path), "wb") as handle:
        handle.write(data)
        handle.flush()


def open_append(path):
    """An unbuffered append-mode handle (the WAL's long-lived handle):
    a write that fails leaves no bytes behind in a user-space buffer
    to reach the file later."""
    return open(os.fspath(path), "ab", buffering=0)


def fsync_file(handle) -> None:
    """Force a handle's written data to stable storage."""
    handle.flush()
    os.fsync(handle.fileno())


def fsync_path(path) -> None:
    """fsync a closed file by path (used after temp-file writes)."""
    descriptor = os.open(os.fspath(path), os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def fsync_dir(path) -> None:
    """fsync a directory so a rename inside it survives power loss."""
    descriptor = os.open(os.fspath(path), os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def replace(source, destination) -> None:
    """Atomic rename: readers see the old file or the new, never a mix."""
    os.replace(os.fspath(source), os.fspath(destination))


def truncate(path, size: int) -> None:
    os.truncate(os.fspath(path), size)


def parent_dir(path) -> pathlib.Path:
    return pathlib.Path(os.fspath(path)).resolve().parent


class ReadHandle:
    """A read-only descriptor for ``pread``; it keeps reading its file
    after a rename over the path, until its last holder lets go."""

    __slots__ = ("path", "_descriptor")

    def __init__(self, path):
        self.path = os.fspath(path)
        self._descriptor = os.open(self.path, os.O_RDONLY)

    def pread(self, offset: int, length: int) -> bytes:
        return os.pread(self._descriptor, length, offset)

    def __del__(self):
        if hasattr(self, "_descriptor"):  # the open may have failed
            os.close(self._descriptor)
