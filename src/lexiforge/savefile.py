"""Saved files: what a run parsed or built from a source file, saved beside
it so that later runs load it instead of doing that work again. The local
index beside its document collection and the snapshot beside a response
cache, with the lexical-world counts of its snippets, are saved files.

A saved file is a header, then one record per part: the part's length, its
CRC-32 and its ``marshal`` bytes. marshal, unlike pickle, runs no code on
load. The header names the kind of file, its format and the marshal
version, and holds a key: the CRC-32 and length of the source bytes the
parts were made from. Like a stale ``.pyc``, a saved file that is missing,
of another kind or format, stale, torn or corrupt is not an error: it loads
as None, and its owner makes it again. A load may leave the last parts
undecoded, checked like the others, for its owner to decode when it needs
them (``Deferred``).
"""

from __future__ import annotations

import contextlib
import marshal
import os
import struct
import threading
import weakref
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable

Key = tuple[int, int]  # CRC-32 and length of source bytes

_HEADER = struct.Struct("<16sIIIQ")  # magic, format, marshal version, key
_RECORD = struct.Struct("<QI")  # length and CRC-32 of one part
_CHUNK = 1 << 20


def key_of(fh: BinaryIO, limit: int = -1) -> Key:
    """The key of the next ``limit`` bytes of ``fh``, or of the rest of it
    when ``limit`` is negative; of fewer bytes if the file ends first."""
    crc = size = 0
    while size != limit:
        chunk = fh.read(_CHUNK if limit < 0 else min(_CHUNK, limit - size))
        if not chunk:
            break
        crc = zlib.crc32(chunk, crc)
        size += len(chunk)
    return crc, size


class Deferred:
    """The parts that ``load`` checked and left undecoded. They are read
    from the file ``load`` opened, which stays open until ``decode``, so
    that a file replaced or deleted since still serves them."""

    def __init__(self, fh: BinaryIO, records: list[tuple[int, int, int]]):
        self._fd = os.dup(fh.fileno())
        self._close = weakref.finalize(self, os.close, self._fd)
        self._records = records  # offset, length and CRC-32 of each part

    def decode(self) -> list:
        """The parts, each read, checked and decoded; ValueError if the file
        changed in place since ``load``. Once only: the file is closed once
        the parts are decoded."""
        parts = []
        for offset, length, crc in self._records:
            data = os.pread(self._fd, length, offset)
            if zlib.crc32(data) != crc or len(data) != length:
                raise ValueError("saved file changed since it was loaded")
            parts.append(marshal.loads(data))
            del data
        self._close()
        return parts


def load(
    path: Path, magic: bytes, fmt: int, fits: Callable[[Key], bool], eager: Callable[[Any], int] | None = None
) -> tuple[Key, list] | None:
    """The key and the parts of the saved file at ``path``, each part read,
    checked and decoded before the next, if the file is a ``magic`` file of
    format ``fmt`` whose key ``fits``; else None. With ``eager``, a function
    of the first part, only that many parts are decoded, the first
    included: the rest are read and checked alike, and come last in the
    list as one ``Deferred``; a file without parts then loads as None."""
    try:
        with open(path, "rb") as fh:
            left = os.fstat(fh.fileno()).st_size - _HEADER.size
            *header, crc, size = _HEADER.unpack(fh.read(_HEADER.size))
            if header != [magic, fmt, marshal.version] or not fits((crc, size)):
                return None
            parts, deferred, decoded = [], [], None
            while left:
                length, part_crc = _RECORD.unpack(fh.read(_RECORD.size))
                left -= _RECORD.size + length
                if left < 0:  # a torn file, or a length no read may trust
                    return None
                offset = fh.tell()
                data = fh.read(length)
                if zlib.crc32(data) != part_crc:
                    return None
                if decoded is None or len(parts) < decoded:
                    parts.append(marshal.loads(data))
                    if decoded is None and eager is not None:
                        decoded = eager(parts[0])
                else:
                    deferred.append((offset, length, part_crc))
                del data
            if eager is not None:
                if decoded is None:  # no first part to decide by
                    return None
                parts.append(Deferred(fh, deferred))
            return (crc, size), parts
    except (OSError, struct.error, EOFError, ValueError, TypeError):
        return None


def save(path: Path, magic: bytes, fmt: int, key: Key, parts: Iterable) -> None:
    """Write ``parts``, each marshalled and written before the next, under a
    unique temporary name, then move it over ``path``. A directory that
    refuses the write keeps no file."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(_HEADER.pack(magic, fmt, marshal.version, *key))
            for part in parts:
                data = marshal.dumps(part)
                fh.write(_RECORD.pack(len(data), zlib.crc32(data)))
                fh.write(data)
                del data
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
