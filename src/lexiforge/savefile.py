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
as None, and its owner makes it again.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import BinaryIO, Callable, Iterable

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


def load(path: Path, magic: bytes, fmt: int, fits: Callable[[Key], bool]) -> tuple[Key, list] | None:
    """The key and the parts of the saved file at ``path``, each part read,
    checked and decoded before the next, if the file is a ``magic`` file of
    format ``fmt`` whose key ``fits``; else None."""
    try:
        with open(path, "rb") as fh:
            left = os.fstat(fh.fileno()).st_size - _HEADER.size
            *header, crc, size = _HEADER.unpack(fh.read(_HEADER.size))
            if header != [magic, fmt, marshal.version] or not fits((crc, size)):
                return None
            parts = []
            while left:
                length, part_crc = _RECORD.unpack(fh.read(_RECORD.size))
                left -= _RECORD.size + length
                if left < 0:  # a torn file, or a length no read may trust
                    return None
                data = fh.read(length)
                if zlib.crc32(data) != part_crc:
                    return None
                parts.append(marshal.loads(data))
                del data
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
