"""Saved files: what a run parsed or built from a source file, saved beside
it so that later runs load it instead of doing that work again. ``parsed``
serves every input file: the index of a document collection, and the
tables of a dictionary or tagger lexicon. The response cache saves its
snapshot, with the lexical-world counts of its snippets, through ``load``.

A saved file is a header, then one record per part: the part's length, its
CRC-32 and its ``marshal`` bytes. marshal, unlike pickle, runs no code on
load. Each kind of file has a fixed number of parts. The header holds a
16-byte magic naming the kind of file, the format, the marshal version and
a key: the CRC-32 and length of the source bytes the parts were made from.
Like a stale ``.pyc``, a saved file that is missing, of another kind or
format, stale, torn, corrupt or of another number of parts is not an error:
it loads as None, and its owner makes it again. Since the key pins the
source bytes, a part may point into them instead of copying them: the cache
snapshot holds the offset, length and CRC-32 of the lines that hold the
snippet texts of either kind, not the texts.
"""

from __future__ import annotations

import contextlib
import io
import marshal
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

from .config import open_utf8

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


def load(path: Path, magic: bytes, fmt: int, n_parts: int, fits: Callable[[Key], bool]) -> tuple[Key, list] | None:
    """The key and the ``n_parts`` parts of the saved file at ``path``,
    each part read, checked and decoded before the next, if the file is a
    ``magic`` file of format ``fmt`` whose key ``fits`` and which holds
    exactly ``n_parts`` parts; else None."""
    if len(magic) != 16:  # the header would pad it, and no load would match
        raise ValueError(f"a magic of {len(magic)} bytes, not 16")
    try:
        with open(path, "rb") as fh:
            left = os.fstat(fh.fileno()).st_size - _HEADER.size
            *header, crc, size = _HEADER.unpack(fh.read(_HEADER.size))
            if header != [magic, fmt, marshal.version] or not fits((crc, size)):
                return None
            parts = []
            for _ in range(n_parts):
                length, part_crc = _RECORD.unpack(fh.read(_RECORD.size))
                left -= _RECORD.size + length
                if left < 0:  # a torn file, or a length no read may trust
                    return None
                data = fh.read(length)
                if zlib.crc32(data) != part_crc:
                    return None
                parts.append(marshal.loads(data))
                del data
            return None if left else ((crc, size), parts)
    except (OSError, struct.error, EOFError, ValueError, TypeError):
        return None


@contextlib.contextmanager
def replacing(path: Path) -> Iterator[Path]:
    """A temporary name beside ``path``: moved over ``path`` if the block
    raises nothing, gone once it ends. A pipe or device is written through."""
    if path.exists() and not path.is_file():
        yield path
        return
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        yield tmp
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def save(path: Path, magic: bytes, fmt: int, key: Key, parts: Iterable) -> None:
    """Write ``parts``, each marshalled and written before the next, and
    replace ``path`` with them. A directory that refuses the write keeps no
    file."""
    if len(magic) != 16:
        raise ValueError(f"a magic of {len(magic)} bytes, not 16")
    with contextlib.suppress(OSError), replacing(path) as tmp, open(tmp, "xb") as fh:
        fh.write(_HEADER.pack(magic, fmt, marshal.version, *key))
        for part in parts:
            data = marshal.dumps(part)
            fh.write(_RECORD.pack(len(data), zlib.crc32(data)))
            fh.write(data)
            del data


class _SummedFile(io.FileIO):
    """A file read in binary, summing up what was read: CRC-32 and length."""

    crc = size = 0

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        if n:
            self.crc = zlib.crc32(memoryview(buffer)[:n], self.crc)
            self.size += n
        return n


def parsed(path: str | Path, suffix: str, magic: bytes, fmt: int, n_parts: int, parse: Callable[[TextIO], Sequence]) -> Sequence:
    """The ``n_parts`` parts that ``parse`` makes of the UTF-8 file at
    ``path``, streamed as text. A regular file loads them from
    ``<path><suffix>`` if saved from its present bytes, else saves them
    there, keyed on exactly the bytes parsed. Any other file is parsed."""
    saved_path, regular = Path(f"{path}{suffix}"), Path(path).is_file()
    if regular:
        def fits(key: Key) -> bool:
            with open(path, "rb") as fh:
                return key == key_of(fh)

        saved = load(saved_path, magic, fmt, n_parts, fits)
        if saved:
            return saved[1]
    raw = _SummedFile(path)
    with open_utf8(path, io.BufferedReader(raw)) as fh:
        parts = parse(fh)
    if regular:
        save(saved_path, magic, fmt, (raw.crc, raw.size), parts)
    return parts
