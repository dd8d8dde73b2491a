"""Search oracle: one interface for hit counts, snippets, pair-document
counts and language-restricted "mixed" snippets, in front of a persistent
response cache.

Every response is cached under the canonical form of its query, so a warm
cache makes a whole pipeline run deterministic and fully offline. A query
string may be a single exact phrase or an OR-disjunction of quoted phrases
(``"the snare drum" OR "a snare drum"``); backends return the engine count
for the disjunction.
"""

from __future__ import annotations

import enum
import fcntl
import json
import logging
import os
import queue
import sys
import threading
import weakref
import zlib
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Protocol

from . import savefile
from .config import RunConfig

log = logging.getLogger(__name__)


class OracleError(RuntimeError):
    """Backend unavailable and no cached response; safe to retry later."""


class QueryKind(enum.Enum):
    PHRASE_COUNT = "PHRASE_COUNT"
    SNIPPETS = "SNIPPETS"
    PAIR_COUNT = "PAIR_COUNT"
    MIXED_SNIPPETS = "MIXED_SNIPPETS"


@dataclass(frozen=True)
class OracleQuery:
    kind: QueryKind
    phrases: tuple[str, ...]
    lang_restrict: str | None = None
    limit: int | None = None

    def __post_init__(self):
        expected = 2 if self.kind is QueryKind.PAIR_COUNT else 1
        if len(self.phrases) != expected:
            raise ValueError(f"{self.kind.value} takes {expected} phrase(s)")
        if not all(self.phrases):
            raise ValueError("empty phrase")
        fields = "".join((*self.phrases, self.lang_restrict or ""))
        if "\t" in fields or "\r" in fields or "\n" in fields:  # they would split the cache record
            raise ValueError("a phrase or language holds a tab or a line break")
        if self.kind is QueryKind.MIXED_SNIPPETS and not self.lang_restrict:
            raise ValueError("MIXED_SNIPPETS requires lang_restrict")
        if self.kind in (QueryKind.SNIPPETS, QueryKind.MIXED_SNIPPETS):
            if self.limit is None or self.limit < 1:
                raise ValueError("snippet queries require limit >= 1")

    def cache_key(self) -> str:
        """The first five fields of its cache record, tab-separated: kind, the phrases
        sorted (the second empty for one), language and limit (``-`` where absent)."""
        p1, p2 = sorted(self.phrases) if len(self.phrases) > 1 else (self.phrases[0], "")
        return f"{self.kind.value}\t{p1}\t{p2}\t{self.lang_restrict or '-'}\t{'-' if self.limit is None else self.limit}"


def or_query(phrases: Iterable[str]) -> str:
    """The OR-query of exact phrases: each quoted, joined by `` OR ``."""
    return " OR ".join(f'"{phrase}"' for phrase in phrases)


def split_or_query(query: str) -> list[str]:
    """Disjunct phrases of an OR-query; a plain phrase is its own disjunct."""
    parts = [p.strip() for p in query.split(" OR ")]
    phrases = []
    for part in parts:
        if len(part) >= 2 and part.startswith('"') and part.endswith('"'):
            part = part[1:-1]
        if part:
            phrases.append(part)
    return phrases


class Backend(Protocol):
    """A search engine: ``execute`` answers a count for the count kinds, and
    for the snippet kinds hits (``backends.Snippet``) whose ``text`` the oracle keeps."""

    def execute(self, query: OracleQuery) -> int | list: ...


def is_count(value: object) -> bool:
    """A hit count: a non-negative int that a float can hold, since the
    phases score with ``float(count)``; JSON ``true`` is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= sys.float_info.max


def is_answer(kind: QueryKind, value: object) -> bool:
    """Whether ``value`` has the shape ``kind`` asks for: a count for the
    count kinds, a list of non-empty snippet texts that UTF-8 can encode
    (no lone surrogate, say from a ``\\ud800`` escape) for the snippet kinds."""
    if kind in (QueryKind.PHRASE_COUNT, QueryKind.PAIR_COUNT):
        return is_count(value)
    if not (isinstance(value, list) and set(map(type, value)) <= {str} and all(value)):
        return False
    try:
        "".join(value).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


_JSON = json.JSONEncoder(ensure_ascii=False)  # json.dumps builds one per call


def _format_record(key: str, value: int | list[str]) -> str:
    """One cache file line, newline included, for a ``cache_key`` and its value."""
    return f"{key}\t{value if type(value) is int else _JSON.encode(value)}\n"


def _parse_record(line: bytes) -> tuple[str, int | list[str]]:
    """The ``cache_key`` and value of one cache file line; ValueError or
    TypeError unless it is a UTF-8 record whose payload fits its kind
    (``is_answer``): a snippet payload is a list of texts, never of pairs."""
    key, payload = line.decode("utf-8").rstrip("\r\n").rsplit("\t", 1)
    kind, p1, p2, lang, limit = key.split("\t")
    value = json.loads(payload)
    if not is_answer(QueryKind(kind), value):
        raise ValueError(f"payload is no {kind} answer")
    if p2 and p2 < p1:  # a pair written out of order
        key = f"{kind}\t{p2}\t{p1}\t{lang}\t{limit}"
    return key, value


# The snapshot beside a cache file (see ``savefile``), keyed on the bytes of
# the complete lines it covers, in two parts. The first holds the number of
# those lines, the line numbers of the corrupt records among them, the
# lexical-world counts of its SNIPPETS records (cache key, then a tagger's
# table CRC-32, then what that tagger's ``count`` returned for the record's
# texts), and where each snippet record, of either kind, is: the number of
# its texts, then the offset, length and CRC-32 of its line in the cache
# file. Their texts stay in that file, since a run with saved counts needs
# only their number, and a run reads the others when it asks for them. The
# second part holds the count records. Each table is keyed by ``cache_key``.
_SNAPSHOT_MAGIC = b"lexiforge-cache\n"
_SNAPSHOT_FORMAT = 8  # bump when the parts, their keys, which records ``_load`` keeps, or what ``count`` returns change


class _CacheFile:
    """The cache file a load from the snapshot checked, open on a duplicate
    descriptor while an entry it serves is left, so that a file replaced or
    deleted since still serves them."""

    def __init__(self, fh: BinaryIO):
        self._fd = os.dup(fh.fileno())
        weakref.finalize(self, os.close, self._fd)
        self.name = fh.name
        self.lock = threading.Lock()

    def texts(self, offset: int, length: int, crc: int) -> list[str]:
        """The texts of the snippet line at ``offset``, read, checked and
        parsed as the load parses it; OracleError if the line changed in
        place since the load, which no lexiforge write does."""
        try:
            line = os.pread(self._fd, length, offset)
            if len(line) != length or zlib.crc32(line) != crc:
                raise ValueError("changed since it was loaded")
            return _parse_record(line)[1]
        except (OSError, ValueError, TypeError) as exc:
            raise OracleError(f"{self.name}: line at byte {offset}: {exc}") from None


class _Texts(Sequence):
    """A snippet record a load covered, equal to the list of its texts. It
    holds its ``line`` (the number of its texts, then the offset, length and
    CRC-32 of its line in the cache file), its texts, which a load from the
    snapshot leaves in the file until the first item access, and its
    lexical-world ``counts`` by tagger table (see ``ResponseCache.counts``)."""

    __slots__ = ("_file", "line", "_texts", "counts")

    def __init__(self, line: tuple[int, int, int, int], texts: list[str] | None, file: _CacheFile | None = None,
                 counts: dict[int, dict[tuple[str, str], int]] | None = None):
        self.line, self._texts, self._file, self.counts = line, texts, file, counts

    def __len__(self) -> int:
        return self.line[0]

    def _list(self) -> list[str]:
        if self._texts is None:
            with self._file.lock:  # so that workers asking at once read it once
                if self._texts is None:
                    self._texts = self._file.texts(*self.line[1:])
        return self._texts

    def __getitem__(self, index):
        return self._list()[index]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other):
        other = other._list() if isinstance(other, _Texts) else other
        return self._list() == other if isinstance(other, list) else NotImplemented

    __hash__ = None


class ResponseCache:
    """Append-only response cache, one record per line, last write wins.

    Record layout: kind, phrase1, phrase2 (empty when absent), language,
    limit, then the JSON payload (a count or a list of snippet texts), all
    tab-separated; the first five are the ``cache_key`` that keys the
    entries. Corrupt lines, and records whose payload does not fit their
    kind, are skipped with a warning so the query can simply be re-issued.

    The file is opened for appending once, on the first ``put``, and
    flushed after every record, so a crash loses at most the record being
    written. A torn last line left by such a crash is skipped, and closed
    off with a tab and a newline before the first append, so it cannot
    swallow the next record, nor parse as one on a later load. A line of
    that tab alone, left where the last byte was another writer's record in
    flight, is skipped like a blank line. The append handle holds a shared
    ``flock`` until ``close``, so that ``compact`` never replaces the file
    under a writer.

    The entries are one table, by ``cache_key``: a count record holds its
    count, and a snippet record the load covered, SNIPPETS or
    MIXED_SNIPPETS, is a read-only sequence equal to its list of texts
    (``_Texts``) that also holds where its line is and its lexical-world
    counts (see ``counts``). A ``put`` holds the list it was given. What a
    load checked, and those records, are saved beside the file as
    ``<path>.snapshot``, keyed on the complete lines the load covered. A
    later load reads that and parses only the records appended after them.
    Appends leave those lines as they are; a snapshot that no longer fits
    the file is rebuilt. Only ``close`` saves it, and only if this cache
    appended nothing and the snapshot lacks lines or counts it has. The
    snapshot holds no snippet text: a record loaded from it reads, checks
    and parses its line on first item access, once, from the file the load
    checked.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, int | _Texts | list[str]] = {}
        self._lock = threading.Lock()
        self._append: BinaryIO | None = None
        self._snapshot = Path(f"{self.path}.snapshot")
        # What the load covered: the key of its bytes, its number of lines
        # and its corrupt lines; None once a put changes the file. Unsaved:
        # the snapshot on disk lacks some of those lines, or counts made since.
        self._covered: tuple[savefile.Key, int, list[int]] | None = None
        self._unsaved = False
        if self.path.exists():
            self._load()

    def _load(self):
        # Read as bytes and decode each line once, so that a record that is
        # not UTF-8 is skipped like any other corrupt record.
        with open(self.path, "rb") as fh:
            # A snapshot fits if made from the file's first bytes, which
            # leaves ``fh`` just after them.
            saved = savefile.load(
                self._snapshot, _SNAPSHOT_MAGIC, _SNAPSHOT_FORMAT, 2, lambda key: key == savefile.key_of(fh, key[1])
            )
            if saved:
                (crc, covered), ((lines, skipped, counts, text_lines), hits) = saved
                self._entries.update(hits)
                file = _CacheFile(fh) if text_lines else None
                self._entries.update((key, _Texts(line, None, file, counts.get(key))) for key, line in text_lines.items())
                for lineno in skipped:
                    log.warning("%s:%d: skipping corrupt cache record", self.path, lineno)
            else:
                fh.seek(0)
                crc = covered = lines = 0
                skipped = []
            saved_covered = covered
            for lineno, raw_line in enumerate(fh, start=lines + 1):
                # A last line without its newline is a torn write, even where
                # what is left parses, as a count cut short does. The
                # snapshot covers complete lines only.
                complete = raw_line.endswith(b"\n")
                offset = covered
                if complete:
                    crc = zlib.crc32(raw_line, crc)
                    covered += len(raw_line)
                    lines = lineno
                try:
                    key, value = _parse_record(raw_line)
                    fits = complete
                except (ValueError, TypeError):
                    if raw_line.rstrip(b"\r\n") in (b"", b"\t"):  # a tab alone closes off a torn line
                        continue
                    fits = False
                if not fits:
                    log.warning("%s:%d: skipping corrupt cache record", self.path, lineno)
                    if complete:
                        skipped.append(lineno)
                    continue
                if type(value) is list:
                    value = _Texts((len(value), offset, len(raw_line), zlib.crc32(raw_line)), value)
                self._entries[key] = value
        self._covered = (crc, covered), lines, skipped
        self._unsaved = covered != saved_covered

    def get(self, query: OracleQuery) -> int | Sequence[str] | None:
        with self._lock:
            return self._entries.get(query.cache_key())

    def put(self, query: OracleQuery, value: int | list[str]) -> None:
        key = query.cache_key()
        # Encoded first, so a value that cannot be written is not kept either.
        record = _format_record(key, value).encode("utf-8")
        with self._lock:
            self._entries[key] = value
            self._covered = None  # a snapshot would be stale once this is written
            fh = self._append_handle()
            fh.write(record)
            fh.flush()

    def _append_handle(self) -> BinaryIO:
        """The open append handle; caller holds the lock."""
        if self._append is None:
            fh = _locked(self.path, "a+b", fcntl.LOCK_SH)
            if fh.seek(0, os.SEEK_END) > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\t\n")  # the tab keeps the torn line corrupt for later loads
            self._append = fh
        return self._append

    def counts(self, snippets: Sequence[str], tagger) -> dict[tuple[str, str], int]:
        """``tagger.count(snippets)`` for an answer ``snippets`` this cache
        gave. A record the load covered keeps the counts of a tagger that
        names its table by a ``table_crc``, and ``close`` saves them in the
        snapshot, so that later loads of the same bytes read them instead of
        counting again. A put's list is counted and not kept."""
        table = getattr(tagger, "table_crc", None)
        if table is None or type(snippets) is not _Texts:
            return tagger.count(snippets)
        totals = (snippets.counts or {}).get(table)  # replaced, never changed: read without the lock
        if totals is None:
            totals = tagger.count(snippets)
            with self._lock:
                snippets.counts = {**(snippets.counts or {}), table: totals}
                self._unsaved = True
        return totals

    def close(self) -> None:
        """Close the append handle, which a later ``put`` opens again, and
        save the snapshot if the file is still as loaded and the snapshot on
        disk lacks something this cache holds."""
        with self._lock:
            if self._append is not None:
                self._append.close()
                self._append = None
            if self._unsaved and self._covered is not None:
                covered, lines, skipped = self._covered
                # Until the first put every snippet record is one the load covered.
                texts = [(key, value) for key, value in self._entries.items() if type(value) is _Texts]
                savefile.save(self._snapshot, _SNAPSHOT_MAGIC, _SNAPSHOT_FORMAT, covered, [
                    (lines, skipped, {key: t.counts for key, t in texts if t.counts}, {key: t.line for key, t in texts}),
                    {key: value for key, value in self._entries.items() if type(value) is int},
                ])
            self._unsaved = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def kinds(self) -> Counter[str]:
        """Number of entries of each query kind, by kind name."""
        with self._lock:
            return Counter(key[: key.index("\t")] for key in self._entries)


def _locked(path: Path, mode: str, how: int) -> BinaryIO:
    """``path`` opened in binary ``mode`` and locked by ``fcntl.flock(how)``;
    opened again if ``compact`` replaced the file meanwhile."""
    while True:
        fh = open(path, mode)
        try:
            fcntl.flock(fh, how)
        except BaseException:
            fh.close()
            raise
        if os.fstat(fh.fileno()).st_nlink:
            return fh
        fh.close()


def compact(path: str | Path) -> int:
    """Rewrite the cache file at ``path`` with one record per key and delete
    its snapshot; returns records kept. While any ``ResponseCache`` has the
    file open for appending it raises BlockingIOError instead of waiting."""
    path = Path(path)
    with _locked(path, "rb", fcntl.LOCK_EX | fcntl.LOCK_NB):
        cache = ResponseCache(path)
        entries = cache._entries
        with savefile.replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(
                _format_record(key, value if type(value) is int else list(value))
                for key, value in sorted(entries.items())
            )
            fh.flush()
            os.fsync(fh.fileno())  # on disk before it replaces the only copy of every answer
        cache._snapshot.unlink(missing_ok=True)
    return len(entries)


class _Flight:
    """A backend call in progress. Its leader holds ``lock`` until the call
    has settled and leaves the answer in ``value``, None if it failed."""

    __slots__ = ("lock", "value")

    def __init__(self):
        self.lock = threading.Lock()
        self.lock.acquire()
        self.value: int | list[str] | None = None


class SearchOracle:
    """Thread-safe front end combining a backend with the response cache.

    Identical queries share one backend call, with or without a cache:
    one look under the oracle's lock decides whether a caller takes the
    cached answer, waits for the call in flight, or asks; with a cache no
    later caller asks again. If that call fails, one waiter makes it
    again. At most ``max_parallel`` backend calls run at once. Snippet
    queries answer the texts of the backend's hits. A backend answer of the
    wrong shape for its kind raises OracleError and is not cached.
    Without a backend the oracle replays the cache only: a miss raises
    OracleError.
    """

    def __init__(
        self,
        backend: Backend | None,
        cache: ResponseCache | None = None,
        max_parallel: int = RunConfig.parallelism,
    ):
        if backend is None and cache is None:
            raise ValueError("need a backend or a cache")
        self._backend = backend
        self._cache = cache
        self._lock = threading.Lock()
        self._inflight: dict[str, _Flight] = {}
        self._slots: queue.SimpleQueue[None] = queue.SimpleQueue()  # a token a slot; C, unlike Semaphore
        for _ in range(max(1, max_parallel)):
            self._slots.put(None)

    def close(self) -> None:
        """Close the response cache's append handle and the backend's
        connections, if any."""
        if self._cache is not None:
            self._cache.close()
        close_backend = getattr(self._backend, "close", None)
        if close_backend is not None:
            close_backend()

    def execute(self, query: OracleQuery) -> int | Sequence[str]:
        cache = self._cache
        while True:
            # A leader puts its answer before it leaves the in-flight table,
            # so a caller that finds neither under this lock is the one to ask.
            with self._lock:
                cached = None if cache is None else cache.get(query)
                if cached is not None:
                    return cached
                if self._backend is None:
                    shown = (query.kind.value, tuple(sorted(query.phrases)), query.lang_restrict or "-",
                             "-" if query.limit is None else str(query.limit))
                    raise OracleError(f"offline: no cached response for {shown}")
                key = query.cache_key()
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _Flight()
                    break
            with flight.lock:  # released once the leader's call has settled
                pass
            if flight.value is not None:
                return flight.value
            # The leader failed; take over.

        try:
            self._slots.get()
            try:
                value = self._backend.execute(query)
            finally:
                self._slots.put(None)
            if isinstance(value, list):  # hits, kept as their texts; a str has none
                value = [getattr(hit, "text", None) for hit in value]
            if not is_answer(query.kind, value):
                raise OracleError(f"backend answered {query.kind.value} with {type(value).__name__}")
            if cache is not None:
                cache.put(query, value)
            flight.value = value
            return value
        finally:
            with self._lock:
                del self._inflight[key]
            flight.lock.release()

    def phrase_count(self, query: str) -> int:
        return self.execute(OracleQuery(QueryKind.PHRASE_COUNT, (query,)))

    def pair_count(self, phrase_a: str, phrase_b: str) -> int:
        return self.execute(OracleQuery(QueryKind.PAIR_COUNT, (phrase_a, phrase_b)))

    def counted_snippets(self, phrase: str, limit: int, tagger) -> tuple[Sequence[str], dict]:
        """The snippets for ``phrase`` and ``tagger.count`` of them, through
        the counts the cache keeps (``ResponseCache.counts``)."""
        snippets = self.execute(OracleQuery(QueryKind.SNIPPETS, (phrase,), limit=limit))
        if self._cache is None:
            return snippets, tagger.count(snippets)
        return snippets, self._cache.counts(snippets, tagger)

    def mixed_snippets(self, phrase: str, lang: str, limit: int) -> Sequence[str]:
        return self.execute(
            OracleQuery(QueryKind.MIXED_SNIPPETS, (phrase,), lang_restrict=lang, limit=limit)
        )
