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
import zlib
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Protocol

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
        if self.kind is QueryKind.MIXED_SNIPPETS and not self.lang_restrict:
            raise ValueError("MIXED_SNIPPETS requires lang_restrict")
        if self.kind in (QueryKind.SNIPPETS, QueryKind.MIXED_SNIPPETS):
            if self.limit is None or self.limit < 1:
                raise ValueError("snippet queries require limit >= 1")

    def cache_key(self) -> tuple[str, tuple[str, ...], str, str]:
        return (
            self.kind.value,
            tuple(sorted(self.phrases)),
            self.lang_restrict or "-",
            "-" if self.limit is None else str(self.limit),
        )


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
    for the snippet kinds a list of hits with a ``text`` (``backends.Snippet``)."""

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


def _decode_response(payload: str) -> object:
    """A count or a list of snippet texts, for ``is_answer`` to check; the
    ``[text, doc_id]`` pairs of older records give their texts."""
    value = json.loads(payload)
    if isinstance(value, list) and value and all(type(p) is list and len(p) == 2 for p in value):
        return [text for text, _doc_id in value]
    return value


_JSON = json.JSONEncoder(ensure_ascii=False)  # json.dumps builds one per call


def _format_record(key: tuple[str, tuple[str, ...], str, str], value: int | list[str]) -> str:
    """One cache file line, newline included, for a ``cache_key`` and its value."""
    kind, phrases, lang, limit = key
    p2 = phrases[1] if len(phrases) > 1 else ""
    payload = str(value) if type(value) is int else _JSON.encode(value)
    return "\t".join([kind, phrases[0], p2, lang, limit, payload]) + "\n"


# The snapshot beside a cache file (see ``savefile``), keyed on the bytes of
# the complete lines it covers. Its first part holds the number of those
# lines, the line numbers of the corrupt records among them, the
# lexical-world counts of its SNIPPETS records (cache key, then a tagger's
# table CRC-32, then what that tagger's ``count`` returned for the record's
# texts), the number of texts of each SNIPPETS record, and the number of
# entry parts that follow. Those hold the other entries; the last parts hold
# the texts of the SNIPPETS records, which a load leaves undecoded, since a
# run with saved counts needs only their number. Each entry part holds about
# _SNAPSHOT_PART_BYTES, in file order, so that no load or save holds the
# bytes of the whole snapshot at once.
_SNAPSHOT_MAGIC = b"lexiforge-cache\n"
_SNAPSHOT_FORMAT = 4  # bump when the parts, which records ``_load`` keeps, or what ``count`` returns change
_SNAPSHOT_PART_BYTES = 1 << 20


def _chunked(entries: Iterable[tuple]) -> list[dict]:
    """``entries`` as dicts of about _SNAPSHOT_PART_BYTES each, in order."""
    parts, part, size = [], {}, 0
    for key, value in entries:
        part[key] = value
        size += 64 + (sum(map(len, value)) if type(value) is list else 0)  # about its marshal bytes
        if size >= _SNAPSHOT_PART_BYTES:
            parts.append(part)
            part, size = {}, 0
    return parts + [part] if part else parts


def _snapshot_parts(lines: int, skipped: list[int], counts: dict, entries: dict) -> Iterator:
    texts = {key: value for key, value in entries.items() if key[0] == "SNIPPETS"}
    others = _chunked((key, value) for key, value in entries.items() if key[0] != "SNIPPETS")
    yield lines, skipped, counts, {key: len(value) for key, value in texts.items()}, len(others)
    yield from others
    yield from _chunked(texts.items())


class _Texts(Sequence):
    """The snippet texts of a SNIPPETS record whose texts the load left in
    the snapshot: its length is known at once, its texts are decoded on
    first access, with those of every such record."""

    __slots__ = ("_len", "_decode", "texts")

    def __init__(self, length: int, decode):
        self._len = length
        self._decode = decode
        self.texts: list[str] | None = None  # set by ``ResponseCache._decode``

    def __len__(self) -> int:
        return self._len

    def _list(self) -> list[str]:
        if self.texts is None:
            self._decode()
        return self.texts

    def __getitem__(self, index):
        return self._list()[index]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other):
        return self._list() == other if isinstance(other, (list, _Texts)) else NotImplemented


class ResponseCache:
    """Append-only response cache, one record per line, last write wins.

    Record layout: kind, phrase1, phrase2 (empty when absent), language,
    limit, then the JSON payload (a count or a list of snippet texts), all
    tab-separated. Corrupt lines, and records whose payload does not fit
    their kind, are skipped with a warning so the query can simply be
    re-issued.

    The file is opened for appending once, on the first ``put``, and
    flushed after every record, so a crash loses at most the record being
    written. A torn last line left by such a crash is skipped, and closed
    off with a tab and a newline before the first append, so it cannot
    swallow the next record, nor parse as one on a later load. A line of
    that tab alone, left where the last byte was another writer's record in
    flight, is skipped like a blank line. The append handle holds a shared
    ``flock`` until ``close``, so that ``compact`` never replaces the file
    under a writer.

    What a load checked, and the lexical-world counts of its snippet
    records (see ``counts``), are saved beside the file as
    ``<path>.snapshot``, keyed on the complete lines the load covered. A
    later load reads that and parses only the records appended after them.
    Appends leave those lines as they are; a snapshot that no longer fits
    the file is rebuilt. Only ``close`` saves it, and only if this cache
    appended nothing and the snapshot lacks lines or counts it has. A load
    from the snapshot leaves the texts of the SNIPPETS records in it: each
    such entry is a read-only sequence (``_Texts``) whose first item access
    decodes them all, once, under the cache's lock.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple, int | Sequence[str]] = {}
        self._lock = threading.Lock()
        self._append: BinaryIO | None = None
        # Cache key -> tagger table -> counts; see ``counts``.
        self._counts: dict[tuple, dict[int, dict[tuple[str, str], int]]] = {}
        self._snapshot = Path(f"{self.path}.snapshot")
        # What the load covered: the key of its bytes, its number of lines
        # and its corrupt lines; None once a put changes the file. Unsaved:
        # the snapshot on disk lacks some of those lines, or counts made since.
        self._covered: tuple[savefile.Key, int, list[int]] | None = None
        self._unsaved = False
        # The texts the load left in the snapshot, and the entry of each.
        self._deferred: tuple[savefile.Deferred, dict[tuple, _Texts]] | None = None
        if self.path.exists():
            self._load()

    def _load(self):
        # Read as bytes and decode each line once, so that a record that is
        # not UTF-8 is skipped like any other corrupt record.
        with open(self.path, "rb") as fh:
            # A snapshot fits if made from the file's first bytes, which
            # leaves ``fh`` just after them.
            saved = savefile.load(
                self._snapshot, _SNAPSHOT_MAGIC, _SNAPSHOT_FORMAT, lambda key: key == savefile.key_of(fh, key[1]),
                eager=lambda first: 1 + first[-1],
            )
            if saved:
                (crc, covered), ((lines, skipped, self._counts, lengths, _), *parts, deferred) = saved
                for part in parts:
                    self._entries.update(part)
                if lengths:
                    texts = {key: _Texts(n, self._decode_texts) for key, n in lengths.items()}
                    self._entries.update(texts)
                    self._deferred = deferred, texts
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
                if complete:
                    crc = zlib.crc32(raw_line, crc)
                    covered += len(raw_line)
                    lines = lineno
                try:
                    line = raw_line.decode("utf-8").rstrip("\r\n")
                    if line in ("", "\t"):  # a tab alone closes off a torn line
                        continue
                    kind, p1, p2, lang, limit, payload = line.split("\t")
                    value = _decode_response(payload)
                    fits = is_answer(QueryKind(kind), value) and complete
                except (ValueError, TypeError):
                    fits = False
                if not fits:
                    log.warning("%s:%d: skipping corrupt cache record", self.path, lineno)
                    if complete:
                        skipped.append(lineno)
                    continue
                phrases = (p1,) if not p2 else (p1, p2)
                key = (kind, tuple(sorted(phrases)), lang, limit)
                self._entries[key] = value
                self._counts.pop(key, None)  # counted from the record this one replaces
        self._covered = (crc, covered), lines, skipped
        self._unsaved = covered != saved_covered

    def _decode_texts(self) -> None:
        with self._lock:
            self._decode()

    def _decode(self) -> None:
        """Decode the texts the load left in the snapshot, if not yet done;
        caller holds the lock. An entry still holding its ``_Texts`` takes
        the plain list. OracleError if the snapshot changed in place."""
        if self._deferred is None:
            return
        deferred, texts = self._deferred
        try:
            parts = deferred.decode()
        except (OSError, ValueError) as exc:
            raise OracleError(f"{self._snapshot}: {exc}") from None
        for part in parts:
            for key, value in part.items():
                texts[key].texts = value
                if self._entries[key] is texts[key]:
                    self._entries[key] = value
        self._deferred = None

    def get(self, query: OracleQuery) -> int | Sequence[str] | None:
        with self._lock:
            return self._entries.get(query.cache_key())

    def put(self, query: OracleQuery, value: int | list[str]) -> None:
        key = query.cache_key()
        # Encoded first, so a value that cannot be written is not kept either.
        record = _format_record(key, value).encode("utf-8")
        with self._lock:
            self._entries[key] = value
            self._counts.pop(key, None)
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

    def counts(self, query: OracleQuery, snippets: Sequence[str], tagger) -> dict[tuple[str, str], int]:
        """``tagger.count(snippets)`` for the answer ``snippets`` this cache
        gave to the snippet ``query``. For a record the load covered, and a
        tagger that names its table by a ``table_crc``, the counts are kept
        and saved in the snapshot by ``close``, so that later loads of the
        same bytes read them instead of counting again."""
        key = query.cache_key()
        table = getattr(tagger, "table_crc", None)
        with self._lock:
            totals = self._counts.get(key, {}).get(table)
        if totals is None:
            totals = tagger.count(snippets)
            with self._lock:
                # Until the first put every record is one the load covered; a
                # put drops the counts of the record it replaces.
                if table is not None and self._covered is not None:
                    self._counts.setdefault(key, {})[table] = totals
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
                self._decode()  # marshal needs plain lists
                key, lines, skipped = self._covered
                savefile.save(
                    self._snapshot, _SNAPSHOT_MAGIC, _SNAPSHOT_FORMAT, key,
                    _snapshot_parts(lines, skipped, self._counts, self._entries),
                )
            self._unsaved = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def kind_counts(self) -> Counter[str]:
        """Number of entries of each query kind, by kind name."""
        with self._lock:
            return Counter(key[0] for key in self._entries)


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
        cache._decode_texts()  # JSON needs plain lists
        entries = cache._entries
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(_format_record(key, entries[key]) for key in sorted(entries))
        tmp.replace(path)
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
        self._inflight: dict[tuple, _Flight] = {}
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
                    raise OracleError(f"offline: no cached response for {query.cache_key()}")
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
        query = OracleQuery(QueryKind.SNIPPETS, (phrase,), limit=limit)
        snippets = self.execute(query)
        if self._cache is None:
            return snippets, tagger.count(snippets)
        return snippets, self._cache.counts(query, snippets, tagger)

    def mixed_snippets(self, phrase: str, lang: str, limit: int) -> list[str]:
        return self.execute(
            OracleQuery(QueryKind.MIXED_SNIPPETS, (phrase,), lang_restrict=lang, limit=limit)
        )
