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
import json
import logging
import os
import queue
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Protocol

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

    name: str

    def execute(self, query: OracleQuery) -> int | list: ...


def is_count(value: object) -> bool:
    """A hit count: a non-negative int; JSON ``true`` is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


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


class ResponseCache:
    """Append-only response cache, one record per line, last write wins.

    Record layout: kind, phrase1, phrase2 (empty when absent), language,
    limit, then the JSON payload (a count or a list of snippet texts), all
    tab-separated. Corrupt lines, and records whose payload does not fit
    their kind, are skipped with a warning so the query can simply be
    re-issued.

    The file is opened for appending once, on the first ``put``, and
    flushed after every record, so a crash loses at most the record being
    written. A torn last line left by such a crash is closed off with a
    newline before the first append, so it cannot swallow the next record.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple, int | list[str]] = {}
        self._lock = threading.Lock()
        self._append: BinaryIO | None = None
        if self.path.exists():
            self._load()

    def _load(self):
        # Read as bytes and decode each line once, so that a record that is
        # not UTF-8 is skipped like any other corrupt record.
        with open(self.path, "rb") as fh:
            for lineno, raw_line in enumerate(fh, start=1):
                try:
                    line = raw_line.decode("utf-8").rstrip("\r\n")
                    if not line:
                        continue
                    kind, p1, p2, lang, limit, payload = line.split("\t")
                    value = _decode_response(payload)
                    fits = is_answer(QueryKind(kind), value)
                except (ValueError, TypeError):
                    fits = False
                if not fits:
                    log.warning("%s:%d: skipping corrupt cache record", self.path, lineno)
                    continue
                phrases = (p1,) if not p2 else (p1, p2)
                self._entries[(kind, tuple(sorted(phrases)), lang, limit)] = value

    def get(self, query: OracleQuery) -> int | list[str] | None:
        with self._lock:
            return self._entries.get(query.cache_key())

    def put(self, query: OracleQuery, value: int | list[str]) -> None:
        key = query.cache_key()
        # Encoded first, so a value that cannot be written is not kept either.
        record = _format_record(key, value).encode("utf-8")
        with self._lock:
            self._entries[key] = value
            fh = self._append_handle()
            fh.write(record)
            fh.flush()

    def _append_handle(self) -> BinaryIO:
        """The open append handle; caller holds the lock."""
        if self._append is None:
            fh = open(self.path, "a+b")
            if fh.seek(0, os.SEEK_END) > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
            self._append = fh
        return self._append

    def close(self) -> None:
        """Close the append handle; a later ``put`` opens it again."""
        with self._lock:
            self._close_append()

    def _close_append(self) -> None:
        if self._append is not None:
            self._append.close()
            self._append = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def kind_counts(self) -> Counter[str]:
        """Number of entries of each query kind, by kind name."""
        with self._lock:
            return Counter(key[0] for key in self._entries)

    def compact(self) -> int:
        """Rewrite the file with one record per key; returns records kept."""
        with self._lock:
            records = [_format_record(key, self._entries[key]) for key in sorted(self._entries)]
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(records)
            # Later puts must reach the new file, not the replaced inode.
            self._close_append()
            tmp.replace(self.path)
            return len(records)


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
    callers that ask while it is in flight wait for its answer, and with a
    cache no later caller asks again. If that call fails, one waiter makes
    it again. At most ``max_parallel`` backend calls run at once. Snippet
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
        self.backend_calls = 0  # settled calls; counted under the lock

    def close(self) -> None:
        """Close the response cache's append handle and the backend's
        connections, if any."""
        if self._cache is not None:
            self._cache.close()
        close_backend = getattr(self._backend, "close", None)
        if close_backend is not None:
            close_backend()

    def execute(self, query: OracleQuery) -> int | list[str]:
        cache = self._cache
        # A call that settles after this read may fill the cache after the
        # look below, so a caller that then leads looks again.
        settled = self.backend_calls
        if cache is not None:
            cached = cache.get(query)
            if cached is not None:
                return cached
        if self._backend is None:
            raise OracleError(f"offline: no cached response for {query.cache_key()}")

        key = query.cache_key()
        while True:
            with self._lock:
                flight = self._inflight.get(key)
                if flight is None:
                    if cache is not None and self.backend_calls != settled:
                        cached = cache.get(query)
                        if cached is not None:
                            return cached
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
                self.backend_calls += 1
                del self._inflight[key]
            flight.lock.release()

    def phrase_count(self, query: str) -> int:
        return self.execute(OracleQuery(QueryKind.PHRASE_COUNT, (query,)))

    def pair_count(self, phrase_a: str, phrase_b: str) -> int:
        return self.execute(OracleQuery(QueryKind.PAIR_COUNT, (phrase_a, phrase_b)))

    def snippets(self, phrase: str, limit: int) -> list[str]:
        return self.execute(OracleQuery(QueryKind.SNIPPETS, (phrase,), limit=limit))

    def mixed_snippets(self, phrase: str, lang: str, limit: int) -> list[str]:
        return self.execute(
            OracleQuery(QueryKind.MIXED_SNIPPETS, (phrase,), lang_restrict=lang, limit=limit)
        )
