"""Interchangeable search backends.

* HttpBackend — generic HTTP search API client with rate limiting and retry.
* LocalIndexBackend — positional inverted index over a local document
  collection; counts are true document counts, not engine estimates. A
  phrase is matched by walking the rarest of its tokens' postings and
  testing the others for membership, then checking word positions.
* CacheOnlyBackend — read-only replay of a cache file; any miss errors.
"""

from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path
from typing import Iterable

from .oracle import (
    OracleError,
    OracleQuery,
    QueryKind,
    ResponseCache,
    Snippet,
    is_count,
    split_or_query,
)

WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

SNIPPET_MAX_CHARS = 300


def tokenize(text: str) -> list[str]:
    """Lowercased maximal letter runs; punctuation and digits split tokens."""
    return [t.lower() for t in WORD_RE.findall(text)]


class LocalIndexBackend:
    """Exact-phrase search over documents with language tags.

    Documents are dicts with ``id``, ``lang`` and ``text`` keys (or one JSON
    object per line in a file). Phrase counts are numbers of documents
    containing the phrase; OR-queries count the union of their disjuncts.
    """

    name = "local-index"

    def __init__(self, documents: Iterable[dict]):
        self._docs: list[dict] = []
        self._positions: dict[str, dict[int, list[int]]] = {}
        for doc in documents:
            self._add(doc)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "LocalIndexBackend":
        docs = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    docs.append(json.loads(line))
        return cls(docs)

    def _add(self, doc: dict):
        idx = len(self._docs)
        record = {
            "id": str(doc.get("id", idx)),
            "lang": doc.get("lang", ""),
            "text": doc["text"],
        }
        self._docs.append(record)
        positions = self._positions
        for pos, token in enumerate(tokenize(record["text"])):
            postings = positions.get(token)
            if postings is None:
                positions[token] = {idx: [pos]}
            elif idx in postings:
                postings[idx].append(pos)
            else:
                postings[idx] = [pos]

    def __len__(self) -> int:
        return len(self._docs)

    def _phrase_docs(self, phrase: str) -> set[int]:
        tokens = tokenize(phrase)
        if not tokens:
            return set()
        postings = []
        for token in tokens:
            docs = self._positions.get(token)
            if docs is None:
                return set()
            postings.append(docs)
        # Intersecting key views walks the smaller side and tests membership
        # in the larger, so the rarest token's postings bound the work.
        candidates = min(postings, key=len).keys()
        for docs in postings:
            candidates = candidates & docs.keys()
        if len(tokens) == 1:
            return candidates
        first, later = postings[0], postings[1:]
        hits = set()
        for doc_idx in candidates:
            later_positions = [docs[doc_idx] for docs in later]
            for start in first[doc_idx]:
                pos = start
                for positions in later_positions:
                    pos += 1
                    if pos not in positions:
                        break
                else:
                    hits.add(doc_idx)
                    break
        return hits

    def _query_docs(self, query: str) -> set[int]:
        docs: set[int] = set()
        for phrase in split_or_query(query):
            docs |= self._phrase_docs(phrase)
        return docs

    def _snippet(self, doc_idx: int) -> Snippet:
        doc = self._docs[doc_idx]
        text = doc["text"]
        if len(text) > SNIPPET_MAX_CHARS:
            cut = text.rfind(" ", 0, SNIPPET_MAX_CHARS)
            text = text[: cut if cut > 0 else SNIPPET_MAX_CHARS]
        return Snippet(text, doc["id"])

    def execute(self, query: OracleQuery) -> int | list[Snippet]:
        if query.kind is QueryKind.PHRASE_COUNT:
            return len(self._query_docs(query.phrases[0]))
        if query.kind is QueryKind.PAIR_COUNT:
            a, b = query.phrases
            return len(self._query_docs(a) & self._query_docs(b))
        hits = sorted(self._query_docs(query.phrases[0]))
        if query.kind is QueryKind.MIXED_SNIPPETS:
            hits = [i for i in hits if self._docs[i]["lang"] == query.lang_restrict]
        return [self._snippet(i) for i in hits[: query.limit]]


class CacheOnlyBackend:
    """Replays a recorded cache file; never touches the network."""

    name = "fixture-cache"

    def __init__(self, path: str | Path):
        self._cache = ResponseCache(path)

    def execute(self, query: OracleQuery) -> int | list[Snippet]:
        value = self._cache.get(query)
        if value is None:
            raise OracleError(f"fixture cache has no entry for {query.cache_key()}")
        return value


class HttpBackend:
    """Client for a JSON-over-HTTP search endpoint.

    Request: GET ``endpoint`` with params ``kind`` (count|pair|snippets|
    mixed), ``q``, optionally ``q2``, ``lang``, ``limit`` and ``key``.
    Response: ``{"count": N}`` or ``{"snippets": [{"text": ..., "doc_id":
    ...}, ...]}``. Requests are rate limited and retried with backoff;
    persistent failure surfaces as a retriable OracleError.
    """

    name = "http"

    KIND_PARAM = {
        QueryKind.PHRASE_COUNT: "count",
        QueryKind.PAIR_COUNT: "pair",
        QueryKind.SNIPPETS: "snippets",
        QueryKind.MIXED_SNIPPETS: "mixed",
    }

    def __init__(
        self,
        endpoint: str,
        api_key: str = "",
        rate_per_sec: float = 2.0,
        max_retries: int = 3,
        timeout: float = 10.0,
        session=None,
    ):
        if not endpoint:
            raise ValueError("http backend requires an endpoint")
        if session is None:
            import requests

            session = requests.Session()
        self.endpoint = endpoint
        self.api_key = api_key
        self.min_interval = 1.0 / rate_per_sec if rate_per_sec > 0 else 0.0
        self.max_retries = max_retries
        self.timeout = timeout
        self._session = session
        self._lock = threading.Lock()
        self._last_request = 0.0

    def _throttle(self):
        with self._lock:
            wait = self._last_request + self.min_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()

    def _params(self, query: OracleQuery) -> dict:
        params = {"kind": self.KIND_PARAM[query.kind], "q": query.phrases[0]}
        if query.kind is QueryKind.PAIR_COUNT:
            params["q2"] = query.phrases[1]
        if query.lang_restrict:
            params["lang"] = query.lang_restrict
        if query.limit is not None:
            params["limit"] = str(query.limit)
        if self.api_key:
            params["key"] = self.api_key
        return params

    def execute(self, query: OracleQuery) -> int | list[Snippet]:
        params = self._params(query)
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            self._throttle()
            try:
                response = self._session.get(self.endpoint, params=params, timeout=self.timeout)
                if response.status_code >= 500:
                    raise OracleError(f"server error {response.status_code}")
                if response.status_code != 200:
                    raise OracleError(f"request failed with status {response.status_code}")
                return self._parse(query, response.json())
            except OracleError as exc:
                last_error = exc
            except Exception as exc:  # connection/timeout/JSON errors
                last_error = exc
            if attempt + 1 < self.max_retries:
                time.sleep(min(2.0**attempt * 0.5, 8.0))
        raise OracleError(f"backend unavailable after {self.max_retries} attempts: {last_error}")

    @staticmethod
    def _parse(query: OracleQuery, payload: dict) -> int | list[Snippet]:
        if query.kind in (QueryKind.PHRASE_COUNT, QueryKind.PAIR_COUNT):
            count = payload.get("count")
            if not is_count(count):
                raise OracleError(f"malformed count response: {payload!r}")
            return count
        snippets = payload.get("snippets")
        if not isinstance(snippets, list):
            raise OracleError(f"malformed snippet response: {payload!r}")
        limit = query.limit or len(snippets)
        parsed = []
        for entry in snippets[:limit]:
            if not isinstance(entry, dict) or not isinstance(entry.get("text"), str):
                raise OracleError(f"malformed snippet response: {entry!r}")
            parsed.append(Snippet(entry["text"], entry.get("doc_id")))
        return parsed
