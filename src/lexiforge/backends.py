"""Interchangeable search backends.

* HttpBackend — generic HTTP search API client with rate limiting and retry,
  over one keep-alive ``http.client`` connection per worker thread.
* LocalIndexBackend — document index over a local collection; counts are
  true document counts, not engine estimates. A collection read from a
  file saves its index beside it, and later runs load that.
"""

from __future__ import annotations

import io
import json
import re
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import savefile
from .config import InputError, RunConfig, open_utf8
from .oracle import OracleError, OracleQuery, QueryKind, is_count, split_or_query

WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

SNIPPET_MAX_CHARS = 300


@dataclass(frozen=True, slots=True)
class Snippet:
    """A backend's hit for a snippet query: the snippet text and the
    engine's id of its document. The oracle keeps only the text."""

    text: str
    doc_id: str | None = None

    def __post_init__(self):
        if not isinstance(self.text, str) or not self.text:
            raise ValueError("snippet text must be a non-empty string")


def tokenize(text: str) -> list[str]:
    """Lowercased maximal letter runs; punctuation and digits split tokens."""
    return [t.lower() for t in WORD_RE.findall(text)]


class _SummedFile(io.FileIO):
    """A file read in binary, summing up what was read: CRC-32 and length."""

    crc = size = 0

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        if n:
            self.crc = zlib.crc32(memoryview(buffer)[:n], self.crc)
            self.size += n
        return n


# A saved index (see ``savefile``) has three parts: the documents, their
# token strings, and token -> documents.
_INDEX_MAGIC = b"lexiforge-index\n"
_INDEX_FORMAT = 1  # bump when the parts, or how ``_add`` builds them, change
_PARTS = 3


class JsonlCollection:
    """The documents of a JSONL file, one object per line, and the index
    saved beside it as ``<path>.index``, keyed on the CRC-32 and length of
    exactly the bytes indexed. A path that is not a regular file gets no
    saved index."""

    def __init__(self, path: str | Path):
        self.path = path
        self.index_path = Path(f"{path}.index") if Path(path).is_file() else None
        self.key: tuple[int, int] | None = None  # (CRC-32, length), once every line is read

    def __iter__(self) -> Iterator[dict]:
        raw = _SummedFile(self.path)
        with open_utf8(self.path, io.BufferedReader(raw)) as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputError(self.path, lineno, f"invalid JSON: {exc.msg}") from None
                if not isinstance(doc, dict) or not isinstance(doc.get("text"), str):
                    raise InputError(self.path, lineno, 'expected an object with a string "text"')
                if not isinstance(doc.get("lang", ""), str):
                    raise InputError(self.path, lineno, 'expected a string "lang"')
                yield doc
        self.key = (raw.crc, raw.size)

    def load(self) -> list | None:
        """The saved parts, if the saved index was built from the
        collection's present bytes; else None, and the index is rebuilt."""
        if self.index_path is None:
            return None

        def fits(key: savefile.Key) -> bool:
            with open(self.path, "rb") as fh:
                return key == savefile.key_of(fh)

        saved = savefile.load(self.index_path, _INDEX_MAGIC, _INDEX_FORMAT, fits)
        return saved[1] if saved and len(saved[1]) == _PARTS else None

    def save(self, parts: Sequence) -> None:
        """Save ``parts`` as the collection's index, keyed on the bytes they
        were built from."""
        if self.index_path is not None and self.key is not None:
            savefile.save(self.index_path, _INDEX_MAGIC, _INDEX_FORMAT, self.key, parts)


class LocalIndexBackend:
    """Exact-phrase search over documents with language tags.

    Documents are dicts with ``id``, ``lang`` and ``text`` keys (or one JSON
    object per line in a file). Phrase counts are numbers of documents
    containing the phrase; OR-queries count the union of their disjuncts.
    Each lowercased token maps to the ascending tuple of its documents, and
    each document keeps its lowercased tokens as one space-delimited string.
    A phrase walks its rarest token's documents and keeps those whose string
    holds the phrase's tokens as a space-delimited run.
    """

    def __init__(self, documents: Iterable[dict]):
        """Index ``documents``. Those of ``from_jsonl`` come with their
        collection's saved index, which is loaded when it was built from the
        collection's present bytes; otherwise the index is built and saved."""
        collection = documents if isinstance(documents, JsonlCollection) else None
        saved = collection.load() if collection else None
        if saved is not None:
            self._docs, self._spaced, self._token_docs = saved
            return
        self._docs: list[tuple[str, str, str]] = []  # (id, lang, text)
        self._token_docs: dict[str, Sequence[int]] = {}
        self._spaced: list[str] = []
        for doc in documents:
            self._add(doc)
        # Ascending, as documents arrive in order; a tuple is the smallest holder.
        for token, docs in self._token_docs.items():
            self._token_docs[token] = tuple(docs)
        if collection:
            collection.save((self._docs, self._spaced, self._token_docs))

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "LocalIndexBackend":
        return cls(JsonlCollection(path))

    def _add(self, doc: dict):
        idx = len(self._docs)
        self._docs.append((str(doc.get("id", idx)), doc.get("lang", ""), doc["text"]))
        # Equal to lowercasing each token: a space is neither cased nor
        # case-ignorable, so it ends a final-sigma context as a token end does.
        joined = " ".join(WORD_RE.findall(doc["text"])).lower()
        self._spaced.append(f" {joined} ")
        token_docs = self._token_docs
        for token in set(joined.split(" ")) if joined else ():
            docs = token_docs.get(token)
            if docs is None:
                token_docs[token] = [idx]
            else:
                docs.append(idx)

    def __len__(self) -> int:
        return len(self._docs)

    def _phrase_docs(self, phrase: str) -> set[int]:
        """Indexes of the documents holding the phrase, in a fresh set: those
        of its rarest token's documents whose string holds its token run."""
        tokens = tokenize(phrase)
        if not tokens:
            return set()
        rarest = min((self._token_docs.get(token, ()) for token in tokens), key=len)
        if len(tokens) == 1:
            return set(rarest)
        # No token holds a space, so a space-delimited substring is exactly
        # a contiguous run of tokens, and its test alone decides.
        needle = f" {' '.join(tokens)} "
        spaced = self._spaced
        return {idx for idx in rarest if needle in spaced[idx]}

    def _query_docs(self, query: str) -> set[int]:
        docs: set[int] = set()
        for phrase in split_or_query(query):
            docs |= self._phrase_docs(phrase)
        return docs

    def _snippet(self, doc_idx: int) -> Snippet:
        doc_id, _, text = self._docs[doc_idx]
        if len(text) > SNIPPET_MAX_CHARS:
            cut = text.rfind(" ", 0, SNIPPET_MAX_CHARS)
            text = text[: cut if cut > 0 else SNIPPET_MAX_CHARS]
        return Snippet(text, doc_id)

    def execute(self, query: OracleQuery) -> int | list[Snippet]:
        if query.kind is QueryKind.PHRASE_COUNT:
            return len(self._query_docs(query.phrases[0]))
        if query.kind is QueryKind.PAIR_COUNT:
            a, b = query.phrases
            return len(self._query_docs(a) & self._query_docs(b))
        hits = sorted(self._query_docs(query.phrases[0]))
        if query.kind is QueryKind.MIXED_SNIPPETS:
            hits = [i for i in hits if self._docs[i][1] == query.lang_restrict]
        return [self._snippet(i) for i in hits[: query.limit]]


# Longest backoff between attempts; a server asking for a longer pause
# fails the query at once, so the unit ends UNRESOLVED_ORACLE and a later
# run resumes it from the cache.
MAX_BACKOFF_S = 8.0


class HttpBackend:
    """Client for a JSON-over-HTTP search endpoint.

    Request: GET ``endpoint`` with params ``kind`` (count|pair|snippets|
    mixed), ``q``, optionally ``q2``, ``lang``, ``limit`` and ``key``.
    Response: ``{"count": N}`` or ``{"snippets": [{"text": ..., "doc_id":
    ...}, ...]}``, where a text must be a non-empty string and ``doc_id``
    is optional. Requests are rate limited. A client error (4xx) other
    than 408 and 429, and a 200 with a malformed payload, fail on the first
    response; other statuses, timeouts and connection failures are retried
    with backoff. A 429 or 503 whose ``Retry-After`` asks for a longer wait
    than the backoff gets that wait, and fails at once if it is longer than
    ``MAX_BACKOFF_S``. Either way the failure surfaces as an OracleError,
    which a later run may retry.

    Requests go through ``session``: any object with ``get(url, params=,
    timeout=)`` returning a response with ``status_code``, ``headers`` and
    ``json()``. The default is a ``transport.HttpTransport``, which keeps
    one keep-alive connection per worker thread; ``close()`` closes them.
    The transport module is imported on first use: its ``http.client``,
    ``ssl`` and ``urllib.request`` imports would add ~7 MB of memory and
    ~60 ms to every run, HTTP or not.
    """

    KIND_PARAM = {
        QueryKind.PHRASE_COUNT: "count",
        QueryKind.PAIR_COUNT: "pair",
        QueryKind.SNIPPETS: "snippets",
        QueryKind.MIXED_SNIPPETS: "mixed",
    }

    def __init__(
        self,
        endpoint: str,
        api_key: str = RunConfig.api_key,
        rate_per_sec: float = RunConfig.rate_per_sec,
        max_retries: int = 3,
        timeout: float = 10.0,
        session=None,
    ):
        if not endpoint:
            raise ValueError("http backend requires an endpoint")
        self.endpoint = endpoint
        self.api_key = api_key
        self.min_interval = 1.0 / rate_per_sec if rate_per_sec > 0 else 0.0
        self.max_retries = max_retries
        self.timeout = timeout
        if session is None:
            from .transport import HttpTransport

            session = HttpTransport(endpoint)
        self._session = session
        self._lock = threading.Lock()
        self._last_request = 0.0

    def close(self) -> None:
        """Close the session's connections, if it holds any."""
        close = getattr(self._session, "close", None)
        if close is not None:
            close()

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
        retry_after = 0.0
        for attempt in range(self.max_retries):
            if attempt:
                time.sleep(max(min(2.0 ** (attempt - 1) * 0.5, MAX_BACKOFF_S), retry_after))
            retry_after = 0.0
            self._throttle()
            try:
                response = self._session.get(self.endpoint, params=params, timeout=self.timeout)
            except Exception as exc:  # connection errors and timeouts are retried
                last_error = exc
                continue
            status = response.status_code
            if status == 200:
                return self._parse(query, response)
            last_error = OracleError(f"request failed with status {status}")
            # Asking again cannot change a client error's answer, except for
            # a request timeout or a rate limit.
            if 400 <= status < 500 and status not in (408, 429):
                raise last_error
            if status in (429, 503):
                from .transport import retry_after_s

                retry_after = retry_after_s(response)
                if retry_after > MAX_BACKOFF_S:
                    raise OracleError(
                        f"request failed with status {status}, retry after {retry_after:.0f} s"
                    )
        raise OracleError(f"backend unavailable after {self.max_retries} attempts: {last_error}")

    @staticmethod
    def _parse(query: OracleQuery, response) -> int | list[Snippet]:
        try:
            payload = response.json()
        except ValueError:  # a body that is not JSON
            payload = None
        if not isinstance(payload, dict):
            raise OracleError(f"malformed response: {payload!r}")
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
            text = entry.get("text") if isinstance(entry, dict) else None
            if not isinstance(text, str) or not text:
                raise OracleError(f"malformed snippet response: {entry!r}")
            parsed.append(Snippet(text, entry.get("doc_id")))
        return parsed
