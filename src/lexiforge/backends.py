"""Interchangeable search backends.

* HttpBackend — generic HTTP search API client with rate limiting and retry,
  over one keep-alive ``http.client`` connection per worker thread.
* LocalIndexBackend — document index over a local collection; counts are
  true document counts, not engine estimates. A JSONL collection file is
  read line by line through ``savefile.parsed``, which saves its index
  beside it, and later runs load that.
"""

from __future__ import annotations

import json
import re
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from . import savefile
from .config import InputError, RunConfig
from .oracle import OracleError, OracleQuery, QueryKind, is_count, split_or_query

WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

SNIPPET_MAX_CHARS = 300


@dataclass(frozen=True, slots=True)
class Snippet:
    """A backend's hit for a snippet query: the snippet text and the
    engine's id of its document. The oracle keeps only the text."""

    text: str
    doc_id: str | None = None


def tokenize(text: str) -> list[str]:
    """Lowercased maximal letter runs; punctuation and digits split tokens."""
    return [t.lower() for t in WORD_RE.findall(text)]


# A saved index (see ``savefile``) has the seven parts that ``_build_index``
# returns. The id offsets and language codes are arrays in the host's byte
# order.
_INDEX_MAGIC = b"lexiforge-index\n"
_INDEX_FORMAT = 2  # bump when the parts, or how ``_build_index`` builds them, change


def _read_jsonl(fh: TextIO) -> Iterator[dict]:
    """The documents of a JSONL text stream, one object per line; a line
    that is not one raises ``InputError`` naming the stream and line."""
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(fh.name, lineno, f"invalid JSON: {exc.msg}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("text"), str):
            raise InputError(fh.name, lineno, 'expected an object with a string "text"')
        if not isinstance(doc.get("lang", ""), str):
            raise InputError(fh.name, lineno, 'expected a string "lang"')
        yield doc


def _build_index(documents: Iterable[dict]) -> tuple:
    """The parts of the index of ``documents``: each document's text, its
    lowercased tokens as one space-delimited string, token -> documents,
    the UTF-8 bytes of the ids one after another, the offset of each id in
    them and of their end, language name -> code, and each document's
    language code."""
    texts: list[str] = []
    spaced: list[str] = []
    token_docs: dict[str, list[int] | int | tuple[int, ...]] = {}
    ids = bytearray()
    id_offsets = array("Q", [0])
    langs: dict[str, int] = {}
    lang_codes = array("I")
    for idx, doc in enumerate(documents):
        text = doc["text"]
        texts.append(text)
        ids += str(doc.get("id", idx)).encode("utf-8", "surrogatepass")
        id_offsets.append(len(ids))
        lang_codes.append(langs.setdefault(doc.get("lang", ""), len(langs)))
        # Equal to lowercasing each token: a space is neither cased nor
        # case-ignorable, so it ends a final-sigma context as a token end does.
        joined = " ".join(WORD_RE.findall(text)).lower()
        spaced.append(f" {joined} ")
        # First-seen order, unlike a set's, keeps the saved bytes free of string hashing.
        for token in dict.fromkeys(joined.split(" ")) if joined else ():
            docs = token_docs.get(token)
            if docs is None:
                token_docs[token] = [idx]
            else:
                docs.append(idx)
    # Ascending, as documents arrive in order. Most tokens are in one
    # document, which a bare int holds in the least memory; a tuple holds
    # the others.
    for token, docs in token_docs.items():
        token_docs[token] = docs[0] if len(docs) == 1 else tuple(docs)
    return texts, spaced, token_docs, bytes(ids), id_offsets.tobytes(), langs, lang_codes.tobytes()


class LocalIndexBackend:
    """Exact-phrase search over documents with language tags.

    Documents are dicts with ``id``, ``lang`` and ``text`` keys (or one JSON
    object per line in a file). Phrase counts are numbers of documents
    containing the phrase; OR-queries count the union of their disjuncts.
    The documents are kept in columns: the texts as a list of strings, the
    ids as their UTF-8 bytes one after another with the offset of each, and
    the languages as one small code each with a table from name to code.
    Each document also keeps its lowercased tokens as one space-delimited
    string. Each lowercased token maps to its only document, or to the
    ascending tuple of its documents. A phrase walks its rarest token's
    documents and keeps those whose string holds the phrase's tokens as a
    space-delimited run. A snippet hit is the document's text, cut to
    ``SNIPPET_MAX_CHARS``, and its id.
    """

    def __init__(self, documents: Iterable[dict] | str | Path):
        """Index ``documents``, or the JSONL file at that path, whose index
        ``savefile.parsed`` saves beside it as ``<path>.index``."""
        if isinstance(documents, (str, Path)):
            parts = savefile.parsed(documents, ".index", _INDEX_MAGIC, _INDEX_FORMAT, 7, lambda fh: _build_index(_read_jsonl(fh)))
        else:
            parts = _build_index(documents)
        self._texts, self._spaced, self._token_docs, self._ids, id_offsets, self._langs, lang_codes = parts
        self._id_offsets = memoryview(id_offsets).cast("Q")
        self._lang_codes = memoryview(lang_codes).cast("I")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "LocalIndexBackend":
        return cls(path)

    def __len__(self) -> int:
        return len(self._texts)

    def _phrase_docs(self, phrase: str) -> set[int]:
        """Indexes of the documents holding the phrase, in a fresh set: those
        of its rarest token's documents whose string holds its token run."""
        tokens = tokenize(phrase)
        if not tokens:
            return set()
        token_docs = self._token_docs
        rarest = None
        for token in tokens:
            docs = token_docs.get(token)
            if docs is None:
                return set()  # no document holds an absent token
            if type(docs) is int:
                rarest = (docs,)  # no present token is rarer
                break
            if rarest is None or len(docs) < len(rarest):
                rarest = docs
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
        text = self._texts[doc_idx]
        if len(text) > SNIPPET_MAX_CHARS:
            cut = text.rfind(" ", 0, SNIPPET_MAX_CHARS)
            text = text[: cut if cut > 0 else SNIPPET_MAX_CHARS]
        offsets = self._id_offsets
        doc_id = self._ids[offsets[doc_idx] : offsets[doc_idx + 1]].decode("utf-8", "surrogatepass")
        return Snippet(text, doc_id)

    def execute(self, query: OracleQuery) -> int | list[Snippet]:
        if query.kind is QueryKind.PHRASE_COUNT:
            return len(self._query_docs(query.phrases[0]))
        if query.kind is QueryKind.PAIR_COUNT:
            a, b = query.phrases
            return len(self._query_docs(a) & self._query_docs(b))
        hits = sorted(self._query_docs(query.phrases[0]))
        if query.kind is QueryKind.MIXED_SNIPPETS:
            code, codes = self._langs.get(query.lang_restrict), self._lang_codes
            hits = [i for i in hits if codes[i] == code]
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

    Requests go through ``session``: any object whose ``get(params)`` GETs
    the endpoint and returns ``(status, headers, body)``, with the headers
    a mapping and the body bytes. The default is a
    ``transport.HttpTransport`` with ``timeout``, which keeps one keep-alive
    connection per worker thread; ``close()`` closes them.
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
        self.api_key = api_key
        self.min_interval = 1.0 / rate_per_sec if rate_per_sec > 0 else 0.0
        self.max_retries = max_retries
        if session is None:
            from .transport import HttpTransport

            session = HttpTransport(endpoint, timeout)
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
                status, headers, body = self._session.get(params)
            except Exception as exc:  # connection errors and timeouts are retried
                last_error = exc
                continue
            if status == 200:
                return self._parse(query, body)
            last_error = OracleError(f"request failed with status {status}")
            # Asking again cannot change a client error's answer, except for
            # a request timeout or a rate limit.
            if 400 <= status < 500 and status not in (408, 429):
                raise last_error
            if status in (429, 503):
                from .transport import retry_after_s

                retry_after = retry_after_s(headers)
                if retry_after > MAX_BACKOFF_S:
                    raise OracleError(
                        f"request failed with status {status}, retry after {retry_after:.0f} s"
                    )
        raise OracleError(f"backend unavailable after {self.max_retries} attempts: {last_error}")

    @staticmethod
    def _parse(query: OracleQuery, body: bytes) -> int | list[Snippet]:
        try:
            payload = json.loads(body)
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
