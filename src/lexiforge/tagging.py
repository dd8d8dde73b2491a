"""Snippet tagging for lexical-world construction.

Snippet text is noisy, so the tagger interface is deliberately small:
``tag`` takes raw text and returns (lemma, coarse pos) pairs in order, and
``count`` takes many texts and returns how often each NOUN or ADJ pair
occurs across all of them: exactly the totals of counting the NOUN and ADJ
pairs of ``tag(t)`` for every text ``t``. World building reads only those
totals, so a tagger may compute them however it likes. Production setups
can plug a real tagger; one that reads context can implement ``count`` as
a ``Counter`` over the NOUN and ADJ pairs of its own ``tag`` output.

The shipped fallback looks words up in a flat lexicon file
(``surface<TAB>pos<TAB>lemma``) and tags everything unknown as OTHER, which
keeps it out of the noun/adjective worlds. It tags each word on its own and
no word spans whitespace, so its ``count`` splits the texts on whitespace
and tags each distinct chunk only once per tagger. It remembers the chunks
it has tagged, and the NOUN and ADJ tags of the few that have any; only
occurrences of those few are counted. Snippets repeat most of their chunks
across worlds, and most chunks are unknown or function words, so after the
first worlds a call does little beyond the split and one filtered count.
"""

from __future__ import annotations

from collections import Counter
from importlib import resources
from pathlib import Path
from typing import Iterable, Protocol, TextIO

from .backends import tokenize
from .config import read_rows


class SnippetTagger(Protocol):
    def tag(self, text: str) -> list[tuple[str, str]]:
        """(lemma, pos) for each token of ``text``, in order."""
        ...

    def count(self, texts: Iterable[str]) -> dict[tuple[str, str], int]:
        """Occurrences of each NOUN or ADJ (lemma, pos) over the tokens of all
        ``texts``; equal to a ``Counter`` over the NOUN and ADJ pairs of
        ``tag(t)`` for every ``t``."""
        ...


class LexiconTagger:
    """Word-list tagger: surface form -> (lemma, pos), unknown -> OTHER."""

    def __init__(self, entries: Iterable[tuple[str, str, str]]):
        self._table: dict[str, tuple[str, str]] = {}
        for surface, pos, lemma in entries:
            self._table[surface.lower()] = (lemma.lower(), pos)
        # Whitespace-free chunk -> its NOUN and ADJ tags (only chunks that
        # have any), and every chunk tagged so far. Tags are stored before
        # their chunk is marked seen, so workers sharing a tagger need no lock.
        self._content_tags: dict[str, tuple[tuple[str, str], ...]] = {}
        self._seen: set[str] = set()

    @classmethod
    def from_file(cls, source: TextIO | str | Path) -> "LexiconTagger":
        return cls(fields for _, _, fields in read_rows(source, 3))

    def tag(self, text: str) -> list[tuple[str, str]]:
        table = self._table
        # Known words share their table entry's tuple.
        return [table.get(token) or (token, "OTHER") for token in tokenize(text)]

    def count(self, texts: Iterable[str]) -> dict[tuple[str, str], int]:
        # Exact because tokens are letter runs: none contains or crosses
        # whitespace, so tagging each chunk alone gives the same tokens.
        chunks = " ".join(texts).split()
        content, seen = self._content_tags, self._seen
        for chunk in set(chunks).difference(seen):
            tags = tuple(pair for pair in self.tag(chunk) if pair[1] in ("NOUN", "ADJ"))
            if tags:
                content[chunk] = tags
            seen.add(chunk)
        totals: dict[tuple[str, str], int] = {}
        for chunk, n in Counter(filter(content.__contains__, chunks)).items():
            for pair in content[chunk]:
                totals[pair] = totals.get(pair, 0) + n
        return totals

    def __len__(self) -> int:
        return len(self._table)


def _data_text(filename: str) -> str:
    return resources.files("lexiforge.data").joinpath(filename).read_text(encoding="utf-8")


def load_stopwords(lang: str) -> frozenset[str]:
    """Stopword set for ``lang``; ships lists for fr and en."""
    text = _data_text(f"stopwords_{lang}.txt")
    return frozenset(w.strip().lower() for w in text.splitlines() if w.strip())


def default_tagger(lang: str) -> LexiconTagger:
    """The shipped lexicon tagger for ``lang`` (fr and en available)."""
    import io

    return LexiconTagger.from_file(io.StringIO(_data_text(f"tagger_{lang}.tsv")))
