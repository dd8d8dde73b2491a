"""Tagged-corpus model: parse tagger output and answer phrase-frequency queries.

Input format is one token per line, ``surface<TAB>pos<TAB>lemma``. A blank
line or a SENT-tagged token closes the current sentence; a ``#DOC <id>`` line
starts a new document. Everything downstream works on lemmas, so inflected
variants of the same unit ("appareils de chauffage" / "appareil de
chauffage") count together.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .config import InputError

# Coarse word classes used by the pattern matcher. Raw tagger tags are mapped
# onto these at parse time; the mapping is configurable per tagger.
COARSE_TAGS = frozenset(
    {"NOUN", "ADJ", "PREP", "DET", "SENT", "VERB", "ADV", "PRON", "CONJ", "NUM", "OTHER"}
)

DOC_PREFIX = "#DOC"


@dataclass(frozen=True)
class Tagset:
    """Maps raw tagger tags to the coarse classes in COARSE_TAGS."""

    mapping: Mapping[str, str]

    def __post_init__(self):
        bad = {c for c in self.mapping.values() if c not in COARSE_TAGS}
        if bad:
            raise ValueError(f"unknown coarse classes in tagset: {sorted(bad)}")

    def resolve(self, raw_tag: str) -> str:
        try:
            return self.mapping[raw_tag]
        except KeyError:
            raise KeyError(raw_tag) from None

    def extended(self, extra: Mapping[str, str]) -> "Tagset":
        merged = dict(self.mapping)
        merged.update(extra)
        return Tagset(merged)

    @classmethod
    def coarse(cls) -> "Tagset":
        """Identity tagset: input is already tagged with the coarse classes."""
        return cls({t: t for t in COARSE_TAGS})

    @classmethod
    def treetagger_french(cls) -> "Tagset":
        """Mapping for the French TreeTagger tag inventory."""
        mapping = {t: t for t in COARSE_TAGS}
        mapping.update(
            {
                "NOM": "NOUN",
                "NAM": "NOUN",
                "ABR": "NOUN",
                "ADJ": "ADJ",
                "PRP": "PREP",
                "PRP:det": "PREP",
                "DET:ART": "DET",
                "DET:POS": "DET",
                "SENT": "SENT",
                "PUN": "OTHER",
                "PUN:cit": "OTHER",
                "SYM": "OTHER",
                "NUM": "NUM",
                "ADV": "ADV",
                "KON": "CONJ",
                "INT": "OTHER",
                "PRO": "PRON",
                "PRO:DEM": "PRON",
                "PRO:IND": "PRON",
                "PRO:PER": "PRON",
                "PRO:POS": "PRON",
                "PRO:REL": "PRON",
                "VER:cond": "VERB",
                "VER:futu": "VERB",
                "VER:impe": "VERB",
                "VER:impf": "VERB",
                "VER:infi": "VERB",
                "VER:pper": "VERB",
                "VER:ppre": "VERB",
                "VER:pres": "VERB",
                "VER:simp": "VERB",
                "VER:subi": "VERB",
                "VER:subp": "VERB",
            }
        )
        return cls(mapping)

    @classmethod
    def named(cls, name: str) -> "Tagset":
        if name == "coarse":
            return cls.coarse()
        if name in ("treetagger-fr", "treetagger_french"):
            return cls.treetagger_french()
        raise ValueError(f"unknown tagset name: {name!r}")


@dataclass(frozen=True)
class TaggedToken:
    surface: str
    pos: str
    lemma: str

    def __post_init__(self):
        if not self.surface:
            raise ValueError("empty surface")
        if not self.lemma:
            raise ValueError("empty lemma")
        if self.pos not in COARSE_TAGS:
            raise ValueError(f"pos {self.pos!r} not a coarse tag")


Sentence = tuple[TaggedToken, ...]


@dataclass(frozen=True)
class Document:
    doc_id: str
    sentences: tuple[Sentence, ...]


@dataclass(frozen=True)
class TaggedCorpus:
    """Immutable after parsing; safe for concurrent readers."""

    documents: tuple[Document, ...]

    @property
    def doc_count(self) -> int:
        return len(self.documents)

    def iter_sentences(self) -> Iterator[Sentence]:
        for doc in self.documents:
            yield from doc.sentences

    def token_count(self) -> int:
        return sum(len(s) for s in self.iter_sentences())


def parse_tagged_corpus(
    source: io.TextIOBase | str | Iterable[str],
    tagset: Tagset | None = None,
) -> TaggedCorpus:
    """Parse token-per-line tagger output into a TaggedCorpus.

    ``source`` may be an open text stream, a string, or an iterable of lines.
    Malformed lines and tags missing from the tagset raise ``InputError``
    naming the stream (``<corpus>`` when it has no name) and the line.
    """
    if tagset is None:
        tagset = Tagset.coarse()
    path = getattr(source, "name", "<corpus>")
    if isinstance(source, str):
        lines: Iterable[str] = io.StringIO(source)
    else:
        lines = source

    documents: list[Document] = []
    sentences: list[Sentence] = []
    tokens: list[TaggedToken] = []
    doc_id: str | None = None

    def close_sentence():
        nonlocal tokens
        if tokens:
            sentences.append(tuple(tokens))
            tokens = []

    def close_document():
        nonlocal sentences, doc_id
        close_sentence()
        if doc_id is not None or sentences:
            documents.append(Document(doc_id if doc_id is not None else "0", tuple(sentences)))
        sentences = []
        doc_id = None

    # Token lines repeat heavily; each distinct line is parsed once and its
    # (frozen) token shared. Only a line's first occurrence can raise.
    parsed: dict[str, TaggedToken] = {}
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.rstrip("\n").rstrip("\r")
        token = parsed.get(line)
        if token is None:
            if not line.strip():
                close_sentence()
                continue
            if line.startswith(DOC_PREFIX) and (
                line == DOC_PREFIX or line[len(DOC_PREFIX)] in (" ", "\t")
            ):
                close_document()
                new_id = line[len(DOC_PREFIX) :].strip()
                doc_id = new_id if new_id else str(len(documents))
                continue
            token = parsed[line] = _parse_token_line(line, path, lineno, tagset)
        tokens.append(token)
        if token.pos == "SENT":
            close_sentence()

    close_document()
    return TaggedCorpus(tuple(documents))


def _parse_token_line(line: str, path: str, lineno: int, tagset: Tagset) -> TaggedToken:
    fields = line.split("\t")
    if len(fields) != 3:
        raise InputError(path, lineno, f"expected 3 tab-separated fields, got {len(fields)}")
    surface, raw_tag, lemma = (f.strip() for f in fields)
    try:
        pos = tagset.resolve(raw_tag)
    except KeyError:
        raise InputError(path, lineno, f"unknown tag {raw_tag!r}") from None
    try:
        return TaggedToken(surface, pos, lemma)
    except ValueError as exc:
        raise InputError(path, lineno, str(exc)) from None


def phrase_frequency(corpus: TaggedCorpus, lemmas: Sequence[str]) -> int:
    """Count contiguous, within-sentence occurrences of a lemma sequence."""
    if not lemmas:
        raise ValueError("empty lemma sequence")
    target = tuple(lemmas)
    n = len(target)
    total = 0
    for sentence in corpus.iter_sentences():
        sent_lemmas = tuple(tok.lemma for tok in sentence)
        for i in range(len(sent_lemmas) - n + 1):
            if sent_lemmas[i : i + n] == target:
                total += 1
    return total
