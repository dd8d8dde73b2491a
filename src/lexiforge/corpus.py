"""Tagged-corpus model: parse tagger output into sentences.

Input format is one token per line, ``surface<TAB>pos<TAB>lemma``. A blank
line, a SENT-tagged token or a ``#DOC <id>`` line closes the current
sentence; the document id is not kept. Everything downstream works on
lemmas, so inflected variants of the same unit ("appareils de chauffage" /
"appareil de chauffage") count together.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Mapping

from .config import COARSE_TAGS, TAGSETS, InputError

DOC_PREFIX = "#DOC"


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
class TaggedCorpus:
    """Immutable after parsing; safe for concurrent readers."""

    sentences: tuple[Sentence, ...]


def parse_tagged_corpus(
    source: io.TextIOBase | str | Iterable[str],
    tagset: Mapping[str, str] = TAGSETS["coarse"],
) -> TaggedCorpus:
    """Parse token-per-line tagger output into a TaggedCorpus.

    ``source`` may be an open text stream, a string, or an iterable of lines;
    ``tagset`` maps each raw tag to its coarse class (see ``TAGSETS``).
    Malformed lines and tags missing from the tagset raise ``InputError``
    naming the stream (``<corpus>`` when it has no name) and the line.
    """
    path = getattr(source, "name", "<corpus>")
    if isinstance(source, str):
        lines: Iterable[str] = io.StringIO(source)
    else:
        lines = source

    sentences: list[Sentence] = []
    tokens: list[TaggedToken] = []

    def close_sentence():
        nonlocal tokens
        if tokens:
            sentences.append(tuple(tokens))
            tokens = []

    # Token lines repeat heavily; each distinct line is parsed once and its
    # (frozen) token shared. Only a line's first occurrence can raise.
    parsed: dict[str, TaggedToken] = {}
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.rstrip("\n").rstrip("\r")
        token = parsed.get(line)
        if token is None:
            if not line.strip() or line.startswith(DOC_PREFIX) and (
                line == DOC_PREFIX or line[len(DOC_PREFIX)] in (" ", "\t")
            ):
                close_sentence()
                continue
            token = parsed[line] = _parse_token_line(line, path, lineno, tagset)
        tokens.append(token)
        if token.pos == "SENT":
            close_sentence()

    close_sentence()
    return TaggedCorpus(tuple(sentences))


def _parse_token_line(line: str, path: str, lineno: int, tagset: Mapping[str, str]) -> TaggedToken:
    fields = line.split("\t")
    if len(fields) != 3:
        raise InputError(path, lineno, f"expected 3 tab-separated fields, got {len(fields)}")
    surface, raw_tag, lemma = (f.strip() for f in fields)
    pos = tagset.get(raw_tag)
    if pos is None:
        raise InputError(path, lineno, f"unknown tag {raw_tag!r}")
    try:
        return TaggedToken(surface, pos, lemma)
    except ValueError as exc:
        raise InputError(path, lineno, str(exc)) from None

