"""Extract candidate complex lexical units (CLUs) from a tagged corpus.

Three contiguous, within-sentence patterns are recognized: NOUN+ADJ,
NOUN+"de"+NOUN and NOUN+"d'"+NOUN. The head is the first noun; inflection is
collapsed by matching on lemmas. Candidates are kept when they recur in the
corpus (``extract.corpus_freq_min``) and, in a second step, when a search
oracle sees the phrase often enough on the open web.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from .config import InputError, read_rows
from .corpus import Sentence
from .oracle import OracleError, SearchOracle, is_count, or_query

DE_SURFACES = {"de"}
D_APOSTROPHE_SURFACES = {"d'", "d’"}

# Article set for the "article-preceded" web-frequency test; the elided form
# attaches without a space.
ARTICLES = ("le", "la", "l'", "les", "un", "une")


class UlcPattern(enum.Enum):
    NOUN_ADJ = "NOUN_ADJ"
    NOUN_DE_NOUN = "NOUN_DE_NOUN"
    NOUN_D_NOUN = "NOUN_D_NOUN"


class FilterStatus(enum.Enum):
    ACCEPTED = "ACCEPTED"
    REJECTED = "REJECTED"
    UNRESOLVED_ORACLE = "UNRESOLVED_ORACLE"


@dataclass(frozen=True)
class SourceUlc:
    """A two-lexeme source unit: semantic head plus its direct co-occurrent."""

    head_lemma: str
    modifier_lemma: str
    pattern: UlcPattern
    surface: str
    corpus_freq: int = 0
    oracle_literal_freq: int | None = None
    oracle_article_freq: int | None = None

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.head_lemma, self.modifier_lemma, self.pattern.value)

    def content_lemmas(self) -> tuple[str, str]:
        return (self.head_lemma, self.modifier_lemma)


@dataclass(frozen=True)
class WebFilterVerdict:
    ulc: SourceUlc
    status: FilterStatus

    @property
    def accepted(self) -> bool:
        return self.status is FilterStatus.ACCEPTED


def _join_surfaces(tokens) -> str:
    parts = []
    for token in tokens:
        surface = token.surface.lower()
        if parts and parts[-1].endswith(("'", "’")):
            parts[-1] += surface
        else:
            parts.append(surface)
    return " ".join(parts)


def _match_at(sentence: Sentence, i: int) -> tuple[UlcPattern, str, str, str] | None:
    tokens = sentence
    if tokens[i].pos != "NOUN":
        return None
    if i + 1 < len(tokens) and tokens[i + 1].pos == "ADJ":
        surface = _join_surfaces(tokens[i : i + 2])
        return (UlcPattern.NOUN_ADJ, tokens[i].lemma, tokens[i + 1].lemma, surface)
    if i + 2 < len(tokens) and tokens[i + 1].pos == "PREP" and tokens[i + 2].pos == "NOUN":
        link = tokens[i + 1].surface.lower()
        surface = _join_surfaces(tokens[i : i + 3])
        if link in DE_SURFACES:
            return (UlcPattern.NOUN_DE_NOUN, tokens[i].lemma, tokens[i + 2].lemma, surface)
        if link in D_APOSTROPHE_SURFACES:
            return (UlcPattern.NOUN_D_NOUN, tokens[i].lemma, tokens[i + 2].lemma, surface)
    return None


def extract_ulcs(sentences: Iterable[Sentence], min_corpus_freq: int) -> list[SourceUlc]:
    """Scan the corpus's sentences for pattern matches and keep the recurrent ones.

    Results are de-duplicated on (head, modifier, pattern); inflectional
    variants pool their counts and the unit keeps its most frequent surface
    form, which is what later web queries search for. Output is ordered by
    descending corpus frequency, then surface, so it is independent of
    document order.
    """
    # (head, modifier, pattern) -> surface -> count; a unit's frequency is the sum.
    surfaces: dict[tuple[str, str, UlcPattern], dict[str, int]] = {}
    for sentence in sentences:
        for i in range(len(sentence)):
            match = _match_at(sentence, i)
            if match is None:
                continue
            pattern, head, modifier, surface = match
            variants = surfaces.setdefault((head, modifier, pattern), {})
            variants[surface] = variants.get(surface, 0) + 1
    units = [
        SourceUlc(head, modifier, pattern, min(variants, key=lambda s: (-variants[s], s)), freq)
        for (head, modifier, pattern), variants in surfaces.items()
        if (freq := sum(variants.values())) >= min_corpus_freq
    ]
    units.sort(key=lambda u: (-u.corpus_freq, u.surface, u.pattern.value))
    return units


def build_article_query(surface: str) -> str:
    """OR-combined exact-phrase query over the article-preceded variants."""
    return or_query(
        f"{article}{surface}" if article.endswith("'") else f"{article} {surface}" for article in ARTICLES
    )


def web_filter_ulc(
    ulc: SourceUlc,
    oracle: SearchOracle,
    literal_min: int,
    article_min: int,
) -> WebFilterVerdict:
    """Accept a unit when the oracle sees it often enough, both bare and
    preceded by an article. Oracle failures leave the unit unresolved rather
    than rejected, so a later run with a warmer cache can retry it.
    """
    try:
        literal = oracle.phrase_count(ulc.surface)
        article = oracle.phrase_count(build_article_query(ulc.surface))
    except OracleError:
        return WebFilterVerdict(ulc, FilterStatus.UNRESOLVED_ORACLE)
    checked = replace(ulc, oracle_literal_freq=literal, oracle_article_freq=article)
    if literal >= literal_min and article >= article_min:
        return WebFilterVerdict(checked, FilterStatus.ACCEPTED)
    return WebFilterVerdict(checked, FilterStatus.REJECTED)


def filter_ulcs(
    ulcs: Sequence[SourceUlc],
    oracle: SearchOracle,
    literal_min: int,
    article_min: int,
    max_ulcs: int | None,
) -> list[WebFilterVerdict]:
    """Web-filter every unit; an optional cap keeps only the N accepted units
    with the highest literal web counts."""
    verdicts = [web_filter_ulc(u, oracle, literal_min, article_min) for u in ulcs]
    if max_ulcs is not None:
        accepted = [v for v in verdicts if v.accepted]
        accepted.sort(
            key=lambda v: (-(v.ulc.oracle_literal_freq or 0), v.ulc.surface, v.ulc.pattern.value)
        )
        keep = {v.ulc.key for v in accepted[:max_ulcs]}
        verdicts = [
            v
            if not v.accepted or v.ulc.key in keep
            else WebFilterVerdict(v.ulc, FilterStatus.REJECTED)
            for v in verdicts
        ]
    return verdicts


def write_ulcs(units: Iterable[SourceUlc], out: TextIO) -> None:
    """Tab-separated dump; unresolved oracle counts are written as ``-``."""
    for u in units:
        literal = "-" if u.oracle_literal_freq is None else str(u.oracle_literal_freq)
        article = "-" if u.oracle_article_freq is None else str(u.oracle_article_freq)
        out.write(
            "\t".join(
                [
                    u.head_lemma,
                    u.modifier_lemma,
                    u.pattern.value,
                    u.surface,
                    str(u.corpus_freq),
                    literal,
                    article,
                ]
            )
            + "\n"
        )


def read_ulcs(source: TextIO | str | Path) -> list[SourceUlc]:
    units = []
    for path, lineno, fields in read_rows(source, 7):
        head, modifier, pattern, surface, freq, literal, article = fields
        try:
            counts = [int(freq), *(None if c == "-" else int(c) for c in (literal, article))]
            if not all(c is None or is_count(c) for c in counts):
                raise ValueError(f"counts must be non-negative and fit a float: {freq} {literal} {article}")
            unit = SourceUlc(head, modifier, UlcPattern(pattern), surface, *counts)
        except ValueError as exc:
            raise InputError(path, lineno, str(exc)) from None
        units.append(unit)
    return units
