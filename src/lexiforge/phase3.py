"""Mining translations from mixed-language snippets.

Units that survive phases 1 and 2 untranslated, or whose constituents are
missing from the dictionary, are searched as source-language phrases inside
target-language pages. The returned snippets are largely bilingual, and two
successive strategies mine candidate translations from them: graphic
cognates (same first four characters after case and diacritic folding),
then the most frequent token bigrams. Both feed the phase-2 validation
filters; frequent pairs only run when cognates produced nothing.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Sequence

from .backends import tokenize
from .extraction import SourceUlc
from .generation import CandidateOrigin, CandidateTranslation
from .phase2 import WorldContext, run_phase2

COGNATE_PREFIX_LEN = 4


def normalize_token(token: str) -> str:
    """Lowercase and strip diacritics, so "café" and "Cafe" compare equal."""
    decomposed = unicodedata.normalize("NFD", token.lower())
    return "".join(c for c in decomposed if not unicodedata.combining(c))


def cognate_prefix(word: str) -> str | None:
    """First four normalized characters, or None for words that are too
    short to anchor a cognate comparison."""
    normalized = normalize_token(word)
    if len(normalized) < COGNATE_PREFIX_LEN:
        return None
    return normalized[:COGNATE_PREFIX_LEN]


def is_cognate_pair(source_word: str, target_word: str) -> bool:
    prefix = cognate_prefix(source_word)
    return prefix is not None and cognate_prefix(target_word) == prefix


def _bigram_allowed(
    bigram: tuple[str, str], source_tokens: set[str], source_stopwords: frozenset[str]
) -> bool:
    # Crude target-language test: neither token is a source stopword nor
    # part of the source phrase itself.
    return all(t not in source_stopwords and t not in source_tokens for t in bigram)


RankedBigrams = list[tuple[tuple[str, str], int]]


def rank_bigrams(
    snippets: Sequence[str],
    ulc: SourceUlc,
    source_stopwords: frozenset[str] = frozenset(),
) -> RankedBigrams:
    """Adjacent-token bigrams of the snippets with their counts, most
    frequent first, then alphabetically. Bigrams holding a source stopword
    or a token of the source phrase are left out. Both miners read this one
    ranking."""
    source_tokens = set(tokenize(ulc.surface))
    counts: dict[tuple[str, str], int] = {}
    for text in snippets:
        tokens = tokenize(text)
        for i in range(len(tokens) - 1):
            bigram = (tokens[i], tokens[i + 1])
            if _bigram_allowed(bigram, source_tokens, source_stopwords):
                counts[bigram] = counts.get(bigram, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def _mined(
    ulc: SourceUlc, bigram: tuple[str, str], count: int, origin: CandidateOrigin
) -> CandidateTranslation:
    """A bigram mined from the snippets as a candidate; its snippet count
    is its ``evidence`` score."""
    return CandidateTranslation(
        ulc, " ".join(bigram), None, origin, scores={"evidence": float(count)}
    )


def find_cognates(ranked: RankedBigrams, ulc: SourceUlc) -> list[CandidateTranslation]:
    """Bigram candidates anchored on a cognate of one of the constituents.

    A snippet token is a cognate match when its first four normalized
    characters equal those of a constituent; constituents shorter than four
    characters are skipped. Candidates are the bigrams of ``ranked``
    containing at least one cognate token, in its order.
    """
    prefixes = {cognate_prefix(constituent) for constituent in ulc.content_lemmas()} - {None}
    if not prefixes:
        return []
    return [
        _mined(ulc, bigram, count, CandidateOrigin.COGNATE)
        for bigram, count in ranked
        if any(cognate_prefix(t) in prefixes for t in bigram)
    ]


def find_frequent_pairs(
    ranked: RankedBigrams,
    ulc: SourceUlc,
    min_pair_freq: int,
    top_pairs: int,
) -> list[CandidateTranslation]:
    """The ``top_pairs`` most recurrent bigrams of ``ranked`` seen at least
    ``min_pair_freq`` times, as candidates."""
    candidates = []
    for bigram, count in ranked:
        if len(candidates) >= top_pairs:
            break
        if count >= min_pair_freq:
            candidates.append(_mined(ulc, bigram, count, CandidateOrigin.FREQUENT_PAIR))
    return candidates


@dataclass
class Phase3Result:
    winner: CandidateTranslation | None
    snippet_count: int
    cognate_candidates: list[CandidateTranslation]
    pair_candidates: list[CandidateTranslation]


def run_phase3(ulc: SourceUlc, ctx: WorldContext) -> Phase3Result:
    """Mine and validate: cognates first, frequent pairs only if cognates
    yield no validated translation. Snippets come from target-language pages
    that contain the source phrase; the ``phase3.*`` settings come from
    ``ctx.cfg``, and mined candidates go through ``run_phase2``. An
    ``OracleError`` from any query propagates, so frequent pairs never
    stand in for cognates whose validation failed."""
    cfg = ctx.cfg
    snippets = ctx.oracle.mixed_snippets(ulc.surface, cfg.target_lang, cfg.phase3_snippet_limit)
    if not snippets:
        return Phase3Result(None, 0, [], [])

    ranked = rank_bigrams(snippets, ulc, ctx.source_stopwords)
    cognates = find_cognates(ranked, ulc)
    if cognates:
        winner = run_phase2(ulc, cognates, ctx).winner
        if winner is not None:
            return Phase3Result(winner, len(snippets), cognates, [])

    pairs = find_frequent_pairs(ranked, ulc, cfg.min_pair_freq, cfg.top_pairs)
    winner = run_phase2(ulc, pairs, ctx).winner if pairs else None
    return Phase3Result(winner, len(snippets), cognates, pairs)
