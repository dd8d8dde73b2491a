"""Disambiguation of polysemous compositional units via lexical worlds.

Candidates are first thinned by two cheap web filters (the pair must
co-occur in at least one document; the target phrase must be at least as
frequent as the source phrase). The survivors are then compared to the
source unit through "lexical worlds": the most frequent noun and adjective
lemmas (top 50 in the paper, ``phase2.world_size``) of the search snippets
for the phrase (up to 1,000, ``phase2.snippet_limit``), matched across
languages through the bilingual dictionary and scored with a per-category
Jaccard index. ``run_phase2`` reads these settings from ``ctx.cfg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TextIO

from .config import RunConfig
from .dictionary import BilingualDictionary
from .extraction import SourceUlc
from .generation import CandidateTranslation
from .oracle import SearchOracle
from .tagging import SnippetTagger


@dataclass(frozen=True)
class LexicalWorld:
    """Bag-of-context profile of a phrase: its most frequent noun and
    adjective lemmas over the snippets returned for the exact phrase."""

    phrase: str
    lang: str
    nouns: tuple[tuple[str, int], ...]
    adjectives: tuple[tuple[str, int], ...]
    snippet_count: int

    def noun_lemmas(self) -> tuple[str, ...]:
        return tuple(lemma for lemma, _ in self.nouns)

    def adjective_lemmas(self) -> tuple[str, ...]:
        return tuple(lemma for lemma, _ in self.adjectives)


def _jaccard(overlap: tuple[int, int]) -> Fraction:
    intersection, union = overlap
    return Fraction(intersection, union) if union else Fraction(0)


@dataclass(frozen=True)
class WorldSimilarity:
    """Per-category Jaccard, kept as exact (intersection, union) counts."""

    noun_overlap: tuple[int, int]
    adj_overlap: tuple[int, int]

    @property
    def noun_jaccard(self) -> float:
        return float(_jaccard(self.noun_overlap))

    @property
    def adj_jaccard(self) -> float:
        return float(_jaccard(self.adj_overlap))

    @property
    def combined(self) -> float:
        return (self.noun_jaccard + self.adj_jaccard) / 2.0

    @property
    def exact_combined(self) -> Fraction:
        """The combined score without rounding, for ranking."""
        return (_jaccard(self.noun_overlap) + _jaccard(self.adj_overlap)) / 2


@dataclass
class Phase2Result:
    winner: CandidateTranslation | None
    pair_survivors: list[CandidateTranslation]
    ratio_survivors: list[CandidateTranslation]
    scored: list[tuple[CandidateTranslation, WorldSimilarity]]


def _keep_counted(
    candidates: Sequence[CandidateTranslation],
    count_of: Callable[[str], int],
    score: str,
    minimum: int,
) -> list[CandidateTranslation]:
    """Record each candidate's ``count_of(target surface)`` as ``score`` and
    keep those counted at least ``minimum`` times. An ``OracleError`` from
    any count propagates: a unit is never ranked on part of its candidates.
    """
    survivors = []
    for candidate in candidates:
        count = count_of(candidate.target_surface)
        candidate.scores[score] = float(count)
        if count >= minimum:
            survivors.append(candidate)
    return survivors


def parallel_pair_filter(
    source_surface: str,
    candidates: Sequence[CandidateTranslation],
    oracle: SearchOracle,
) -> list[CandidateTranslation]:
    """Keep candidates whose (source, candidate) pair shares a document.
    Every candidate's pair count is asked; an ``OracleError`` propagates."""
    return _keep_counted(
        candidates, lambda target: oracle.pair_count(source_surface, target), "pair_count", 1
    )


def ratio_filter(
    candidates: Sequence[CandidateTranslation],
    source_count: int,
    oracle: SearchOracle,
) -> list[CandidateTranslation]:
    """Exclude candidates strictly less frequent than the source phrase;
    equality survives. An ``OracleError`` propagates."""
    return _keep_counted(candidates, oracle.phrase_count, "web_count", source_count)


def build_lexical_world(
    phrase: str,
    lang: str,
    oracle: SearchOracle,
    tagger: SnippetTagger,
    stopwords: frozenset[str] = frozenset(),
    exclude_lemmas: Iterable[str] = (),
    *,
    snippet_limit: int,
    world_size: int,
) -> LexicalWorld:
    """Fetch snippets for the exact phrase and profile their vocabulary.

    The phrase's own constituent lemmas are excluded so two phrases never
    look similar merely by containing each other. Zero snippets simply
    yield an empty world, which scores 0 downstream.
    """
    snippets = oracle.snippets(phrase, snippet_limit)

    excluded = set(w.lower() for w in exclude_lemmas)
    for lemma, _pos in tagger.tag(phrase):
        excluded.add(lemma)

    freqs: dict[str, dict[str, int]] = {"NOUN": {}, "ADJ": {}}
    for (lemma, pos), n in tagger.count(snippets).items():
        if lemma not in stopwords and lemma not in excluded:
            freqs[pos][lemma] = n

    def top(counts: dict[str, int]) -> tuple[tuple[str, int], ...]:
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return tuple(ranked[:world_size])

    return LexicalWorld(phrase, lang, top(freqs["NOUN"]), top(freqs["ADJ"]), len(snippets))


def _match_category(
    source_lemmas: Sequence[str],
    target_lemmas: Sequence[str],
    dictionary: BilingualDictionary,
    pos: str,
) -> tuple[int, int]:
    """``(intersection, union)`` of one category."""
    target_set = {t.lower() for t in target_lemmas}
    matches = []  # the first matching translation of each matched source lemma
    for lemma in source_lemmas:
        for translation in dictionary.lookup(lemma, pos):
            if translation.lower() in target_set:
                matches.append(translation.lower())
                break
    # Subtract each matched target lemma once: two source lemmas sharing a
    # translation count twice in the intersection but cannot shrink the
    # union twice, or the score could exceed 1.
    return len(matches), len(source_lemmas) + len(target_lemmas) - len(set(matches))


def compare_worlds(
    source: LexicalWorld, target: LexicalWorld, dictionary: BilingualDictionary
) -> WorldSimilarity:
    """Dictionary-mediated Jaccard between two worlds, per category.

    A source lemma is in the intersection when any of its translations for
    the category's word class appears in the target list, and is matched to
    the first such translation; the union is |source| + |target| minus the
    distinct matched target lemmas. Scores stay in [0, 1] and are 0 when a
    category is empty on both sides.
    """
    return WorldSimilarity(
        _match_category(source.noun_lemmas(), target.noun_lemmas(), dictionary, "NOUN"),
        _match_category(source.adjective_lemmas(), target.adjective_lemmas(), dictionary, "ADJ"),
    )


def select_translation(
    scored: Sequence[tuple[CandidateTranslation, WorldSimilarity]],
    noun_jaccard_min: float,
    adj_jaccard_min: float,
) -> CandidateTranslation | None:
    """Highest combined score among candidates clearing both thresholds;
    ties go to the candidate with the higher phrase count. Scores are
    compared as exact fractions, so a tie is never decided by float
    rounding (1/10 + 2/10 ties 3/10 + 0)."""
    eligible = [
        (candidate, similarity)
        for candidate, similarity in scored
        if similarity.noun_jaccard >= noun_jaccard_min
        and similarity.adj_jaccard >= adj_jaccard_min
    ]
    if not eligible:
        return None
    eligible.sort(
        key=lambda pair: (
            -pair[1].exact_combined,
            -pair[0].scores.get("web_count", 0.0),
            pair[0].target_surface,
        )
    )
    return eligible[0][0]


@dataclass
class WorldContext:
    """A run's settings and the collaborators the phases share: the oracle,
    the dictionary, and each language's snippet tagger and stopwords."""

    cfg: RunConfig
    oracle: SearchOracle
    dictionary: BilingualDictionary
    source_tagger: SnippetTagger
    target_tagger: SnippetTagger
    source_stopwords: frozenset[str] = frozenset()
    target_stopwords: frozenset[str] = frozenset()


def run_phase2(
    ulc: SourceUlc,
    candidates: Sequence[CandidateTranslation],
    ctx: WorldContext,
) -> Phase2Result:
    """Full phase-2 cascade for one unit: pair filter, ratio filter,
    world comparison, selection, with the ``phase2.*`` settings of
    ``ctx.cfg``. The unit is decided on every candidate's evidence: an
    ``OracleError`` from any query propagates to the caller."""
    oracle, cfg = ctx.oracle, ctx.cfg
    pair_survivors = parallel_pair_filter(ulc.surface, candidates, oracle)

    ratio_survivors: list[CandidateTranslation] = []
    scored: list[tuple[CandidateTranslation, WorldSimilarity]] = []
    if pair_survivors:
        if ulc.oracle_literal_freq is not None:
            source_count = ulc.oracle_literal_freq
        else:
            source_count = oracle.phrase_count(ulc.surface)
        ratio_survivors = ratio_filter(pair_survivors, source_count, oracle)

    if ratio_survivors:
        source_world = build_lexical_world(
            ulc.surface,
            cfg.source_lang,
            oracle,
            ctx.source_tagger,
            ctx.source_stopwords,
            exclude_lemmas=ulc.content_lemmas(),
            snippet_limit=cfg.snippet_limit,
            world_size=cfg.world_size,
        )
        for candidate in ratio_survivors:
            target_world = build_lexical_world(
                candidate.target_surface,
                cfg.target_lang,
                oracle,
                ctx.target_tagger,
                ctx.target_stopwords,
                snippet_limit=cfg.snippet_limit,
                world_size=cfg.world_size,
            )
            similarity = compare_worlds(source_world, target_world, ctx.dictionary)
            candidate.scores["noun_jaccard"] = similarity.noun_jaccard
            candidate.scores["adj_jaccard"] = similarity.adj_jaccard
            candidate.scores["combined_jaccard"] = similarity.combined
            scored.append((candidate, similarity))

    winner = select_translation(scored, cfg.noun_jaccard_min, cfg.adj_jaccard_min)
    return Phase2Result(winner, pair_survivors, ratio_survivors, scored)


def write_world(world: LexicalWorld, out: TextIO) -> None:
    """One-line inspection dump: phrase, lang, then lemma:freq lists."""
    nouns = ",".join(f"{lemma}:{freq}" for lemma, freq in world.nouns)
    adjs = ",".join(f"{lemma}:{freq}" for lemma, freq in world.adjectives)
    out.write(
        "\t".join([world.phrase, world.lang, str(world.snippet_count), nouns, adjs]) + "\n"
    )
