"""Compositional candidate generation and validation-query construction.

Candidates are the Cartesian product of the constituents' dictionary
translations crossed with the transformation rules for the source pattern:
noun+"de/d'"+noun maps to both "N1 of N2" and "N2 N1", noun+adjective maps
to "ADJ N". Validation queries reproduce the article-prefixed exact-phrase
pattern, "the ..." OR "a ...", with the literal article "a" by default even
before vowels (pass use_an=True for "an").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .dictionary import BilingualDictionary, modifier_pos
from .extraction import SourceUlc, UlcPattern
from .oracle import or_query

VOWELS = "aeiou"


class TranslationRule(enum.Enum):
    N1_OF_N2 = "N1_OF_N2"
    N2_N1 = "N2_N1"
    ADJ_N = "ADJ_N"


class CandidateOrigin(enum.Enum):
    GENERATED = "GENERATED"
    COGNATE = "COGNATE"
    FREQUENT_PAIR = "FREQUENT_PAIR"


RULES_BY_PATTERN = {
    UlcPattern.NOUN_ADJ: (TranslationRule.ADJ_N,),
    UlcPattern.NOUN_DE_NOUN: (TranslationRule.N1_OF_N2, TranslationRule.N2_N1),
    UlcPattern.NOUN_D_NOUN: (TranslationRule.N1_OF_N2, TranslationRule.N2_N1),
}


@dataclass
class CandidateTranslation:
    source: SourceUlc
    target_surface: str
    rule: TranslationRule | None
    origin: CandidateOrigin
    head_target: str | None = None
    scores: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.target_surface:
            raise ValueError("empty target surface")
        if self.rule is not None and self.rule not in RULES_BY_PATTERN[self.source.pattern]:
            raise ValueError(
                f"rule {self.rule.value} not applicable to pattern {self.source.pattern.value}"
            )


def _apply_rule(rule: TranslationRule, head_tr: str, mod_tr: str) -> str:
    if rule is TranslationRule.N1_OF_N2:
        return f"{head_tr} of {mod_tr}"
    # N2_N1 and ADJ_N both put the modifier's translation first.
    return f"{mod_tr} {head_tr}"


def generate_candidates(
    ulc: SourceUlc, dictionary: BilingualDictionary
) -> list[CandidateTranslation]:
    """All rule-transformed combinations of the constituents' translations.

    Deterministic: dictionary order crossed with the fixed rule order,
    de-duplicated on the target phrase. A constituent missing from the
    dictionary yields an empty list (such units are mined, not generated).
    """
    head_translations = dictionary.lookup(ulc.head_lemma, "NOUN")
    mod_translations = dictionary.lookup(ulc.modifier_lemma, modifier_pos(ulc.pattern))
    if not head_translations or not mod_translations:
        return []

    candidates = []
    seen = set()
    for head_tr in head_translations:
        for mod_tr in mod_translations:
            for rule in RULES_BY_PATTERN[ulc.pattern]:
                surface = _apply_rule(rule, head_tr.lower(), mod_tr.lower())
                if surface in seen:
                    continue
                seen.add(surface)
                candidates.append(
                    CandidateTranslation(
                        source=ulc,
                        target_surface=surface,
                        rule=rule,
                        origin=CandidateOrigin.GENERATED,
                        head_target=head_tr.lower(),
                    )
                )
    return candidates


def _article(phrase: str, use_an: bool) -> str:
    if use_an and phrase[:1].lower() in VOWELS:
        return "an"
    return "a"


def build_validation_query(candidate: CandidateTranslation, use_an: bool = False) -> str:
    """Exact-phrase OR-query testing the candidate behind "the" and "a"."""
    phrase = candidate.target_surface
    return or_query((f"the {phrase}", f"{_article(phrase, use_an)} {phrase}"))
