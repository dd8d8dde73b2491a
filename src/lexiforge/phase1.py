"""Frequency validation for non-polysemous compositional candidates.

A candidate passes when its web count reaches one ten-thousandth of the
count of its translated head noun, compared exactly in integers
(``count * 10_000 >= head count``); the reported threshold is that ratio
rounded up. Among passing candidates the most frequent one wins, so each
source unit yields at most one translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .generation import CandidateTranslation, TranslationRule, build_validation_query
from .oracle import SearchOracle

THRESHOLD_DIVISOR = 10_000

# Tie-break order when two accepted candidates have equal counts.
_RULE_PRIORITY = {
    TranslationRule.N2_N1: 0,
    TranslationRule.N1_OF_N2: 1,
    TranslationRule.ADJ_N: 2,
}


@dataclass(frozen=True)
class FrequencyVerdict:
    candidate: CandidateTranslation
    candidate_count: int
    head_target_count: int
    threshold: int
    accepted: bool


def frequency_verdict(
    candidate: CandidateTranslation, candidate_count: int, head_target_count: int
) -> FrequencyVerdict:
    """Apply the one-ten-thousandth rule to one candidate.

    A candidate never observed on the web (count 0) is always rejected,
    even when a zero head count would make the threshold trivially 0.
    """
    threshold = -(-head_target_count // THRESHOLD_DIVISOR)
    accepted = candidate_count > 0 and candidate_count * THRESHOLD_DIVISOR >= head_target_count
    return FrequencyVerdict(candidate, candidate_count, head_target_count, threshold, accepted)


def validate_by_frequency(
    candidates: Sequence[CandidateTranslation],
    oracle: SearchOracle,
    use_an: bool,
) -> tuple[CandidateTranslation | None, list[FrequencyVerdict]]:
    """Score one unit's candidates and pick the single winner, if any.

    Oracle failures propagate as OracleError so the caller can mark the
    unit unresolved instead of silently rejecting it.
    """
    verdicts = []
    for candidate in candidates:
        if candidate.head_target is None:
            raise ValueError(f"candidate {candidate.target_surface!r} has no head target")
        candidate_count = oracle.phrase_count(build_validation_query(candidate, use_an))
        head_count = oracle.phrase_count(candidate.head_target)
        verdict = frequency_verdict(candidate, candidate_count, head_count)
        candidate.scores["phase1_count"] = float(verdict.candidate_count)
        candidate.scores["phase1_threshold"] = float(verdict.threshold)
        verdicts.append(verdict)

    accepted = [v for v in verdicts if v.accepted]
    if not accepted:
        return None, verdicts
    accepted.sort(
        key=lambda v: (
            -v.candidate_count,
            _RULE_PRIORITY.get(v.candidate.rule, 99),
            v.candidate.target_surface,
        )
    )
    return accepted[0].candidate, verdicts

