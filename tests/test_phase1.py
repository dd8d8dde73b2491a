import pytest
from hypothesis import given, strategies as st

from lexiforge.extraction import UlcPattern
from lexiforge.generation import TranslationRule, generate_candidates
from lexiforge.oracle import OracleError, SearchOracle
from lexiforge.phase1 import frequency_verdict, validate_by_frequency

from conftest import CFG, FakeBackend, make_dictionary, make_ulc

MASS_COUNT = 764_000_000
MIDNIGHT_MASS_COUNT = 336_000
MASS_OF_MIDNIGHT_COUNT = 65


def midnight_mass_setup(scale=1):
    d = make_dictionary([("messe", "NOUN", ["mass"]), ("minuit", "NOUN", ["midnight"])])
    ulc = make_ulc("messe", "minuit", UlcPattern.NOUN_DE_NOUN)
    cands = generate_candidates(ulc, d)
    backend = FakeBackend()
    backend.count("mass", MASS_COUNT * scale)
    backend.count('"the mass of midnight" OR "a mass of midnight"', MASS_OF_MIDNIGHT_COUNT * scale)
    backend.count('"the midnight mass" OR "a midnight mass"', MIDNIGHT_MASS_COUNT * scale)
    return cands, SearchOracle(backend)


def test_midnight_mass_worked_example():
    cands, oracle = midnight_mass_setup()
    winner, verdicts = validate_by_frequency(cands, oracle, CFG.use_an)
    assert winner.target_surface == "midnight mass"
    by_surface = {v.candidate.target_surface: v for v in verdicts}
    accepted = by_surface["midnight mass"]
    rejected = by_surface["mass of midnight"]
    # stated rule: 764,000,000 / 10,000 = 76,400
    assert accepted.threshold == 76_400
    assert accepted.candidate_count == 336_000
    assert accepted.accepted
    assert rejected.candidate_count == 65
    assert not rejected.accepted


def test_zero_head_count_still_rejects_unseen_candidates():
    verdict = frequency_verdict(_dummy_candidate(), candidate_count=0, head_target_count=0)
    assert verdict.threshold == 0
    assert not verdict.accepted
    # but an observed candidate passes a zero threshold
    assert frequency_verdict(_dummy_candidate(), 1, 0).accepted


def _dummy_candidate():
    d = make_dictionary([("gare", "NOUN", ["station"]), ("central", "ADJ", ["central"])])
    ulc = make_ulc("gare", "central", UlcPattern.NOUN_ADJ, "gare centrale")
    return generate_candidates(ulc, d)[0]


def test_highest_count_wins_among_accepted():
    d = make_dictionary(
        [("institut", "NOUN", ["institute"]), ("psychologie", "NOUN", ["psychology"])]
    )
    ulc = make_ulc("institut", "psychologie", UlcPattern.NOUN_DE_NOUN)
    cands = generate_candidates(ulc, d)
    backend = FakeBackend()
    backend.count("institute", 100_000)
    backend.count('"the institute of psychology" OR "a institute of psychology"', 5_000)
    backend.count('"the psychology institute" OR "a psychology institute"', 7_000)
    winner, verdicts = validate_by_frequency(cands, SearchOracle(backend), CFG.use_an)
    assert winner.target_surface == "psychology institute"
    # verified against a direct max() over the accepted verdicts
    accepted = [v for v in verdicts if v.accepted]
    assert winner.target_surface == max(accepted, key=lambda v: v.candidate_count).candidate.target_surface


def test_tie_broken_by_rule_priority_n2n1_first():
    d = make_dictionary([("institut", "NOUN", ["institute"]), ("psychologie", "NOUN", ["psychology"])])
    ulc = make_ulc("institut", "psychologie", UlcPattern.NOUN_DE_NOUN)
    cands = generate_candidates(ulc, d)
    backend = FakeBackend()
    backend.count("institute", 0)
    backend.count('"the institute of psychology" OR "a institute of psychology"', 5_000)
    backend.count('"the psychology institute" OR "a psychology institute"', 5_000)
    winner, _ = validate_by_frequency(cands, SearchOracle(backend), CFG.use_an)
    assert winner.rule is TranslationRule.N2_N1


def test_oracle_failure_propagates():
    cands, _ = midnight_mass_setup()
    with pytest.raises(OracleError):
        validate_by_frequency(cands, SearchOracle(FakeBackend()), CFG.use_an)


@pytest.mark.parametrize("scale", [1, 10, 1000])
def test_scaling_all_counts_preserves_decisions(scale):
    cands, oracle = midnight_mass_setup(scale)
    winner, verdicts = validate_by_frequency(cands, oracle, CFG.use_an)
    assert winner.target_surface == "midnight mass"
    assert [v.accepted for v in verdicts] == [
        v.accepted for v in validate_by_frequency(*midnight_mass_setup(), CFG.use_an)[1]
    ]


@given(st.integers(1, 10**7), st.integers(0, 10**9), st.integers(1, 50))
def test_ratio_invariance_property(candidate_count, head_count, factor):
    base = frequency_verdict(_dummy_candidate(), candidate_count, head_count)
    scaled = frequency_verdict(_dummy_candidate(), candidate_count * factor, head_count * factor)
    assert base.accepted == scaled.accepted


def test_rejected_candidates_not_in_output():
    cands, oracle = midnight_mass_setup()
    winner, verdicts = validate_by_frequency(cands, oracle, CFG.use_an)
    rejected_surfaces = {v.candidate.target_surface for v in verdicts if not v.accepted}
    assert winner.target_surface not in rejected_surfaces


def test_kept_never_exceeds_generated_per_pattern():
    cands, oracle = midnight_mass_setup()
    _, verdicts = validate_by_frequency(cands, oracle, CFG.use_an)
    assert sum(1 for v in verdicts if v.accepted) <= len(cands)

