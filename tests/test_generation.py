import pytest
from hypothesis import given, strategies as st

from lexiforge.extraction import UlcPattern
from lexiforge.generation import (
    CandidateOrigin,
    CandidateTranslation,
    TranslationRule,
    build_validation_query,
    generate_candidates,
)

from conftest import make_dictionary, make_ulc


def test_institut_de_psychologie_two_candidates():
    d = make_dictionary([("institut", "NOUN", ["institute"]), ("psychologie", "NOUN", ["psychology"])])
    ulc = make_ulc("institut", "psychologie", UlcPattern.NOUN_DE_NOUN)
    surfaces = {c.target_surface for c in generate_candidates(ulc, d)}
    assert surfaces == {"institute of psychology", "psychology institute"}


def test_ambiance_musicale_single_candidate():
    d = make_dictionary([("ambiance", "NOUN", ["atmosphere"]), ("musical", "ADJ", ["musical"])])
    ulc = make_ulc("ambiance", "musical", UlcPattern.NOUN_ADJ, "ambiance musicale")
    cands = generate_candidates(ulc, d)
    assert [c.target_surface for c in cands] == ["musical atmosphere"]
    assert cands[0].rule is TranslationRule.ADJ_N
    assert cands[0].head_target == "atmosphere"


def test_3x2_translations_of_de_pattern_give_12_candidates():
    d = make_dictionary(
        [("caisse", "NOUN", ["drum", "fund", "case"]), ("retraite", "NOUN", ["retirement", "retreat"])]
    )
    ulc = make_ulc("caisse", "retraite", UlcPattern.NOUN_DE_NOUN)
    cands = generate_candidates(ulc, d)
    assert len(cands) == 3 * 2 * 2
    assert len({c.target_surface for c in cands}) == 12


def test_missing_constituent_yields_empty():
    d = make_dictionary([("acide", "NOUN", ["acid"])])
    ulc = make_ulc("acide", "nucléique", UlcPattern.NOUN_ADJ, "acide nucléique")
    assert generate_candidates(ulc, d) == []


def test_generation_deterministic_and_order_stable():
    d = make_dictionary(
        [("caisse", "NOUN", ["drum", "fund"]), ("retraite", "NOUN", ["retirement", "retreat"])]
    )
    ulc = make_ulc("caisse", "retraite", UlcPattern.NOUN_DE_NOUN)
    first = [c.target_surface for c in generate_candidates(ulc, d)]
    assert first == [c.target_surface for c in generate_candidates(ulc, d)]
    assert first == [
        "drum of retirement",
        "retirement drum",
        "drum of retreat",
        "retreat drum",
        "fund of retirement",
        "retirement fund",
        "fund of retreat",
        "retreat fund",
    ]


def test_candidates_are_lowercase():
    d = make_dictionary([("gare", "NOUN", ["Station"]), ("central", "ADJ", ["Central"])])
    ulc = make_ulc("gare", "central", UlcPattern.NOUN_ADJ, "gare centrale")
    assert generate_candidates(ulc, d)[0].target_surface == "central station"


def test_translations_equal_once_lowercased_give_one_candidate():
    d = make_dictionary([("gare", "NOUN", ["Station", "station"]), ("central", "ADJ", ["central"])])
    ulc = make_ulc("gare", "central", UlcPattern.NOUN_ADJ, "gare centrale")
    assert [c.target_surface for c in generate_candidates(ulc, d)] == ["central station"]


def test_rule_consistency_enforced():
    ulc = make_ulc("ambiance", "musical", UlcPattern.NOUN_ADJ, "ambiance musicale")
    with pytest.raises(ValueError):
        CandidateTranslation(ulc, "x y", TranslationRule.N2_N1, CandidateOrigin.GENERATED)


@given(
    st.lists(st.sampled_from(["alpha", "beta", "gamma"]), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from(["one", "two"]), min_size=1, max_size=2, unique=True),
    st.sampled_from(list(UlcPattern)),
)
def test_candidate_count_is_product_of_translations_and_rules(head_tr, mod_tr, pattern):
    d = make_dictionary([("h", "NOUN", head_tr), ("m", "ADJ" if pattern is UlcPattern.NOUN_ADJ else "NOUN", mod_tr)])
    ulc = make_ulc("h", "m", pattern)
    rules = 1 if pattern is UlcPattern.NOUN_ADJ else 2
    cands = generate_candidates(ulc, d)
    # distinct translation words make the product exact
    assert len(cands) == len(head_tr) * len(mod_tr) * rules


@given(
    st.lists(st.sampled_from(["alpha", "beta"]), min_size=1, max_size=2, unique=True),
    st.sampled_from(list(UlcPattern)),
)
def test_token_count_property(head_tr, pattern):
    # target token count = source token count - prepositions + at most one "of"
    d = make_dictionary(
        [("h", "NOUN", head_tr), ("m", "ADJ" if pattern is UlcPattern.NOUN_ADJ else "NOUN", ["mx"])]
    )
    ulc = make_ulc("h", "m", pattern)
    source_tokens = 2 if pattern is UlcPattern.NOUN_ADJ else 3
    preps = 0 if pattern is UlcPattern.NOUN_ADJ else 1
    for cand in generate_candidates(ulc, d):
        n = len(cand.target_surface.split())
        has_of = 1 if cand.rule is TranslationRule.N1_OF_N2 else 0
        assert n == source_tokens - preps + has_of


def test_validation_query_adj_n():
    d = make_dictionary([("ambiance", "NOUN", ["atmosphere"]), ("musical", "ADJ", ["musical"])])
    ulc = make_ulc("ambiance", "musical", UlcPattern.NOUN_ADJ, "ambiance musicale")
    (cand,) = generate_candidates(ulc, d)
    assert build_validation_query(cand) == '"the musical atmosphere" OR "a musical atmosphere"'


def test_validation_query_uses_literal_a_even_before_vowels():
    d = make_dictionary([("institut", "NOUN", ["institute"]), ("psychologie", "NOUN", ["psychology"])])
    ulc = make_ulc("institut", "psychologie", UlcPattern.NOUN_DE_NOUN)
    of_cand = next(c for c in generate_candidates(ulc, d) if c.rule is TranslationRule.N1_OF_N2)
    assert build_validation_query(of_cand) == (
        '"the institute of psychology" OR "a institute of psychology"'
    )
    assert build_validation_query(of_cand, use_an=True) == (
        '"the institute of psychology" OR "an institute of psychology"'
    )


def test_empty_candidate_rejected():
    ulc = make_ulc("a", "b", UlcPattern.NOUN_ADJ, "a b")
    with pytest.raises(ValueError):
        CandidateTranslation(ulc, "", TranslationRule.ADJ_N, CandidateOrigin.GENERATED)
