import re

import pytest
from hypothesis import given, strategies as st

from lexiforge.extraction import UlcPattern
from lexiforge.generation import CandidateOrigin
from lexiforge.oracle import QueryKind, SearchOracle
from lexiforge.phase2 import WorldContext
from lexiforge.phase3 import (
    cognate_prefix,
    find_cognates,
    find_frequent_pairs,
    is_cognate_pair,
    normalize_token,
    rank_bigrams,
    run_phase3,
)
from lexiforge.tagging import LexiconTagger

from conftest import CFG, FakeBackend, make_dictionary, make_ulc

FR_STOPS = frozenset({"le", "la", "les", "de", "d", "un", "une", "est", "et"})


def snips(*texts):
    return list(texts)


def cognates_of(snippets, ulc, stops=FR_STOPS):
    return find_cognates(rank_bigrams(snippets, ulc, stops), ulc)


def frequent_pairs_of(
    snippets, ulc, stops=FR_STOPS, min_pair_freq=CFG.min_pair_freq, top_pairs=CFG.top_pairs
):
    return find_frequent_pairs(rank_bigrams(snippets, ulc, stops), ulc, min_pair_freq, top_pairs)


@pytest.mark.parametrize(
    "source, target, expected",
    [
        ("nucléique", "nucleic", True),
        ("langue", "language", True),
        ("café", "cafe", True),
        ("Café", "CAFE", True),
        ("acide", "acid", True),
        ("souris", "lamb", False),
        ("abc", "abcd", False),  # too short on the source side
    ],
)
def test_cognate_prefix_rule(source, target, expected):
    assert is_cognate_pair(source, target) is expected


def test_normalization_strips_diacritics_and_case():
    assert normalize_token("Nucléique") == "nucleique"
    assert cognate_prefix("été") is None  # 3 letters after stripping
    assert cognate_prefix("écran") == "ecra"


def test_run_phase3_routes_mixed_snippet_query():
    ulc = make_ulc("souris", "agneau", UlcPattern.NOUN_D_NOUN, "souris d'agneau")
    backend = FakeBackend(default_count=0).snips(
        "souris d'agneau", 1000, ["Souris d'agneau is lamb shank."] * 7, lang="en"
    )
    result = run_phase3(ulc, _phase3_context(backend))
    first = backend.seen[0]
    assert (first.kind, first.phrases, first.lang_restrict, first.limit) == (
        QueryKind.MIXED_SNIPPETS, ("souris d'agneau",), "en", 1000
    )
    assert result.snippet_count == 7


def test_find_cognates_nucleic_acid():
    ulc = make_ulc("acide", "nucléique", UlcPattern.NOUN_ADJ, "acide nucléique")
    snippets = snips(
        "Un acide nucléique is a nucleic acid molecule.",
        "The nucleic acid in every cell.",
    )
    cands = cognates_of(snippets, ulc)
    assert cands
    top = cands[0]
    assert top.target_surface == "nucleic acid"
    assert top.origin is CandidateOrigin.COGNATE
    assert top.matched_prefix in ("nucl", "acid")
    assert top.evidence == 2


def test_cognate_excludes_source_tokens_themselves():
    # The French constituents appear in the snippet but cannot become
    # candidates; only genuine target-side tokens qualify.
    ulc = make_ulc("acide", "nucléique", UlcPattern.NOUN_ADJ, "acide nucléique")
    cands = cognates_of(snips("acide nucléique acide nucléique"), ulc)
    assert cands == []


def test_short_constituents_yield_no_cognates():
    ulc = make_ulc("vie", "or", UlcPattern.NOUN_ADJ, "vie or")  # both < 4 letters
    cands = cognates_of(snips("vial oral viol"), ulc)
    assert cands == []


def test_cognate_diacritic_insensitive_both_sides():
    ulc = make_ulc("café", "noir", UlcPattern.NOUN_ADJ, "café noir")
    cands = cognates_of(snips("A cafe noir crème CAFE culture"), ulc)
    assert any(
        c.matched_prefix == "cafe" and "cafe" in c.target_surface for c in cands
    )


def brute_force_bigrams(texts, excluded_tokens):
    counts = {}
    for text in texts:
        tokens = [t.lower() for t in re.findall(r"[^\W\d_]+", text)]
        for a, b in zip(tokens, tokens[1:]):
            if a in excluded_tokens or b in excluded_tokens:
                continue
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


LAMB_TEXTS = [
    "Souris d'agneau is braised lamb shank cooked slowly.",
    "Our lamb shank, the souris d'agneau, falls off the bone.",
    "Order the souris d'agneau: tender lamb shank in wine.",
]


def test_frequent_pairs_top_candidate_is_lamb_shank():
    ulc = make_ulc("souris", "agneau", UlcPattern.NOUN_D_NOUN, "souris d'agneau")
    cands = frequent_pairs_of(snips(*LAMB_TEXTS), ulc, min_pair_freq=2)
    assert cands[0].target_surface == "lamb shank"
    assert cands[0].evidence == 3
    assert cands[0].origin is CandidateOrigin.FREQUENT_PAIR


def test_frequent_pairs_match_brute_force_counts():
    ulc = make_ulc("souris", "agneau", UlcPattern.NOUN_D_NOUN, "souris d'agneau")
    cands = frequent_pairs_of(snips(*LAMB_TEXTS), ulc, min_pair_freq=1, top_pairs=10_000)
    excluded = FR_STOPS | {"souris", "d", "agneau"}
    brute = brute_force_bigrams(LAMB_TEXTS, excluded)
    assert {tuple(c.target_surface.split()): c.evidence for c in cands} == brute


@given(
    st.lists(
        st.lists(st.sampled_from(["alpha", "beta", "gamma", "de", "la"]), min_size=2, max_size=6),
        min_size=1,
        max_size=5,
    )
)
def test_random_snippets_bigram_counts_equal_brute_force(token_lists):
    texts = [" ".join(tokens) for tokens in token_lists]
    ulc = make_ulc("tête", "chose", UlcPattern.NOUN_DE_NOUN, "tête de chose")
    cands = frequent_pairs_of(snips(*texts), ulc, min_pair_freq=1, top_pairs=10_000)
    excluded = FR_STOPS | {"tête", "de", "chose"}
    assert {tuple(c.target_surface.split()): c.evidence for c in cands} == brute_force_bigrams(
        texts, excluded
    )


def test_bigrams_with_stopwords_or_source_tokens_excluded():
    ulc = make_ulc("souris", "agneau", UlcPattern.NOUN_D_NOUN, "souris d'agneau")
    cands = frequent_pairs_of(
        snips("la souris agneau braised braised agneau"), ulc, min_pair_freq=1
    )
    surfaces = {c.target_surface for c in cands}
    assert "la souris" not in surfaces
    assert "agneau braised" not in surfaces
    assert "braised braised" in surfaces


def test_top_pairs_bounds_the_mined_list():
    ulc = make_ulc("souris", "agneau", UlcPattern.NOUN_D_NOUN, "souris d'agneau")
    for top_pairs in (0, 1, 3):
        cands = frequent_pairs_of(snips(*LAMB_TEXTS), ulc, min_pair_freq=1, top_pairs=top_pairs)
        assert len(cands) == top_pairs


def test_min_evidence_default_two():
    ulc = make_ulc("souris", "agneau", UlcPattern.NOUN_D_NOUN, "souris d'agneau")
    cands = frequent_pairs_of(snips("unique bigram here"), ulc)
    assert cands == []


def _phase3_context(backend, dictionary=None):
    fr_tagger = LexiconTagger(
        [("viande", "NOUN", "viande"), ("plat", "NOUN", "plat"), ("tendre", "ADJ", "tendre"),
         ("souris", "NOUN", "souris"), ("agneau", "NOUN", "agneau"), ("douce", "ADJ", "doux")]
    )
    en_tagger = LexiconTagger(
        [("meat", "NOUN", "meat"), ("dish", "NOUN", "dish"), ("tender", "ADJ", "tender"),
         ("lamb", "NOUN", "lamb"), ("shank", "NOUN", "shank"), ("soft", "ADJ", "soft")]
    )
    d = dictionary or make_dictionary(
        [("viande", "NOUN", ["meat"]), ("plat", "NOUN", ["dish"]), ("tendre", "ADJ", ["tender"]),
         ("doux", "ADJ", ["soft"])]
    )
    return WorldContext(
        cfg=CFG,
        oracle=SearchOracle(backend),
        dictionary=d,
        source_tagger=fr_tagger,
        target_tagger=en_tagger,
        source_stopwords=FR_STOPS,
    )


def test_run_phase3_full_pair_path():
    ulc = make_ulc("souris", "agneau", UlcPattern.NOUN_D_NOUN, "souris d'agneau",
                   literal_freq=2)
    backend = FakeBackend(default_count=0)
    backend.snips("souris d'agneau", 1000, LAMB_TEXTS, lang="en")
    backend.pair("souris d'agneau", "lamb shank", 3)
    backend.count("lamb shank", 5)
    backend.snips("souris d'agneau", 1000, ["La viande du plat, tendre viande."])
    backend.snips("lamb shank", 1000, ["Tender meat, a tender dish of meat."])
    result = run_phase3(ulc, _phase3_context(backend))
    assert result.winner is not None
    assert result.winner.target_surface == "lamb shank"
    assert result.winner.origin is CandidateOrigin.FREQUENT_PAIR
    assert result.cognate_candidates == []


def test_run_phase3_cognates_take_precedence():
    ulc = make_ulc("viande", "tendre", UlcPattern.NOUN_ADJ, "viande tendre", literal_freq=1)
    backend = FakeBackend(default_count=0)
    backend.snips(
        "viande tendre", 1000,
        ["Viande tendre means tender meat.", "Very tender meat indeed, tender meat."],
        lang="en",
    )
    backend.pair("viande tendre", "tender meat", 2)
    backend.count("tender meat", 4)
    backend.snips("viande tendre", 1000, ["La viande douce du plat."])
    backend.snips("tender meat", 1000, ["A soft dish of meat."])
    result = run_phase3(ulc, _phase3_context(backend))
    assert result.winner.target_surface == "tender meat"
    assert result.winner.origin is CandidateOrigin.COGNATE
    assert result.winner.matched_prefix == "tend"
    # pair mining never ran
    assert result.pair_candidates == []


def test_run_phase3_counts_bigrams_once_for_both_miners(monkeypatch):
    import lexiforge.phase3 as phase3

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return rank_bigrams(*args, **kwargs)

    monkeypatch.setattr(phase3, "rank_bigrams", counted)
    ulc = make_ulc("viande", "tendre", UlcPattern.NOUN_ADJ, "viande tendre", literal_freq=1)
    backend = FakeBackend(default_count=0)
    backend.snips(
        "viande tendre", 1000,
        ["Viande tendre means tender meat.", "Very tender meat indeed, tender meat."],
        lang="en",
    )
    # no pair shares a document: cognates fail validation, pair mining runs
    result = run_phase3(ulc, _phase3_context(backend))
    assert result.winner is None
    assert result.cognate_candidates and result.pair_candidates
    assert len(calls) == 1


def test_cognate_candidates_carry_evidence_and_prefix():
    ulc = make_ulc("acide", "nucléique", UlcPattern.NOUN_ADJ, "acide nucléique")
    cognates = cognates_of(
        snips("Un acide nucléique is a nucleic acid molecule.", "The nucleic acid story."),
        ulc,
    )
    assert cognates
    first = cognates[0]
    assert first.target_surface == "nucleic acid"
    assert first.origin is CandidateOrigin.COGNATE
    assert first.evidence == 2
    assert first.matched_prefix in ("nucl", "acid")


def test_run_phase3_zero_snippets_untranslated():
    ulc = make_ulc("appareil", "argentin", UlcPattern.NOUN_ADJ, "appareil argentin")
    backend = FakeBackend(default_count=0)
    backend.snips("appareil argentin", 1000, [], lang="en")
    result = run_phase3(ulc, _phase3_context(backend))
    assert result.winner is None
    assert result.snippet_count == 0


def test_run_phase3_all_candidates_fail_filters():
    ulc = make_ulc("souris", "agneau", UlcPattern.NOUN_D_NOUN, "souris d'agneau", literal_freq=9)
    backend = FakeBackend(default_count=0)
    backend.snips("souris d'agneau", 1000, LAMB_TEXTS, lang="en")
    # pair count zero for everything -> no survivors anywhere
    result = run_phase3(ulc, _phase3_context(backend))
    assert result.winner is None
    assert result.pair_candidates  # mining happened, validation failed
