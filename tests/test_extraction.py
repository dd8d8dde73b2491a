import random

import pytest

from lexiforge.corpus import TaggedCorpus, Document
from lexiforge.extraction import (
    FilterStatus,
    UlcPattern,
    build_article_query,
    extract_ulcs,
    filter_ulcs,
    read_ulcs,
    web_filter_ulc,
    write_ulcs,
)
from lexiforge.oracle import SearchOracle

from conftest import CFG, FakeBackend, make_ulc, tok


def corpus_of(sentences):
    return TaggedCorpus((Document("d", tuple(tuple(s) for s in sentences)),))


def sent_noun_de_noun(head="appareil", mod="chauffage", link="de"):
    link_pos = "PREP"
    return [tok(head, "NOUN"), tok(link, link_pos, "de"), tok(mod, "NOUN"), tok(".", "SENT", ".")]


def test_noun_de_noun_repeated_12_times():
    corpus = corpus_of([sent_noun_de_noun() for _ in range(12)])
    units = extract_ulcs(corpus, CFG.corpus_freq_min)
    assert len(units) == 1
    unit = units[0]
    assert (unit.head_lemma, unit.modifier_lemma) == ("appareil", "chauffage")
    assert unit.pattern is UlcPattern.NOUN_DE_NOUN
    assert unit.corpus_freq == 12
    assert unit.surface == "appareil de chauffage"


def test_d_apostrophe_pattern_distinct_from_de():
    sentences = [
        [tok("appareil", "NOUN"), tok("d'", "PREP", "de"), tok("imagerie", "NOUN")]
        for _ in range(10)
    ]
    units = extract_ulcs(corpus_of(sentences), CFG.corpus_freq_min)
    assert units[0].pattern is UlcPattern.NOUN_D_NOUN
    assert units[0].surface == "appareil d'imagerie"


def test_non_contiguous_noun_adj_not_matched():
    sentences = [
        [tok("appareil", "NOUN"), tok("très", "ADV"), tok("grand", "ADJ")] for _ in range(20)
    ]
    assert extract_ulcs(corpus_of(sentences), CFG.corpus_freq_min) == []


def test_threshold_excludes_units_at_9():
    corpus = corpus_of([sent_noun_de_noun() for _ in range(9)])
    assert extract_ulcs(corpus, CFG.corpus_freq_min) == []
    corpus = corpus_of([sent_noun_de_noun() for _ in range(10)])
    assert len(extract_ulcs(corpus, CFG.corpus_freq_min)) == 1


def test_no_match_across_sentence_boundary():
    # The noun ends one sentence; "de NOUN" starts the next.
    sentences = [
        [tok("appareil", "NOUN"), tok(".", "SENT", ".")],
        [tok("de", "PREP"), tok("chauffage", "NOUN")],
    ] * 10
    assert extract_ulcs(corpus_of(sentences), CFG.corpus_freq_min) == []


def test_overlapping_patterns_both_extracted():
    # NOUN de NOUN ADJ yields both the de-unit and the embedded NOUN ADJ.
    sentence = [
        tok("appareil", "NOUN"),
        tok("de", "PREP"),
        tok("chauffage", "NOUN"),
        tok("central", "ADJ"),
    ]
    units = extract_ulcs(corpus_of([sentence] * 10), CFG.corpus_freq_min)
    keys = {(u.head_lemma, u.modifier_lemma, u.pattern) for u in units}
    assert keys == {
        ("appareil", "chauffage", UlcPattern.NOUN_DE_NOUN),
        ("chauffage", "central", UlcPattern.NOUN_ADJ),
    }


def test_lemma_variants_pool_counts_and_keep_majority_surface():
    feminine = [tok("ambiance", "NOUN"), tok("musicale", "ADJ", "musical")]
    plural = [tok("ambiances", "NOUN", "ambiance"), tok("musicales", "ADJ", "musical")]
    corpus = corpus_of([feminine] * 7 + [plural] * 4)
    (unit,) = extract_ulcs(corpus, CFG.corpus_freq_min)
    assert unit.corpus_freq == 11
    assert unit.surface == "ambiance musicale"
    assert unit.modifier_lemma == "musical"


def test_extraction_order_independent_of_document_order():
    sentences = (
        [sent_noun_de_noun() for _ in range(12)]
        + [[tok("caisse", "NOUN"), tok("claire", "ADJ", "clair")] for _ in range(15)]
        + [[tok("institut", "NOUN"), tok("de", "PREP"), tok("psychologie", "NOUN")] for _ in range(12)]
    )
    base = extract_ulcs(corpus_of(sentences), CFG.corpus_freq_min)
    for seed in (1, 2, 3):
        shuffled = sentences[:]
        random.Random(seed).shuffle(shuffled)
        assert extract_ulcs(corpus_of(shuffled), CFG.corpus_freq_min) == base
    # idempotence
    assert extract_ulcs(corpus_of(sentences), CFG.corpus_freq_min) == base


def test_deterministic_ordering_by_freq_then_surface():
    sentences = (
        [[tok("b", "NOUN"), tok("x", "ADJ")]] * 10
        + [[tok("a", "NOUN"), tok("x", "ADJ")]] * 10
        + [[tok("c", "NOUN"), tok("x", "ADJ")]] * 11
    )
    units = extract_ulcs(corpus_of(sentences), CFG.corpus_freq_min)
    assert [u.surface for u in units] == ["c x", "a x", "b x"]


def test_article_query_covers_all_six_articles():
    query = build_article_query("appareil de chauffage")
    assert query == (
        '"le appareil de chauffage" OR "la appareil de chauffage" OR '
        '"l\'appareil de chauffage" OR "les appareil de chauffage" OR '
        '"un appareil de chauffage" OR "une appareil de chauffage"'
    )


def oracle_with_counts(surface, literal, article):
    backend = FakeBackend()
    backend.count(surface, literal)
    backend.count(build_article_query(surface), article)
    return SearchOracle(backend)


@pytest.mark.parametrize(
    "literal, article, expected",
    [
        (12_000, 1_500, FilterStatus.ACCEPTED),
        (9_999, 5_000, FilterStatus.REJECTED),
        (12_000, 999, FilterStatus.REJECTED),
        (10_000, 1_000, FilterStatus.ACCEPTED),
    ],
)
def test_web_filter_thresholds(literal, article, expected):
    ulc = make_ulc("appareil", "chauffage")
    oracle = oracle_with_counts(ulc.surface, literal, article)
    verdict = web_filter_ulc(ulc, oracle, CFG.literal_freq_min, CFG.article_freq_min)
    assert verdict.status is expected
    if expected is not FilterStatus.UNRESOLVED_ORACLE:
        assert verdict.ulc.oracle_literal_freq == literal
        assert verdict.ulc.oracle_article_freq == article


def test_web_filter_oracle_failure_marks_unresolved():
    ulc = make_ulc("appareil", "chauffage")
    oracle = SearchOracle(FakeBackend())  # no responses registered
    verdict = web_filter_ulc(ulc, oracle, CFG.literal_freq_min, CFG.article_freq_min)
    assert verdict.status is FilterStatus.UNRESOLVED_ORACLE
    assert verdict.ulc.oracle_literal_freq is None


def test_accepted_units_meet_all_three_thresholds():
    corpus = corpus_of([sent_noun_de_noun() for _ in range(12)])
    units = extract_ulcs(corpus, CFG.corpus_freq_min)
    oracle = oracle_with_counts("appareil de chauffage", 20_000, 3_000)
    verdicts = filter_ulcs(units, oracle, CFG.literal_freq_min, CFG.article_freq_min, CFG.max_ulcs)
    for v in verdicts:
        if v.accepted:
            assert v.ulc.corpus_freq >= 10
            assert v.ulc.oracle_literal_freq >= 10_000
            assert v.ulc.oracle_article_freq >= 1_000


def test_max_ulcs_cap_keeps_highest_literal_counts():
    units = [make_ulc("a", "b", UlcPattern.NOUN_ADJ, "a b"), make_ulc("c", "d", UlcPattern.NOUN_ADJ, "c d")]
    backend = FakeBackend()
    backend.count("a b", 50_000).count(build_article_query("a b"), 2_000)
    backend.count("c d", 90_000).count(build_article_query("c d"), 2_000)
    verdicts = filter_ulcs(
        units, SearchOracle(backend), CFG.literal_freq_min, CFG.article_freq_min, max_ulcs=1
    )
    accepted = [v.ulc.surface for v in verdicts if v.accepted]
    assert accepted == ["c d"]


def test_pattern_totals_match_brute_force_recount():
    # Miniature corpus echoing the published pattern ranking:
    # NOUN_ADJ > NOUN_DE_NOUN > NOUN_D_NOUN.
    sentences = (
        [[tok("caisse", "NOUN"), tok("claire", "ADJ", "clair")]] * 12
        + [[tok("drame", "NOUN"), tok("musical", "ADJ")]] * 11
        + [[tok("accident", "NOUN"), tok("grave", "ADJ")]] * 10
        + [[tok("appareil", "NOUN"), tok("de", "PREP"), tok("chauffage", "NOUN")]] * 10
        + [[tok("messe", "NOUN"), tok("de", "PREP"), tok("minuit", "NOUN")]] * 10
        + [[tok("souris", "NOUN"), tok("d'", "PREP", "de"), tok("agneau", "NOUN")]] * 10
    )
    corpus = corpus_of(sentences)
    units = extract_ulcs(corpus, CFG.corpus_freq_min)

    # brute-force recount straight off the sentence list
    expected = {UlcPattern.NOUN_ADJ: 0, UlcPattern.NOUN_DE_NOUN: 0, UlcPattern.NOUN_D_NOUN: 0}
    seen = set()
    for s in sentences:
        if len(s) == 2:
            key = (s[0].lemma, s[1].lemma, UlcPattern.NOUN_ADJ)
        elif s[1].surface == "de":
            key = (s[0].lemma, s[2].lemma, UlcPattern.NOUN_DE_NOUN)
        else:
            key = (s[0].lemma, s[2].lemma, UlcPattern.NOUN_D_NOUN)
        if key not in seen:
            seen.add(key)
            expected[key[2]] += 1

    totals = {p: sum(1 for u in units if u.pattern is p) for p in UlcPattern}
    assert totals == expected
    assert totals[UlcPattern.NOUN_ADJ] > totals[UlcPattern.NOUN_DE_NOUN] > totals[UlcPattern.NOUN_D_NOUN]


def test_ulcs_file_roundtrip(tmp_path):
    units = [
        make_ulc("appareil", "chauffage", literal_freq=20_000, article_freq=3_000),
        make_ulc("caisse", "clair", UlcPattern.NOUN_ADJ, "caisse claire"),
    ]
    path = tmp_path / "ulcs.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        write_ulcs(units, fh)
    with open(path, encoding="utf-8") as fh:
        loaded = read_ulcs(fh)
    assert loaded == units
