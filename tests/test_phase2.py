import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lexiforge.dictionary import BilingualDictionary
from lexiforge.extraction import UlcPattern
from lexiforge.generation import CandidateOrigin, CandidateTranslation, TranslationRule
from lexiforge.oracle import OracleError, SearchOracle
from lexiforge.phase2 import (
    LexicalWorld,
    WorldContext,
    WorldSimilarity,
    build_lexical_world,
    compare_worlds,
    parallel_pair_filter,
    ratio_filter,
    run_phase2,
    select_translation,
    write_world,
)
from lexiforge.tagging import LexiconTagger

from conftest import CFG, FakeBackend, make_dictionary, make_ulc


def cand(ulc, surface, rule=TranslationRule.ADJ_N, **scores):
    c = CandidateTranslation(ulc, surface, rule, CandidateOrigin.GENERATED)
    c.scores.update(scores)
    return c


def caisse_centrale():
    return make_ulc("caisse", "central", UlcPattern.NOUN_ADJ, "caisse centrale")


def test_pair_filter_keeps_cooccurring_candidates():
    ulc = caisse_centrale()
    candidates = [cand(ulc, "central fund"), cand(ulc, "central drum")]
    backend = FakeBackend()
    backend.pair("caisse centrale", "central fund", 4)
    backend.pair("caisse centrale", "central drum", 0)
    survivors = parallel_pair_filter(
        "caisse centrale", candidates, SearchOracle(backend), CFG.pair_top_k
    )
    assert [c.target_surface for c in survivors] == ["central fund"]
    assert survivors[0].scores["pair_count"] == 4


def test_pair_filter_threshold_is_one():
    ulc = caisse_centrale()
    backend = FakeBackend()
    backend.pair("caisse centrale", "central case", 1)
    survivors = parallel_pair_filter(
        "caisse centrale", [cand(ulc, "central case")], SearchOracle(backend), CFG.pair_top_k
    )
    assert len(survivors) == 1


def test_pair_filter_empty_input():
    assert parallel_pair_filter("x", [], SearchOracle(FakeBackend()), CFG.pair_top_k) == []


@pytest.mark.parametrize(
    "run_filter",
    [
        lambda candidates, oracle: parallel_pair_filter(
            "caisse centrale", candidates, oracle, CFG.pair_top_k
        ),
        lambda candidates, oracle: ratio_filter(candidates, 1, oracle),
    ],
    ids=["pair", "ratio"],
)
def test_filter_oracle_failure_propagates(run_filter):
    # The second candidate's count is missing: the filter raises instead of
    # returning the first candidate as if it were the only one.
    ulc = caisse_centrale()
    backend = FakeBackend()
    backend.pair("caisse centrale", "central fund", 2)
    backend.count("central fund", 2)
    candidates = [cand(ulc, "central fund"), cand(ulc, "central case")]
    with pytest.raises(OracleError, match="central case"):
        run_filter(candidates, SearchOracle(backend))


def test_pair_top_k_restricts_survivors():
    ulc = caisse_centrale()
    backend = FakeBackend()
    for surface, n in [("central fund", 9), ("central case", 5), ("central drum", 2)]:
        backend.pair("caisse centrale", surface, n)
    candidates = [cand(ulc, s) for s in ("central fund", "central case", "central drum")]
    survivors = parallel_pair_filter("caisse centrale", candidates, SearchOracle(backend), top_k=2)
    assert {c.target_surface for c in survivors} == {"central fund", "central case"}


def test_ratio_filter_paper_counts():
    ulc = make_ulc("caisse", "retraite", UlcPattern.NOUN_DE_NOUN, "caisse de retraite")
    backend = FakeBackend()
    backend.count("retirement fund", 1_240_000)
    backend.count("retirement case", 2_850)
    candidates = [cand(ulc, "retirement fund", TranslationRule.N2_N1),
                  cand(ulc, "retirement case", TranslationRule.N2_N1)]
    survivors = ratio_filter(candidates, 157_000, SearchOracle(backend))
    assert [c.target_surface for c in survivors] == ["retirement fund"]


def test_ratio_filter_equality_survives():
    ulc = caisse_centrale()
    backend = FakeBackend().count("central fund", 157_000)
    survivors = ratio_filter([cand(ulc, "central fund")], 157_000, SearchOracle(backend))
    assert len(survivors) == 1


FR_ENTRIES = [
    ("pension", "NOUN", "pension"),
    ("pensions", "NOUN", "pension"),
    ("argent", "NOUN", "argent"),
    ("banque", "NOUN", "banque"),
    ("financière", "ADJ", "financier"),
    ("mensuelle", "ADJ", "mensuel"),
    ("caisse", "NOUN", "caisse"),
    ("retraite", "NOUN", "retraite"),
    ("verse", "VERB", "verser"),
    ("la", "DET", "le"),
    ("une", "DET", "un"),
]

FR_TAGGER = LexiconTagger(FR_ENTRIES)


def test_build_world_matches_hand_count():
    snippets = [
        "La caisse de retraite verse une pension mensuelle.",
        "Une pension de la banque, argent et pension.",
        "La banque financière verse la pension.",
    ]
    backend = FakeBackend().snips("caisse de retraite", 1000, snippets)
    world = build_lexical_world(
        "caisse de retraite",
        "fr",
        SearchOracle(backend),
        FR_TAGGER,
        stopwords=frozenset({"le", "un", "de", "la", "une", "et"}),
        snippet_limit=CFG.snippet_limit,
        world_size=CFG.world_size,
    )
    # brute-force recount: pension 4, banque 2, argent 1; caisse/retraite excluded
    assert world.nouns == (("pension", 4), ("banque", 2), ("argent", 1))
    assert world.adjectives == (("financier", 1), ("mensuel", 1))
    assert world.snippet_count == 3


def test_build_world_snippet_count_and_truncation():
    texts = [f"pension {i}" for i in range(40)]
    backend = FakeBackend().snips("caisse de retraite", 1000, texts)
    world = build_lexical_world(
        "caisse de retraite", "fr", SearchOracle(backend), FR_TAGGER,
        snippet_limit=CFG.snippet_limit, world_size=CFG.world_size,
    )
    assert world.snippet_count == 40


def test_build_world_top_50_cut():
    # tokens must be letter-only; digits split tokens
    names = ["n" + a + b for a in "abcdefgh" for b in "abcdefgh"][:60]
    tagger = LexiconTagger([(n, "NOUN", n) for n in names])
    backend = FakeBackend().snips("x y", 1000, [" ".join(names)])
    world = build_lexical_world(
        "x y", "fr", SearchOracle(backend), tagger,
        snippet_limit=CFG.snippet_limit, world_size=CFG.world_size,
    )
    assert len(world.nouns) == 50


def test_world_with_only_verbs_is_empty():
    tagger = LexiconTagger([("court", "VERB", "courir")])
    backend = FakeBackend().snips("x y", 1000, ["court court court"])
    world = build_lexical_world(
        "x y", "fr", SearchOracle(backend), tagger,
        snippet_limit=CFG.snippet_limit, world_size=CFG.world_size,
    )
    assert world.nouns == () and world.adjectives == ()


def reference_world(phrase, texts, tagger, stopwords, exclude_lemmas, world_size):
    """Per-snippet reference: tag every snippet token by token."""
    excluded = {w.lower() for w in exclude_lemmas} | {lemma for lemma, _ in tagger.tag(phrase)}
    freqs = {"NOUN": {}, "ADJ": {}}
    for text in texts:
        for lemma, pos in tagger.tag(text):
            if pos in freqs and lemma not in stopwords and lemma not in excluded:
                freqs[pos][lemma] = freqs[pos].get(lemma, 0) + 1

    def top(f):
        return tuple(sorted(f.items(), key=lambda kv: (-kv[1], kv[0]))[:world_size])

    return top(freqs["NOUN"]), top(freqs["ADJ"])


WORLD_WORDS = ["pension", "Pensions", "banque", "argent", "financière", "mensuelle",
               "caisse", "retraite", "verse", "la", "une", "inconnu", "l'argent", "2banque"]
WORLD_SEPARATORS = [" ", "  ", "\u00a0", "\n", ", ", ".", "-", "\x1c"]


WORLD_SNIPPETS = st.lists(
    st.lists(
        st.tuples(st.sampled_from(WORLD_WORDS), st.sampled_from(WORLD_SEPARATORS)),
        max_size=12,
    ),
    max_size=8,
)


@given(WORLD_SNIPPETS, WORLD_SNIPPETS, st.integers(1, 4))
def test_build_world_matches_per_snippet_reference(snippet_words, more_words, world_size):
    def texts_of(snippets):
        return ["".join(word + sep for word, sep in words) or "." for words in snippets]

    texts = texts_of(snippet_words)
    # The second world shares the first world's chunks and adds its own.
    more = texts_of(more_words) + texts
    stopwords = frozenset({"le", "un"})
    backend = FakeBackend().snips("caisse de retraite", 1000, texts).snips("pension mensuelle", 1000, more)
    oracle = SearchOracle(backend)
    tagger = LexiconTagger(FR_ENTRIES)
    # The first world is built on a cold memo, the second on the memo the
    # first one primed.
    for phrase, snippets in (("caisse de retraite", texts), ("pension mensuelle", more)):
        world = build_lexical_world(
            phrase, "fr", oracle, tagger, stopwords,
            exclude_lemmas=["Argent"], snippet_limit=CFG.snippet_limit, world_size=world_size,
        )
        nouns, adjectives = reference_world(phrase, snippets, tagger, stopwords, ["Argent"], world_size)
        assert (world.nouns, world.adjectives) == (nouns, adjectives)
        assert world.snippet_count == len(snippets)


def test_zero_snippets_give_empty_world():
    backend = FakeBackend().snips("x y", 1000, [])
    world = build_lexical_world(
        "x y", "fr", SearchOracle(backend), FR_TAGGER,
        snippet_limit=CFG.snippet_limit, world_size=CFG.world_size,
    )
    assert world.snippet_count == 0
    assert world.nouns == ()


def world(nouns=(), adjs=(), phrase="p", lang="fr"):
    return LexicalWorld(
        phrase,
        lang,
        tuple((n, 1) for n in nouns),
        tuple((a, 1) for a in adjs),
        snippet_count=1,
    )


def identity_dictionary(lemmas):
    return make_dictionary([(l, pos, [l]) for l in lemmas for pos in ("NOUN", "ADJ")])


def test_identical_worlds_identity_dictionary_score_one():
    lemmas = [f"w{i}" for i in range(10)]
    w = world(nouns=lemmas, adjs=lemmas)
    sim = compare_worlds(w, w, identity_dictionary(lemmas))
    assert sim.noun_jaccard == 1.0
    assert sim.adj_jaccard == 1.0


def test_no_dictionary_overlap_scores_zero():
    src = world(nouns=["a", "b"], adjs=["c"])
    tgt = world(nouns=["x", "y"], adjs=["z"], lang="en")
    sim = compare_worlds(src, tgt, BilingualDictionary())
    assert sim.noun_jaccard == 0.0 and sim.adj_jaccard == 0.0


def test_hand_computed_third():
    src = world(nouns=["a", "b", "c", "d"])
    tgt = world(nouns=["A", "B", "x", "y"], lang="en")
    d = make_dictionary([("a", "NOUN", ["A"]), ("b", "NOUN", ["B"])])
    sim = compare_worlds(src, tgt, d)
    assert sim.noun_jaccard == pytest.approx(2 / (4 + 4 - 2))
    assert sim.matched_nouns == (("a", "a"), ("b", "b"))
    assert sim.adj_jaccard == 0.0  # both adjective lists empty


def brute_force_jaccard(src_lemmas, tgt_lemmas, translations):
    """Independent set computation: translations maps lemma -> ordered list."""
    tgt = set(tgt_lemmas)
    matched_sources = [s for s in src_lemmas if set(translations.get(s, ())) & tgt]
    first_targets = {
        next(t for t in translations[s] if t in tgt) for s in matched_sources
    }
    inter = len(matched_sources)
    union = len(list(src_lemmas)) + len(list(tgt_lemmas)) - len(first_targets)
    return inter / union if union else 0.0


SRC_POOL = [f"s{i}" for i in range(12)]
TGT_POOL = [f"t{i}" for i in range(12)]


@st.composite
def world_pair_and_dictionary(draw):
    src_nouns = draw(st.lists(st.sampled_from(SRC_POOL), max_size=8, unique=True))
    tgt_nouns = draw(st.lists(st.sampled_from(TGT_POOL), max_size=8, unique=True))
    mapping = {}
    for lemma in SRC_POOL:
        if draw(st.booleans()):
            mapping[lemma] = draw(
                st.lists(st.sampled_from(TGT_POOL), min_size=1, max_size=3, unique=True)
            )
    return src_nouns, tgt_nouns, mapping


@given(world_pair_and_dictionary())
@settings(max_examples=200)
def test_compare_worlds_equals_brute_force(data):
    src_nouns, tgt_nouns, mapping = data
    d = make_dictionary([(l, "NOUN", trs) for l, trs in mapping.items()])
    sim = compare_worlds(world(nouns=src_nouns), world(nouns=tgt_nouns, lang="en"), d)
    assert sim.noun_jaccard == pytest.approx(brute_force_jaccard(src_nouns, tgt_nouns, mapping))
    assert 0.0 <= sim.noun_jaccard <= 1.0


@given(world_pair_and_dictionary(), st.randoms())
def test_compare_worlds_permutation_invariant(data, rng):
    src_nouns, tgt_nouns, mapping = data
    d = make_dictionary([(l, "NOUN", trs) for l, trs in mapping.items()])
    base = compare_worlds(world(nouns=src_nouns), world(nouns=tgt_nouns, lang="en"), d)
    shuffled_src = src_nouns[:]
    shuffled_tgt = tgt_nouns[:]
    rng.shuffle(shuffled_src)
    rng.shuffle(shuffled_tgt)
    again = compare_worlds(world(nouns=shuffled_src), world(nouns=shuffled_tgt, lang="en"), d)
    assert base.noun_jaccard == pytest.approx(again.noun_jaccard)


def scored(ulc, surface, noun, adj, web=0.0):
    """noun, adj: (intersection, union) of each category."""
    c = cand(ulc, surface, web_count=web)
    return (c, WorldSimilarity(noun, adj, (), ()))


def test_select_argmax_of_combined():
    ulc = caisse_centrale()
    best = select_translation(
        [scored(ulc, "low", (1, 5), (1, 5)), scored(ulc, "high", (7, 20), (7, 20))],
        noun_jaccard_min=0.0,
        adj_jaccard_min=0.0,
    )
    assert best.target_surface == "high"


def test_select_thresholds_forward_none():
    ulc = caisse_centrale()
    assert (
        select_translation(
            [scored(ulc, "weak", (1, 100), (9, 10))], noun_jaccard_min=0.05, adj_jaccard_min=0.05
        )
        is None
    )
    assert select_translation([], 0.0, 0.0) is None


def test_select_tie_broken_by_web_count():
    ulc = caisse_centrale()
    best = select_translation(
        [
            scored(ulc, "few", (3, 10), (3, 10), web=10),
            scored(ulc, "many", (3, 10), (3, 10), web=99),
        ],
        0.0,
        0.0,
    )
    assert best.target_surface == "many"


def test_select_exact_tie_broken_by_web_count():
    # 1/10 + 2/10 is 0.30000000000000004 in floats, above 3/10 + 0; the
    # scores tie exactly, so the higher web count must win.
    ulc = caisse_centrale()
    best = select_translation(
        [
            scored(ulc, "rounded-up", (1, 10), (2, 10), web=10),
            scored(ulc, "exact", (3, 10), (0, 10), web=99),
        ],
        0.0,
        0.0,
    )
    assert best.target_surface == "exact"


# Jaccard scores are intersection / union of lemma counts: (i, u) with
# 0 <= i <= u.
overlaps = st.integers(1, 100).flatmap(lambda u: st.tuples(st.integers(0, u), st.just(u)))


def halved_plus_tenth(overlap):
    # i/u / 2 + 1/10 == (5i + u) / 10u, still an exact ratio.
    i, u = overlap
    return (5 * i + u, 10 * u)


@given(st.lists(st.tuples(overlaps, overlaps), min_size=1, max_size=6))
@example([((1, 17), (1, 17)), ((0, 17), (2, 17))])
def test_select_invariant_under_monotone_rescaling(pairs):
    ulc = caisse_centrale()
    base = [
        scored(ulc, f"c{i}", noun, adj, web=i) for i, (noun, adj) in enumerate(pairs)
    ]
    rescaled = [
        (
            c,
            WorldSimilarity(
                halved_plus_tenth(s.noun_overlap), halved_plus_tenth(s.adj_overlap), (), ()
            ),
        )
        for c, s in base
    ]
    first = select_translation(base, 0.0, 0.0)
    second = select_translation(rescaled, 0.0, 0.0)
    assert first.target_surface == second.target_surface


def test_filters_compose_monotonically():
    ulc = caisse_centrale()
    backend = FakeBackend(default_count=0)
    backend.pair("caisse centrale", "central fund", 3)
    backend.pair("caisse centrale", "central case", 2)
    backend.count("central fund", 500)
    backend.count("central case", 10)
    candidates = [cand(ulc, s) for s in ("central fund", "central case", "central drum")]
    oracle = SearchOracle(backend)
    pair_survivors = parallel_pair_filter("caisse centrale", candidates, oracle, CFG.pair_top_k)
    ratio_survivors = ratio_filter(pair_survivors, 100, oracle)
    assert set(c.target_surface for c in ratio_survivors) <= set(
        c.target_surface for c in pair_survivors
    )


def test_run_phase2_end_to_end_selects_central_fund():
    ulc = make_ulc("caisse", "central", UlcPattern.NOUN_ADJ, "caisse centrale",
                   literal_freq=2)
    d = make_dictionary(
        [
            ("caisse", "NOUN", ["drum", "fund", "case"]),
            ("central", "ADJ", ["central"]),
            ("banque", "NOUN", ["bank"]),
            ("argent", "NOUN", ["money"]),
            ("financier", "ADJ", ["financial"]),
        ]
    )
    candidates = [cand(ulc, s, TranslationRule.ADJ_N) for s in
                  ("central drum", "central fund", "central case")]
    backend = FakeBackend(default_count=0)
    backend.pair("caisse centrale", "central fund", 2)
    backend.count("central fund", 5)
    backend.snips("caisse centrale", 1000, ["La banque financière garde la caisse centrale et l'argent."])
    backend.snips("central fund", 1000, ["The financial bank keeps money for the central fund."])
    fr_tagger = LexiconTagger(
        [("banque", "NOUN", "banque"), ("financière", "ADJ", "financier"),
         ("argent", "NOUN", "argent"), ("caisse", "NOUN", "caisse"), ("centrale", "ADJ", "central")]
    )
    en_tagger = LexiconTagger(
        [("bank", "NOUN", "bank"), ("financial", "ADJ", "financial"),
         ("money", "NOUN", "money"), ("fund", "NOUN", "fund"), ("central", "ADJ", "central")]
    )
    ctx = WorldContext(
        cfg=CFG,
        oracle=SearchOracle(backend),
        dictionary=d,
        source_tagger=fr_tagger,
        target_tagger=en_tagger,
    )
    result = run_phase2(ulc, candidates, ctx)
    assert result.winner.target_surface == "central fund"
    assert result.winner.scores["noun_jaccard"] == 1.0
    assert result.winner.scores["adj_jaccard"] == 1.0


def test_write_world_format(tmp_path):
    w = world(nouns=["pension", "banque"], adjs=["financier"])
    out = tmp_path / "w.tsv"
    with open(out, "w", encoding="utf-8") as fh:
        write_world(w, fh)
    assert out.read_text() == "p\tfr\t1\tpension:1,banque:1\tfinancier:1\n"
