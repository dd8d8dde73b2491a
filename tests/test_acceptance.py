"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion; any criterion that fails or errors is reported FAIL at
module teardown.
"""

import random
import time
from pathlib import Path

import pytest

from lexiforge.cli import main as cli_main
from lexiforge.extraction import UlcPattern
from lexiforge.generation import TranslationRule, generate_candidates
from lexiforge.oracle import SearchOracle
from lexiforge.phase1 import frequency_verdict, validate_by_frequency
from lexiforge.phase2 import LexicalWorld, compare_worlds, ratio_filter
from lexiforge.phase3 import (
    cognate_prefix,
    find_cognates,
    find_frequent_pairs,
    rank_bigrams,
)
from lexiforge.pipeline import Phase, run_pipeline, summarize

from conftest import CFG, FakeBackend, make_dictionary, make_ulc
from test_phase2 import brute_force_jaccard, cand
from test_phase3 import brute_force_bigrams
from test_pipeline import build_50_clu_fixture, make_ctx

DATA = Path(__file__).parent / "data"

CRITERIA = {
    1: "phase-1 worked example: midnight mass accepted, mass of midnight rejected",
    2: "phase-2 ratio filter: retirement fund survives, retirement case excluded",
    3: "Jaccard equals brute force on 1,000 randomized world pairs",
    4: "Jaccard properties: bounds, identity, disjoint, permutation invariance",
    5: "cognate prefix rule incl. diacritic stripping and short-word cutoff",
    6: "frequent-pair mining equals brute-force bigram counts",
    7: "pipeline partition on a 50-unit fixture spanning all classes",
    8: "warm-cache translate re-runs are byte-identical",
    9: "evaluation arithmetic reproduces precision 94.36% / recall 77.86%",
    10: "scaling all oracle counts by 10 changes no decision",
    11: "offline 20-unit end-to-end run matches the independent golden lexicon",
}

_results: dict[int, bool] = {}


def passed(criterion: int):
    _results[criterion] = True


@pytest.fixture(scope="module", autouse=True)
def report_criteria():
    yield
    print()
    for number in sorted(CRITERIA):
        status = "PASS" if _results.get(number) else "FAIL"
        print(f"ACCEPTANCE {number:02d} {status}  {CRITERIA[number]}")


def timed(limit_seconds):
    class Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            elapsed = time.perf_counter() - self.start
            if exc[0] is None:
                assert elapsed < limit_seconds, f"took {elapsed:.2f}s, limit {limit_seconds}s"

    return Timer()


def midnight_mass_oracle(scale=1):
    backend = FakeBackend()
    backend.count("mass", 764_000_000 * scale)
    backend.count('"the midnight mass" OR "a midnight mass"', 336_000 * scale)
    backend.count('"the mass of midnight" OR "a mass of midnight"', 65 * scale)
    return SearchOracle(backend)


def midnight_mass_candidates():
    dictionary = make_dictionary(
        [("messe", "NOUN", ["mass"]), ("minuit", "NOUN", ["midnight"])]
    )
    ulc = make_ulc("messe", "minuit", UlcPattern.NOUN_DE_NOUN)
    return generate_candidates(ulc, dictionary)


def test_criterion_01_phase1_worked_example():
    with timed(1.0):
        winner, verdicts = validate_by_frequency(midnight_mass_candidates(), midnight_mass_oracle(), CFG.use_an)
        assert winner is not None and winner.target_surface == "midnight mass"
        by_surface = {v.candidate.target_surface: v for v in verdicts}
        assert by_surface["midnight mass"].accepted
        assert not by_surface["mass of midnight"].accepted
        assert by_surface["midnight mass"].threshold == 76_400
    passed(1)


def test_criterion_02_phase2_ratio_worked_example():
    with timed(1.0):
        ulc = make_ulc("caisse", "retraite", UlcPattern.NOUN_DE_NOUN, "caisse de retraite")
        backend = FakeBackend()
        backend.count("retirement fund", 1_240_000)
        backend.count("retirement case", 2_850)
        rule = TranslationRule.N2_N1
        candidates = [cand(ulc, "retirement fund", rule), cand(ulc, "retirement case", rule)]
        survivors = ratio_filter(candidates, 157_000, SearchOracle(backend))
        assert [c.target_surface for c in survivors] == ["retirement fund"]
    passed(2)


def random_world_pair(rng):
    src_pool = [f"s{i}" for i in range(60)]
    tgt_pool = [f"t{i}" for i in range(60)]
    src = rng.sample(src_pool, rng.randint(0, 50))
    tgt = rng.sample(tgt_pool, rng.randint(0, 50))
    mapping = {}
    for lemma in src_pool:
        if rng.random() < 0.5:
            mapping[lemma] = rng.sample(tgt_pool, rng.randint(1, 3))
    return src, tgt, mapping


def as_world(nouns, lang="fr"):
    return LexicalWorld("p", lang, tuple((n, 1) for n in nouns), (), 1)


def test_criterion_03_jaccard_brute_force_equivalence():
    rng = random.Random(20_260_810)
    with timed(10.0):
        for _ in range(1_000):
            src, tgt, mapping = random_world_pair(rng)
            dictionary = make_dictionary([(l, "NOUN", ts) for l, ts in mapping.items()])
            sim = compare_worlds(as_world(src), as_world(tgt, "en"), dictionary)
            expected = brute_force_jaccard(src, tgt, mapping)
            assert sim.noun_jaccard == pytest.approx(expected, abs=1e-12)
    passed(3)


def test_criterion_04_jaccard_properties():
    rng = random.Random(99)
    lemmas = [f"w{i}" for i in range(30)]
    identity = make_dictionary([(l, "NOUN", [l]) for l in lemmas])
    with timed(10.0):
        identical = as_world(lemmas)
        assert compare_worlds(identical, as_world(lemmas, "en"), identity).noun_jaccard == 1.0
        disjoint = compare_worlds(as_world(lemmas[:10]), as_world([f"x{i}" for i in range(10)], "en"), identity)
        assert disjoint.noun_jaccard == 0.0
        for _ in range(300):
            src, tgt, mapping = random_world_pair(rng)
            dictionary = make_dictionary([(l, "NOUN", ts) for l, ts in mapping.items()])
            score = compare_worlds(as_world(src), as_world(tgt, "en"), dictionary).noun_jaccard
            assert 0.0 <= score <= 1.0
            rng.shuffle(src)
            rng.shuffle(tgt)
            shuffled = compare_worlds(as_world(src), as_world(tgt, "en"), dictionary).noun_jaccard
            assert shuffled == pytest.approx(score, abs=1e-12)
    passed(4)


def test_criterion_05_cognate_rule():
    with timed(1.0):
        assert cognate_prefix("nucléique") == cognate_prefix("nucleic") == "nucl"
        assert cognate_prefix("langue") == cognate_prefix("language") == "lang"
        assert cognate_prefix("café") == cognate_prefix("cafe") == "cafe"
        assert cognate_prefix("art") is None
        ulc = make_ulc("lit", "or", UlcPattern.NOUN_ADJ, "lit or")  # constituents < 4 letters
        ranked = rank_bigrams(["litany oracle litany oracle"], ulc)
        assert find_cognates(ranked, ulc) == []
    passed(5)


def test_criterion_06_frequent_pairs_equal_brute_force():
    rng = random.Random(4242)
    vocabulary = ["alpha", "beta", "gamma", "delta", "epsilon", "la", "de", "les"]
    stops = frozenset({"la", "de", "les", "un", "une"})
    ulc = make_ulc("tête", "chose", UlcPattern.NOUN_DE_NOUN, "tête de chose")
    excluded = set(stops) | {"tête", "de", "chose"}
    with timed(5.0):
        for size in (1, 7, 40, 1_000):
            texts = [
                " ".join(rng.choice(vocabulary) for _ in range(rng.randint(2, 12)))
                for _ in range(size)
            ]
            ranked = rank_bigrams(texts, ulc, stops)
            mined = find_frequent_pairs(ranked, ulc, min_pair_freq=1, top_pairs=10**9)
            got = {tuple(c.target_surface.split()): c.scores["evidence"] for c in mined}
            assert got == brute_force_bigrams(texts, excluded)
    passed(6)


def test_criterion_07_pipeline_partition():
    units, dictionary, backend = build_50_clu_fixture()
    records = run_pipeline(units, make_ctx(backend, dictionary))
    assert len(records) == 50
    summary = summarize(records)
    assert summary["translated"] + summary["untranslated"] + summary["unresolved_oracle"] == 50
    assert all(count >= 0 for count in summary.values())
    assert {r.source.key for r in records} == {u.key for u in units}
    for record in records:
        assert (record.translation is None) == (
            record.phase in (Phase.UNTRANSLATED, Phase.UNRESOLVED_ORACLE)
        )
    passed(7)


def translate_cli(out_dir):
    return cli_main(
        [
            "translate",
            "--ulcs", str(DATA / "ulcs.tsv"),
            "--dictionary", str(DATA / "dictionary.tsv"),
            "--config", str(DATA / "run.config"),
            "--offline",
            "--cache", str(DATA / "e2e.cache"),
            "--out-dir", str(out_dir),
        ]
    )


def test_criterion_08_warm_cache_determinism(tmp_path, capsys):
    assert translate_cli(tmp_path / "first") == 0
    assert translate_cli(tmp_path / "second") == 0
    capsys.readouterr()
    for name in ("lexicon.tsv", "summary.tsv"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second
    passed(8)


def test_criterion_09_evaluation_arithmetic():
    from lexiforge.evaluation import metrics_from_grades

    with timed(1.0):
        grades = {"A": round(887 * 0.8929), "B": round(887 * 0.0507), "C": round(887 * 0.0564)}
        assert sum(grades.values()) == 887
        precision, recall = metrics_from_grades(grades, total_sources=1_075)
        assert 100 * precision == pytest.approx(94.36, abs=0.02)
        assert 100 * recall == pytest.approx(77.86, abs=0.02)
    passed(9)


def test_criterion_10_threshold_ratio_invariance():
    base_winner, base_verdicts = validate_by_frequency(
        midnight_mass_candidates(), midnight_mass_oracle(scale=1), CFG.use_an
    )
    scaled_winner, scaled_verdicts = validate_by_frequency(
        midnight_mass_candidates(), midnight_mass_oracle(scale=10), CFG.use_an
    )
    assert base_winner.target_surface == scaled_winner.target_surface
    assert [(v.candidate.target_surface, v.accepted) for v in base_verdicts] == [
        (v.candidate.target_surface, v.accepted) for v in scaled_verdicts
    ]
    rng = random.Random(7)
    for _ in range(200):
        count, head = rng.randint(0, 10**6), rng.randint(0, 10**9)
        first = frequency_verdict(midnight_mass_candidates()[0], count, head)
        second = frequency_verdict(midnight_mass_candidates()[0], count * 10, head * 10)
        assert first.accepted == second.accepted
    # just below the ratio: 1 / 10,200 < 1 / 10,000 at every scale
    for factor in (1, 50):
        assert not frequency_verdict(midnight_mass_candidates()[0], factor, 10_200 * factor).accepted
    passed(10)


def test_criterion_11_end_to_end_matches_independent_golden(tmp_path, capsys):
    with timed(30.0):
        extract_code = cli_main(
            [
                "extract",
                "--corpus", str(DATA / "corpus.tsv"),
                "--config", str(DATA / "run.config"),
                "--offline",
                "--cache", str(DATA / "e2e.cache"),
                "--out", str(tmp_path / "ulcs.tsv"),
            ]
        )
        assert extract_code == 0
        assert (tmp_path / "ulcs.tsv").read_bytes() == (DATA / "golden_ulcs.tsv").read_bytes()

        translate_code = cli_main(
            [
                "translate",
                "--ulcs", str(tmp_path / "ulcs.tsv"),
                "--dictionary", str(DATA / "dictionary.tsv"),
                "--config", str(DATA / "run.config"),
                "--offline",
                "--cache", str(DATA / "e2e.cache"),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert translate_code == 0
        capsys.readouterr()
        produced = [
            line.split("\t")[:3]
            for line in (tmp_path / "out" / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
        ]
        golden = [
            line.split("\t")
            for line in (DATA / "golden_lexicon.tsv").read_text(encoding="utf-8").splitlines()
        ]
        assert len(golden) == 20
        assert produced == golden
    passed(11)
