"""Micro-benchmarks of the hot kernels (pytest-benchmark): corpus parsing,
index building and lookups, cache appends, oracle misses and
lexical-world building.

Few rounds each, so they add well under a second to the suite; the
end-to-end numbers come from ``perfbench/run.py``.
"""

import random
from pathlib import Path

import pytest

from lexiforge.backends import LocalIndexBackend
from lexiforge.corpus import parse_tagged_corpus
from lexiforge.oracle import OracleQuery, QueryKind, ResponseCache, SearchOracle
from lexiforge.phase2 import build_lexical_world
from lexiforge.tagging import LexiconTagger

from conftest import CFG, FakeBackend

FUNCTION_WORDS = ["de", "la", "le", "et", "des", "les", "du", "en"]
CONTENT_WORDS = [f"mot{i}" for i in range(300)] + ["caisse", "centrale"]
STOPWORDS = frozenset(FUNCTION_WORDS)


@pytest.fixture(scope="module")
def thousand_docs():
    rng = random.Random(5)
    docs = []
    for i in range(1_000):
        words = [
            rng.choice(FUNCTION_WORDS) if rng.random() < 0.5 else rng.choice(CONTENT_WORDS)
            for _ in range(40)
        ]
        if i % 10 == 0:
            words[10:13] = ["la", "caisse", "centrale"]
        docs.append({"id": f"d{i}", "lang": "fr", "text": " ".join(words)})
    return docs


@pytest.fixture(scope="module")
def frequent_token_index(thousand_docs):
    return LocalIndexBackend(thousand_docs)


def test_bench_index_build(benchmark, thousand_docs):
    index = benchmark.pedantic(LocalIndexBackend, args=(thousand_docs,), rounds=3)
    assert len(index) == 1_000


def test_bench_phrase_count_led_by_frequent_token(benchmark, frequent_token_index):
    query = OracleQuery(QueryKind.PHRASE_COUNT, ("la caisse centrale",))
    count = benchmark.pedantic(frequent_token_index.execute, args=(query,), rounds=5, iterations=3)
    assert count >= 100


def test_bench_thousand_cache_puts(benchmark, tmp_path):
    queries = [OracleQuery(QueryKind.PHRASE_COUNT, (f"phrase {i}",)) for i in range(1_000)]
    paths = iter(tmp_path / f"run{i}.cache" for i in range(100))

    def fresh_cache():
        return (ResponseCache(next(paths)),), {}

    def put_all(cache):
        for i, query in enumerate(queries):
            cache.put(query, i)
        cache.close()
        return cache

    cache = benchmark.pedantic(put_all, setup=fresh_cache, rounds=3)
    assert len(ResponseCache(cache.path)) == 1_000


def test_bench_thousand_oracle_misses(benchmark, tmp_path):
    queries = [OracleQuery(QueryKind.PHRASE_COUNT, (f"phrase {i}",)) for i in range(1_000)]
    paths = iter(tmp_path / f"run{i}.cache" for i in range(100))

    def fresh_oracle():
        return (SearchOracle(FakeBackend(default_count=3), ResponseCache(next(paths))),), {}

    def miss_all(oracle):
        answers = [oracle.execute(query) for query in queries]
        oracle.close()
        return answers

    assert benchmark.pedantic(miss_all, setup=fresh_oracle, rounds=3) == [3] * 1_000


def test_bench_world_from_thousand_snippets(benchmark):
    # 1,000 snippets of 30 words over a 900-word vocabulary: most chunks
    # repeat, as in the snippets of real phrases.
    rng = random.Random(7)
    letters = "abcdefghijklmnopqrst"
    nouns = [f"n{a}{b}" for a in letters for b in letters]
    adjectives = [f"j{a}{b}" for a in letters for b in letters[:10]]
    entries = [(n, "NOUN", n) for n in nouns] + [(j, "ADJ", j) for j in adjectives]
    vocabulary = nouns + adjectives + FUNCTION_WORDS * 30
    texts = [
        " ".join(rng.choice(vocabulary) + rng.choice(["", "", ",", "."]) for _ in range(30))
        for _ in range(1_000)
    ]
    oracle = SearchOracle(FakeBackend().snips("caisse centrale", 1_000, texts))

    def fresh_tagger():
        return (LexiconTagger(entries),), {}

    def build(tagger):
        return build_lexical_world(
            "caisse centrale", "fr", oracle, tagger, STOPWORDS,
            snippet_limit=CFG.snippet_limit, world_size=CFG.world_size,
        )

    world = benchmark.pedantic(build, setup=fresh_tagger, rounds=3)
    assert world.snippet_count == 1_000
    assert len(world.nouns) == 50 and len(world.adjectives) == 50


def test_bench_parse_corpus(benchmark):
    # The fixture corpus ten times over: 12,740 lines, most of them repeats,
    # as in a real tagged corpus.
    lines = (Path(__file__).parent / "data" / "corpus.tsv").read_text(encoding="utf-8").splitlines(True) * 10
    corpus = benchmark.pedantic(parse_tagged_corpus, args=(lines,), rounds=3)
    assert corpus.token_count() == 10 * parse_tagged_corpus(lines[: len(lines) // 10]).token_count()
