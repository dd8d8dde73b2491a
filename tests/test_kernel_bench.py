"""Micro-benchmarks of the oracle's hot kernels (pytest-benchmark).

Few rounds each, so they add well under a second to the suite; the
end-to-end numbers come from ``perfbench/run.py``.
"""

import random

import pytest

from lexiforge.backends import LocalIndexBackend
from lexiforge.oracle import OracleQuery, QueryKind, ResponseCache

FUNCTION_WORDS = ["de", "la", "le", "et", "des", "les", "du", "en"]
CONTENT_WORDS = [f"mot{i}" for i in range(300)] + ["caisse", "centrale"]


@pytest.fixture(scope="module")
def frequent_token_index():
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
    return LocalIndexBackend(docs)


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
