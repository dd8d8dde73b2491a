"""Micro-benchmarks of the hot kernels (pytest-benchmark): corpus parsing,
index building and lookups, cache appends and loads, oracle misses and
lexical-world building.

Few rounds each, so they add well under a second to the suite; the
end-to-end numbers come from ``perfbench/run.py``.
"""

import io
import json
import random
import tracemalloc
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


def test_bench_phrase_count_all_tokens_frequent(benchmark, thousand_docs, frequent_token_index):
    # Both tokens are in most documents, so the rarest token's documents are
    # many and the substring test decides each of them.
    query = OracleQuery(QueryKind.PHRASE_COUNT, ("de la",))
    count = benchmark.pedantic(frequent_token_index.execute, args=(query,), rounds=5, iterations=3)
    assert count == sum(" de la " in f" {doc['text']} " for doc in thousand_docs)


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


def recorded_cache(tmp_path) -> tuple[Path, int]:
    """A recorded cache of 300 snippet records of 15 texts of 30 words, and
    the UTF-8 bytes of its texts; replayed once, so its snapshot is saved."""
    rng = random.Random(11)
    path = tmp_path / "recorded.cache"
    recording = ResponseCache(path)
    text_bytes = 0
    for i in range(300):
        texts = [" ".join(rng.choice(CONTENT_WORDS + FUNCTION_WORDS) for _ in range(30)) for _ in range(15)]
        recording.put(OracleQuery(QueryKind.SNIPPETS, (f"phrase {i}",), limit=15), texts)
        text_bytes += sum(len(text.encode("utf-8")) for text in texts)
    recording.close()
    SearchOracle(None, ResponseCache(path)).close()  # a replay, which saves the snapshot
    assert Path(f"{path}.snapshot").is_file()
    return path, text_bytes


@pytest.mark.parametrize("snapshot", [False, True], ids=["parsed", "from-snapshot"])
def test_bench_recorded_cache_load(benchmark, tmp_path, snapshot):
    path, _ = recorded_cache(tmp_path)
    saved = Path(f"{path}.snapshot")

    def setup():
        if not snapshot:
            saved.unlink(missing_ok=True)
        return (path,), {}

    cache = benchmark.pedantic(ResponseCache, setup=setup, rounds=5)
    assert len(cache) == 300 and saved.is_file() is snapshot


@pytest.mark.parametrize("saved", [False, True], ids=["parsed", "saved"])
def test_bench_tagger_from_file(benchmark, tmp_path, saved):
    # A lexicon file of 8,000 rows, about the size of each benchmark
    # lexicon: parsed, which saves the parse beside it, or loaded from that.
    rng = random.Random(3)
    words = {"".join(rng.choice("abcdefghijklmnopqrstuvwxyzéè") for _ in range(rng.randint(3, 12))) for _ in range(8_000)}
    text = "".join(f"{word}\t{rng.choice(['NOUN', 'ADJ', 'VERB'])}\t{word[:-1] if rng.random() < 0.3 else word}\n" for word in words)
    path = tmp_path / "tagger.tsv"
    path.write_text(text, encoding="utf-8")
    parse = Path(f"{path}.parsed")

    def setup():
        if not saved:
            parse.unlink(missing_ok=True)
        return (path,), {}

    tagger = benchmark.pedantic(LexiconTagger.from_file, setup=setup, rounds=5)
    assert len(tagger) == len(words) and parse.is_file()
    assert tagger.table_crc == LexiconTagger.from_file(io.StringIO(text)).table_crc


def test_a_snapshot_load_leaves_the_snippet_texts_in_the_file(tmp_path):
    # What a warm replay's memory is made of: a load from the snapshot holds
    # the number of each record's texts, not the texts.
    path, text_bytes = recorded_cache(tmp_path)
    tracemalloc.start()
    try:
        cache = ResponseCache(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cache) == 300 and held < text_bytes / 4


def test_a_snapshot_load_holds_under_200_bytes_per_count_record(tmp_path):
    # What a warm replay's count entries are made of: one key string (the
    # record's first five fields) and one int each, not a tuple of tuples.
    path = tmp_path / "counts.cache"
    recording = ResponseCache(path)
    for i in range(3_000):
        recording.put(OracleQuery(QueryKind.PHRASE_COUNT, (f"caisse centrale {i}",)), 1_000 + i)
        recording.put(OracleQuery(QueryKind.PAIR_COUNT, (f"caisse centrale {i}", f"central fund {i}")), i)
    recording.close()
    ResponseCache(path).close()  # a replay, which saves the snapshot
    tracemalloc.start()
    try:
        cache = ResponseCache(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cache) == 6_000 and held / 6_000 < 200


def test_a_loaded_index_holds_less_than_two_and_a_half_times_its_collection(tmp_path, thousand_docs):
    # What a cold run's memory is made of: the texts and their token strings
    # as strings, the ids and languages packed, the postings as tuples.
    path = tmp_path / "docs.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in thousand_docs), encoding="utf-8")
    LocalIndexBackend.from_jsonl(path)  # builds and saves the index
    tracemalloc.start()
    try:
        index = LocalIndexBackend.from_jsonl(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index) == 1_000 and held < 2.5 * path.stat().st_size


class Unnamed:
    """A tagger that names no table, so it finds no saved counts."""

    def __init__(self, tagger):
        self.tag, self.count = tagger.tag, tagger.count


@pytest.mark.parametrize("case", ["recount", "saved", "snapshot-recount"])
def test_bench_world_from_thousand_snippets(benchmark, tmp_path, case):
    # 1,000 snippets of 30 words over a 900-word vocabulary: most chunks
    # repeat, as in the snippets of real phrases. Replayed from a recorded
    # cache: parsed and counted by a fresh tagger, read from the counts its
    # snapshot holds, or loaded from the snapshot and counted by a tagger
    # without saved counts, which reads the texts from the cache file first.
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
    path = tmp_path / "recorded.cache"
    recording = ResponseCache(path)
    recording.put(OracleQuery(QueryKind.SNIPPETS, ("caisse centrale",), limit=CFG.snippet_limit), texts)
    recording.close()
    snapshot = Path(f"{path}.snapshot")

    def replay():
        if case == "recount":
            snapshot.unlink(missing_ok=True)
        tagger = LexiconTagger(entries)
        return (SearchOracle(None, ResponseCache(path)), Unnamed(tagger) if case == "snapshot-recount" else tagger), {}

    def build(oracle, tagger):
        return build_lexical_world(
            "caisse centrale", "fr", oracle, tagger, STOPWORDS,
            snippet_limit=CFG.snippet_limit, world_size=CFG.world_size,
        )

    args, _ = replay()
    first = build(*args)
    args[0].close()
    assert snapshot.is_file()
    world = benchmark.pedantic(build, setup=replay, rounds=3)
    assert world == first and world.snippet_count == 1_000
    assert len(world.nouns) == 50 and len(world.adjectives) == 50


def test_bench_parse_corpus(benchmark):
    # The fixture corpus ten times over: 12,740 lines, most of them repeats,
    # as in a real tagged corpus.
    lines = (Path(__file__).parent / "data" / "corpus.tsv").read_text(encoding="utf-8").splitlines(True) * 10
    sentences = benchmark.pedantic(parse_tagged_corpus, args=(lines,), rounds=3)
    tenth = parse_tagged_corpus(lines[: len(lines) // 10])
    assert sum(map(len, sentences)) == 10 * sum(map(len, tenth))
