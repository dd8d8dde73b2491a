import email.utils
import json
import logging
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lexiforge.backends import (
    WORD_RE,
    HttpBackend,
    LocalIndexBackend,
    Snippet,
    tokenize,
)
from lexiforge.cli import build_oracle
from lexiforge.config import RunConfig
from lexiforge.oracle import (
    OracleError,
    OracleQuery,
    QueryKind,
    ResponseCache,
    SearchOracle,
    _format_record,
    split_or_query,
)

from conftest import FakeBackend

DOCS = [
    {"id": "fr1", "lang": "fr", "text": "La caisse centrale finance la caisse de retraite."},
    {"id": "fr2", "lang": "fr", "text": "Une messe de minuit a lieu à Noël."},
    {"id": "en1", "lang": "en", "text": "The central fund manages the retirement fund."},
    {"id": "en2", "lang": "en", "text": "Caisse centrale is French for central fund."},
    {"id": "en3", "lang": "en", "text": "Souris d'agneau is braised lamb shank."},
    {"id": "en4", "lang": "en", "text": "Slow cooked lamb shank, or souris d'agneau, with thyme."},
    {"id": "en5", "lang": "en", "text": "A souris d'agneau recipe: lamb shank in red wine."},
    {"id": "mix", "lang": "en", "text": "Midnight mass, la messe de minuit, starts at midnight."},
]


@pytest.fixture
def index():
    return LocalIndexBackend(DOCS)


def test_query_invariants():
    with pytest.raises(ValueError):
        OracleQuery(QueryKind.PAIR_COUNT, ("only one",))
    with pytest.raises(ValueError):
        OracleQuery(QueryKind.PHRASE_COUNT, ("a", "b"))
    with pytest.raises(ValueError):
        OracleQuery(QueryKind.MIXED_SNIPPETS, ("x",), limit=10)  # no lang
    with pytest.raises(ValueError):
        OracleQuery(QueryKind.SNIPPETS, ("x",), limit=0)
    with pytest.raises(ValueError):
        Snippet("")


def test_split_or_query():
    assert split_or_query('"the snare drum" OR "a snare drum"') == [
        "the snare drum",
        "a snare drum",
    ]
    assert split_or_query("midnight mass") == ["midnight mass"]


def test_phrase_count_counts_documents(index):
    oracle = SearchOracle(index)
    assert oracle.phrase_count("lamb shank") == 3
    assert oracle.phrase_count("caisse centrale") == 2
    assert oracle.phrase_count("central fund") == 2
    assert oracle.phrase_count("unindexed phrase") == 0


def test_phrase_match_is_exact_and_contiguous(index):
    oracle = SearchOracle(index)
    assert oracle.phrase_count("retirement fund") == 1
    assert oracle.phrase_count("fund retirement") == 0
    assert oracle.phrase_count("caisse retraite") == 0  # "de" missing


def test_apostrophes_tokenize_consistently(index):
    oracle = SearchOracle(index)
    assert oracle.phrase_count("souris d'agneau") == 3


def test_pair_count_matches_brute_force(index):
    oracle = SearchOracle(index)
    count = oracle.pair_count("caisse centrale", "central fund")
    brute = sum(
        1
        for d in DOCS
        if " ".join(tokenize("caisse centrale")) in " ".join(tokenize(d["text"]))
        and " ".join(tokenize("central fund")) in " ".join(tokenize(d["text"]))
    )
    assert count == brute == 1
    assert oracle.pair_count("messe de minuit", "lamb shank") == 0


def test_or_query_counts_union_of_disjuncts(index):
    oracle = SearchOracle(index)
    union = oracle.phrase_count('"caisse centrale" OR "central fund"')
    assert union == 3  # fr1, en1, en2
    assert union >= max(oracle.phrase_count("caisse centrale"), oracle.phrase_count("central fund"))


@given(st.lists(st.sampled_from(["caisse centrale", "central fund", "lamb shank", "nothing here"]),
                min_size=1, max_size=3, unique=True))
def test_or_count_at_least_max_disjunct(phrases):
    index = LocalIndexBackend(DOCS)
    oracle = SearchOracle(index)
    query = " OR ".join(f'"{p}"' for p in phrases)
    assert oracle.phrase_count(query) >= max(oracle.phrase_count(p) for p in phrases)


def test_snippets_truncate_to_limit(index):
    oracle = SearchOracle(index)
    assert len(oracle.snippets("lamb shank", 2)) == 2
    assert len(oracle.snippets("lamb shank", 1000)) == 3


def test_mixed_snippets_filter_language(index):
    def mixed(phrase):
        return index.execute(OracleQuery(QueryKind.MIXED_SNIPPETS, (phrase,), "en", 1000))

    assert [s.doc_id for s in mixed("souris d'agneau")] == ["en3", "en4", "en5"]
    assert [s.doc_id for s in mixed("messe de minuit")] == ["mix"]
    # The oracle answers the hits' texts.
    oracle = SearchOracle(index)
    assert oracle.mixed_snippets("souris d'agneau", "en", 1000) == [s.text for s in mixed("souris d'agneau")]
    # same phrase unrestricted also sees the French page
    assert len(oracle.snippets("messe de minuit", 1000)) == 2


@given(st.text())
@example("ΟΔΟΣ ΣΑ ΟΔΟΣΣ")
@example("İstanbul\xa0İ ǅungla ǄUNGLA")
def test_tokenize_equals_match_object_form(text):
    tokens = [m.group(0).lower() for m in WORD_RE.finditer(text)]
    assert tokenize(text) == tokens
    # The index lowercases each document's tokens joined by spaces at once.
    assert " ".join(WORD_RE.findall(text)).lower() == " ".join(tokens)


VOCAB = ["de", "la", "caisse", "fund"]
vocab_phrases = st.lists(st.sampled_from(VOCAB + ["absent"]), min_size=1, max_size=3).map(" ".join)


def scan_docs(texts, query):
    """Documents whose token list holds one of the query's disjuncts as a
    contiguous run of tokens."""
    token_lists = [tokenize(text) for text in texts]
    hits = set()
    for phrase in split_or_query(query):
        want = tokenize(phrase)
        for idx, tokens in enumerate(token_lists):
            if want and any(tokens[k : k + len(want)] == want for k in range(len(tokens))):
                hits.add(idx)
    return hits


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["fr", "en"]),
            st.lists(st.one_of(st.sampled_from(VOCAB), st.text()), min_size=1, max_size=8),
        ),
        min_size=1,
        max_size=12,
    ),
    st.lists(st.one_of(vocab_phrases, st.text(min_size=1)), min_size=1, max_size=3),
    st.integers(1, 4),
)
@example(
    [("fr", ["de", "la", "de", "la"]), ("en", ["la", "de", "la", "de"]), ("fr", ["de", "de", "la"])],
    ["de la de", "de", "absent", "la de la de la"],
    2,
)
@example(
    [
        ("fr", ["ΟΔΟΣ ΣΑ", "de"]),
        ("en", ["İstanbul\xa0la", "caisse"]),
        ("fr", ["ǅungla,fund", "ǄUNGLA"]),
        ("en", ["la caisse de la caisse de la", "fund"]),
        ("fr", ["caisse la caisses de lac"]),
    ],
    ["οδος σα", "İSTANBUL LA CAISSE", "ǆungla fund ǆungla", "la caisse de la", "de la"],
    3,
)
def test_local_index_matches_brute_force_scan(docs, query_phrases, limit):
    texts = [" ".join(pieces) for _, pieces in docs]
    index = LocalIndexBackend(
        {"id": f"d{i}", "lang": lang, "text": text} for i, ((lang, _), text) in enumerate(zip(docs, texts))
    )
    for phrase in query_phrases:
        hits = sorted(scan_docs(texts, phrase))
        assert index.execute(OracleQuery(QueryKind.PHRASE_COUNT, (phrase,))) == len(hits)
        snippets = index.execute(OracleQuery(QueryKind.SNIPPETS, (phrase,), limit=limit))
        assert [s.doc_id for s in snippets] == [f"d{i}" for i in hits][:limit]
        mixed = index.execute(
            OracleQuery(QueryKind.MIXED_SNIPPETS, (phrase,), lang_restrict="en", limit=limit)
        )
        assert [s.doc_id for s in mixed] == [f"d{i}" for i in hits if docs[i][0] == "en"][:limit]
    first, last = query_phrases[0], query_phrases[-1]
    pair = index.execute(OracleQuery(QueryKind.PAIR_COUNT, (first, last)))
    assert pair == len(scan_docs(texts, first) & scan_docs(texts, last))
    or_query = " OR ".join(f'"{p}"' for p in query_phrases)
    assert index.execute(OracleQuery(QueryKind.PHRASE_COUNT, (or_query,))) == len(scan_docs(texts, or_query))


def test_index_matches_across_case_and_separators():
    texts = [
        "ΟΔΟΣ ΣΑ",  # final sigma only where a token ends
        "İstanbul\xa0la caisse",  # dotted capital I lowercases to two code points
        "ǅungla,fund",  # titlecase digraph
        "la caisse de la caisse de la",  # a phrase repeated, overlapping itself
        "caisse la caisses de lac",  # both tokens present, only as prefixes of others
    ]
    oracle = SearchOracle(LocalIndexBackend({"id": str(i), "text": t} for i, t in enumerate(texts)))
    assert oracle.phrase_count("οδος σα") == 1
    assert oracle.phrase_count("ΟΔΟΣ") == 1
    assert oracle.phrase_count("οδοσ") == 0
    assert oracle.phrase_count("İSTANBUL LA CAISSE") == 1
    assert oracle.phrase_count("istanbul") == 0
    assert oracle.phrase_count("ǆungla fund") == 1
    assert oracle.phrase_count("de la caisse de la") == 1
    assert oracle.phrase_count("la caisse") == 2
    assert oracle.phrase_count("de la") == 1
    assert oracle.phrase_count("caisse la") == 1


def test_single_token_lookup_hands_out_a_fresh_set(index):
    hits = index._phrase_docs("caisse")
    assert hits == {0, 3}
    hits.add(7)
    assert index._phrase_docs("caisse") == {0, 3}
    assert SearchOracle(index).phrase_count("caisse") == 2


def test_jsonl_roundtrip(tmp_path, index):
    path = tmp_path / "docs.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for doc in DOCS:
            fh.write(json.dumps(doc, ensure_ascii=False) + "\n")
    loaded = LocalIndexBackend.from_jsonl(path)
    assert SearchOracle(loaded).phrase_count("lamb shank") == 3


def test_cache_roundtrip_single_backend_call(tmp_path):
    backend = FakeBackend().count("midnight mass", 336_000)
    cache = ResponseCache(tmp_path / "run.cache")
    oracle = SearchOracle(backend, cache)
    assert oracle.phrase_count("midnight mass") == 336_000
    assert oracle.phrase_count("midnight mass") == 336_000
    oracle.close()
    assert backend.calls == 1


def test_cache_file_reload_identical(tmp_path):
    path = tmp_path / "run.cache"
    backend = FakeBackend().count("midnight mass", 336_000).count("mass of midnight", 65)
    backend.snips("souris d'agneau", 5, ["Lamb shank à la façon."], lang="en")
    oracle = SearchOracle(backend, ResponseCache(path))
    oracle.phrase_count("midnight mass")
    oracle.phrase_count("mass of midnight")
    first = oracle.mixed_snippets("souris d'agneau", "en", 5)
    oracle.close()

    reloaded = SearchOracle(None, ResponseCache(path))
    assert reloaded.phrase_count("midnight mass") == 336_000
    assert reloaded.phrase_count("mass of midnight") == 65
    assert reloaded.mixed_snippets("souris d'agneau", "en", 5) == first


def test_offline_cache_miss_raises(tmp_path):
    cache = ResponseCache(tmp_path / "empty.cache")
    oracle = SearchOracle(None, cache)
    with pytest.raises(OracleError):
        oracle.phrase_count("anything")


@pytest.mark.parametrize(
    "query, answer",
    [
        (OracleQuery(QueryKind.PHRASE_COUNT, ("atmosphere",)), [Snippet("x")]),
        (OracleQuery(QueryKind.PAIR_COUNT, ("a", "b")), True),
        (OracleQuery(QueryKind.SNIPPETS, ("atmosphere",), limit=5), 3),
        (OracleQuery(QueryKind.MIXED_SNIPPETS, ("a",), lang_restrict="en", limit=5), ["x"]),
    ],
)
def test_backend_answer_of_wrong_shape_raises_and_is_not_cached(tmp_path, query, answer):
    backend = FakeBackend()
    backend.responses[query.cache_key()] = answer
    cache = ResponseCache(tmp_path / "c")
    oracle = SearchOracle(backend, cache)
    with pytest.raises(OracleError, match=query.kind.value):
        oracle.execute(query)
    oracle.close()
    assert len(cache) == 0
    assert not (tmp_path / "c").exists()


def test_pair_key_is_order_insensitive(tmp_path):
    backend = FakeBackend().pair("caisse centrale", "central fund", 4)
    oracle = SearchOracle(backend, ResponseCache(tmp_path / "c"))
    assert oracle.pair_count("caisse centrale", "central fund") == 4
    assert oracle.pair_count("central fund", "caisse centrale") == 4
    oracle.close()
    assert backend.calls == 1


def test_corrupt_cache_lines_skipped(tmp_path):
    path = tmp_path / "run.cache"
    good = OracleQuery(QueryKind.PHRASE_COUNT, ("ok",))
    cache = ResponseCache(path)
    cache.put(good, 7)
    cache.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("PHRASE_COUNT\tbroken\n")  # wrong field count
        fh.write("PHRASE_COUNT\tbad\t\t-\t-\tnot-json\n")
    reloaded = ResponseCache(path)
    assert len(reloaded) == 1
    assert reloaded.get(good) == 7


@pytest.mark.parametrize(
    "record",
    [
        "PHRASE_COUNT\tbool\t\t-\t-\ttrue",
        "PHRASE_COUNT\tnegative\t\t-\t-\t-3",
        "SNIPPETS\tno text\t\t-\t5\t[[null, \"d1\"]]",
        "SNIPPETS\tnumeric text\t\t-\t5\t[[7, \"d1\"]]",
        "SNIPPETS\tobject\t\t-\t5\t{\"ab\": 1}",
        "PHRASE_COUNT\tatmosphere\t\t-\t-\t[[\"x\", null]]",
        "SNIPPETS\tcount\t\t-\t5\t3",
        "SNIPPETS\tempty text\t\t-\t5\t[\"\"]",
        "SNIPPETS\tnumber\t\t-\t5\t[7]",
        "SNIPPETS\tone-element pair\t\t-\t5\t[[\"x\"]]",
        "SNIPPETS\tempty pair text\t\t-\t5\t[[\"\", \"d\"]]",
        "SNIPPETS\tpair and text\t\t-\t5\t[[\"x\", \"d\"], \"y\"]",
        "PHRASE_COUNT\ttexts\t\t-\t-\t[\"x\"]",
    ],
)
def test_cache_records_with_bad_payloads_skipped(tmp_path, caplog, record):
    path = tmp_path / "run.cache"
    path.write_text("PHRASE_COUNT\tok\t\t-\t-\t7\n" + record + "\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="lexiforge.oracle"):
        reloaded = ResponseCache(path)
    assert len(reloaded) == 1
    assert reloaded.get(OracleQuery(QueryKind.PHRASE_COUNT, ("ok",))) == 7
    assert caplog.messages == [f"{path}:2: skipping corrupt cache record"]


def test_cache_record_with_lone_surrogate_escape_is_skipped_and_compacts(tmp_path, caplog):
    path = tmp_path / "run.cache"
    path.write_text(
        'PHRASE_COUNT\tok\t\t-\t-\t7\n'
        'SNIPPETS\tcafé\t\t-\t5\t["page", "caf\\ud800"]\n'
        'SNIPPETS\told\t\t-\t5\t[["caf\\udc00", "d1"]]\n',
        encoding="utf-8",
    )
    with caplog.at_level(logging.WARNING, logger="lexiforge.oracle"):
        cache = ResponseCache(path)
    assert caplog.messages == [
        f"{path}:2: skipping corrupt cache record",
        f"{path}:3: skipping corrupt cache record",
    ]
    assert len(cache) == 1
    assert cache.compact() == 1
    assert path.read_text(encoding="utf-8") == "PHRASE_COUNT\tok\t\t-\t-\t7\n"


def test_cache_reads_text_lists_and_older_text_id_pairs_alike(tmp_path):
    path = tmp_path / "run.cache"
    path.write_text(
        'SNIPPETS\tnew\t\t-\t5\t["La caisse", "Une \\"messe\\""]\n'
        'SNIPPETS\told\t\t-\t5\t[["La caisse", "fr1"], ["Une \\"messe\\"", null]]\n'
        'MIXED_SNIPPETS\tnone\t\ten\t5\t[]\n',
        encoding="utf-8",
    )
    cache = ResponseCache(path)
    texts = ["La caisse", 'Une "messe"']
    assert cache.get(OracleQuery(QueryKind.SNIPPETS, ("new",), limit=5)) == texts
    assert cache.get(OracleQuery(QueryKind.SNIPPETS, ("old",), limit=5)) == texts
    assert cache.get(OracleQuery(QueryKind.MIXED_SNIPPETS, ("none",), "en", 5)) == []
    # Compaction rewrites every snippet list as plain texts.
    cache.compact()
    assert path.read_text(encoding="utf-8").splitlines()[2] == (
        'SNIPPETS\told\t\t-\t5\t["La caisse", "Une \\"messe\\""]'
    )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.text(min_size=1) | st.sampled_from(["a\tb", "a\nb\r", '"q"\\', "\U0001f600\U00020000"]),
        max_size=5,
    )
)
def test_snippet_texts_survive_put_reload_and_compact(texts):
    query = OracleQuery(QueryKind.SNIPPETS, ("phrase",), limit=5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cache"
        cache = ResponseCache(path)
        cache.put(query, texts)
        cache.put(OracleQuery(QueryKind.PHRASE_COUNT, ("phrase",)), 3)
        cache.close()
        reloaded = ResponseCache(path)
        assert reloaded.get(query) == texts
        assert reloaded.compact() == 2
        assert ResponseCache(path).get(query) == texts


SPECIAL_TEXTS = ["café", '"', "\\", "a\tb", "a\nb", "\u2028", 'é "q" \\ \t\n\u2028 ü']
kinds_and_answers = st.one_of(
    st.tuples(
        st.sampled_from([QueryKind.PHRASE_COUNT, QueryKind.PAIR_COUNT]),
        st.integers(min_value=0) | st.sampled_from([0, 10**40]),
    ),
    st.tuples(
        st.sampled_from([QueryKind.SNIPPETS, QueryKind.MIXED_SNIPPETS]),
        st.lists(st.text(min_size=1) | st.sampled_from(SPECIAL_TEXTS), max_size=5),
    ),
)


@settings(max_examples=100, deadline=None)
@given(kinds_and_answers, st.lists(st.text("abé ", min_size=1), min_size=2, max_size=2))
def test_cache_record_bytes_match_json_dumps_and_reload(kind_and_answer, phrases):
    # Caches written before and after the shared encoder stay interchangeable.
    kind, answer = kind_and_answer
    if kind is QueryKind.PAIR_COUNT:
        query = OracleQuery(kind, tuple(phrases))
    else:
        query = OracleQuery(kind, (phrases[0],), "en" if kind is QueryKind.MIXED_SNIPPETS else None,
                            None if kind is QueryKind.PHRASE_COUNT else 5)
    key = query.cache_key()
    p2 = key[1][1] if len(key[1]) > 1 else ""
    layout = [key[0], key[1][0], p2, key[2], key[3], json.dumps(answer, ensure_ascii=False)]
    record = _format_record(key, answer)
    assert record == "\t".join(layout) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cache"
        path.write_bytes(record.encode("utf-8"))
        assert ResponseCache(path).get(query) == answer


def test_last_write_wins(tmp_path):
    path = tmp_path / "run.cache"
    q = OracleQuery(QueryKind.PHRASE_COUNT, ("phrase",))
    cache = ResponseCache(path)
    cache.put(q, 1)
    cache.put(q, 2)
    cache.close()
    assert ResponseCache(path).get(q) == 2


def test_compact_dedupes_file(tmp_path):
    path = tmp_path / "run.cache"
    q = OracleQuery(QueryKind.PHRASE_COUNT, ("phrase",))
    cache = ResponseCache(path)
    for value in (1, 2, 3):
        cache.put(q, value)
    assert cache.compact() == 1
    assert ResponseCache(path).get(q) == 3
    assert len(path.read_text().splitlines()) == 1


def test_torn_tail_does_not_swallow_next_record(tmp_path):
    path = tmp_path / "run.cache"
    path.write_text('PHRASE_COUNT\tok\t\t-\t-\t7\nSNIPPETS\ttorn\t\t-\t5\t[["half a rec', encoding="utf-8")
    fresh = OracleQuery(QueryKind.PHRASE_COUNT, ("fresh",))
    cache = ResponseCache(path)
    cache.put(fresh, 9)
    cache.close()
    reloaded = ResponseCache(path)
    assert reloaded.get(fresh) == 9
    assert reloaded.get(OracleQuery(QueryKind.PHRASE_COUNT, ("ok",))) == 7
    assert len(reloaded) == 2


def test_put_after_compact_reaches_new_file(tmp_path):
    path = tmp_path / "run.cache"
    q = OracleQuery(QueryKind.PHRASE_COUNT, ("phrase",))
    later = OracleQuery(QueryKind.PHRASE_COUNT, ("later",))
    cache = ResponseCache(path)
    cache.put(q, 1)
    cache.put(q, 2)
    cache.compact()
    cache.put(later, 5)
    cache.close()
    reloaded = ResponseCache(path)
    assert reloaded.get(q) == 2
    assert reloaded.get(later) == 5
    assert len(path.read_text().splitlines()) == 2


def test_cache_only_backend_replays_and_errors(tmp_path):
    path = tmp_path / "fixture.cache"
    recording = ResponseCache(path)
    recording.put(OracleQuery(QueryKind.PHRASE_COUNT, ("known",)), 42)
    recording.close()
    oracle = build_oracle(RunConfig(backend="cache", cache_path=str(path)))
    assert oracle.phrase_count("known") == 42
    with pytest.raises(OracleError):
        oracle.phrase_count("unknown")
    oracle.close()


def test_warm_cache_replay_issues_zero_backend_calls(tmp_path):
    path = tmp_path / "warm.cache"
    backend = FakeBackend(default_count=5)
    oracle = SearchOracle(backend, ResponseCache(path))
    queries = [f"phrase {i}" for i in range(200)]
    for q in queries:
        oracle.phrase_count(q)
    oracle.close()
    assert backend.calls == 200

    fresh_backend = FakeBackend(default_count=5)
    replay = SearchOracle(fresh_backend, ResponseCache(path))
    for q in queries:
        assert replay.phrase_count(q) == 5
    assert fresh_backend.calls == 0


def test_backend_parallelism_is_bounded(tmp_path):
    class TrackingBackend(FakeBackend):
        def __init__(self):
            super().__init__(default_count=1)
            self.active = 0
            self.peak = 0
            self.gate = threading.Lock()

        def execute(self, query):
            with self.gate:
                self.active += 1
                self.peak = max(self.peak, self.active)
            time.sleep(0.01)
            with self.gate:
                self.active -= 1
            return super().execute(query)

    backend = TrackingBackend()
    oracle = SearchOracle(backend, max_parallel=2)
    threads = [
        threading.Thread(target=lambda i=i: oracle.phrase_count(f"distinct {i}"))
        for i in range(10)
    ]
    start_and_join(threads)
    assert backend.peak <= 2


def start_and_join(threads, timeout=30.0):
    """Run the threads; a thread still alive at the deadline (a deadlocked
    hand-off, say) fails the test instead of hanging the suite."""
    for t in threads:
        t.start()
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in threads)


class SlowBackend(FakeBackend):
    """A FakeBackend whose every call takes ``delay`` seconds; its call
    count is kept under a lock, since threads call it at once."""

    def __init__(self, default_count=None, delay=0.02):
        super().__init__(default_count)
        self.delay = delay
        self.gate = threading.Lock()

    def execute(self, query):
        time.sleep(self.delay)
        with self.gate:
            return super().execute(query)


def ask_together(oracle, phrase, n):
    """``n`` threads ask ``phrase`` at once; their answers, or the
    OracleErrors they raised."""
    barrier = threading.Barrier(n)
    results = []

    def ask():
        barrier.wait()
        try:
            results.append(oracle.phrase_count(phrase))
        except OracleError as exc:
            results.append(exc)

    start_and_join([threading.Thread(target=ask) for _ in range(n)])
    return results


def test_concurrent_identical_queries_deduplicated(tmp_path):
    backend = SlowBackend(default_count=9)
    oracle = SearchOracle(backend, ResponseCache(tmp_path / "c"))
    results = ask_together(oracle, "same query", 8)
    oracle.close()
    assert results == [9] * 8
    assert backend.calls == 1


def test_concurrent_identical_queries_share_one_call_without_a_cache():
    backend = SlowBackend(default_count=9, delay=0.2)
    results = ask_together(SearchOracle(backend, None), "same query", 8)
    assert results == [9] * 8
    assert backend.calls == 1


def test_caller_missing_the_cache_as_the_leader_settles_asks_no_second_time(tmp_path):
    # The late caller's cache look misses; then the leader puts its answer
    # and settles before the late caller reaches the in-flight table.
    asking, answer, missed, settled = (threading.Event() for _ in range(4))

    class Blocking(FakeBackend):
        def execute(self, query):
            asking.set()
            answer.wait(10)
            return super().execute(query)

    class PausingCache(ResponseCache):
        def get(self, query):
            value = super().get(query)
            if threading.current_thread().name == "late":
                missed.set()
                settled.wait(10)
            return value

    backend = Blocking(default_count=9)
    oracle = SearchOracle(backend, PausingCache(tmp_path / "c"))
    results = []
    leader = threading.Thread(target=oracle.phrase_count, args=("q",))
    late = threading.Thread(target=lambda: results.append(oracle.phrase_count("q")), name="late")
    leader.start()
    assert asking.wait(10)
    late.start()
    assert missed.wait(10)
    answer.set()
    leader.join(10)
    assert not leader.is_alive()
    settled.set()
    late.join(10)
    assert not late.is_alive()
    oracle.close()
    assert results == [9]
    assert backend.calls == 1


def test_failed_leader_is_replaced_by_exactly_one_waiter(tmp_path):
    class FailsFirst(SlowBackend):
        def execute(self, query):
            if self.calls == 0:
                time.sleep(0.2)  # the other callers queue up behind this call
                self.calls += 1
                raise OracleError("first call fails")
            return super().execute(query)

    backend = FailsFirst(default_count=9, delay=0.01)
    oracle = SearchOracle(backend, ResponseCache(tmp_path / "c"), max_parallel=8)
    results = ask_together(oracle, "same query", 8)
    oracle.close()
    assert backend.calls == 2
    assert len([r for r in results if isinstance(r, OracleError)]) == 1
    assert [r for r in results if not isinstance(r, OracleError)] == [9] * 7


def test_many_threads_many_keys_one_backend_call_each(tmp_path):
    # 16 threads (more than the cores) ask 50 keys in their own orders,
    # switching threads as often as the interpreter allows.
    keys = [f"key {i}" for i in range(50)]
    counter_lock = threading.Lock()
    per_key = {}

    class Counting(FakeBackend):
        def execute(self, query):
            with counter_lock:
                per_key[query.phrases[0]] = per_key.get(query.phrases[0], 0) + 1
            time.sleep(0.001)
            return int(query.phrases[0].split()[1])

    oracle = SearchOracle(Counting(), ResponseCache(tmp_path / "c"), max_parallel=4)
    wrong = []

    def ask(seed):
        order = keys[:]
        random.Random(seed).shuffle(order)
        for key in order:
            answer = oracle.phrase_count(key)
            if answer != int(key.split()[1]):
                wrong.append((key, answer))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start_and_join([threading.Thread(target=ask, args=(seed,)) for seed in range(16)], timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    oracle.close()
    assert wrong == []
    assert per_key == dict.fromkeys(keys, 1)


class StubResponse:
    def __init__(self, status_code, payload, headers=None):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}

    def json(self):
        return self._payload


class StubSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def get(self, url, params=None, timeout=None):
        self.requests.append((url, dict(params or {})))
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def test_http_backend_count_roundtrip():
    session = StubSession([StubResponse(200, {"count": 336_000})])
    backend = HttpBackend("https://search.example/api", api_key="k", rate_per_sec=0, session=session)
    oracle = SearchOracle(backend)
    assert oracle.phrase_count("midnight mass") == 336_000
    url, params = session.requests[0]
    assert params == {"kind": "count", "q": "midnight mass", "key": "k"}


def test_http_backend_snippets_and_lang():
    session = StubSession(
        [StubResponse(200, {"snippets": [{"text": "mixed page", "doc_id": "d1"}]})]
    )
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    snippets = SearchOracle(backend).mixed_snippets("souris d'agneau", "en", 10)
    assert snippets == ["mixed page"]
    assert session.requests[0][1]["lang"] == "en"
    assert session.requests[0][1]["limit"] == "10"


def test_http_backend_retries_server_errors(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    session = StubSession([StubResponse(500, {}), StubResponse(200, {"count": 3})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    assert backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",))) == 3
    assert len(session.requests) == 2


@pytest.mark.parametrize(
    "response",
    [StubResponse(404, {}), StubResponse(403, {}), StubResponse(200, {"count": True}), StubResponse(200, [3])],
)
def test_http_backend_fails_fast_on_client_errors_and_bad_payloads(monkeypatch, response):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([response] * 3)
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, max_retries=3, session=session)
    with pytest.raises(OracleError):
        backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",)))
    assert len(session.requests) == 1
    assert sleeps == []


@pytest.mark.parametrize(
    "failure",
    [StubResponse(503, {}), StubResponse(408, {}), StubResponse(429, {}), TimeoutError("read timed out")],
)
def test_http_backend_retries_transient_failures(monkeypatch, failure):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([failure, StubResponse(200, {"count": 3})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    assert backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",))) == 3
    assert len(session.requests) == 2
    assert sleeps == [0.5]


@pytest.mark.parametrize("status", [429, 503])
def test_http_backend_waits_as_long_as_retry_after_asks(monkeypatch, status):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([StubResponse(status, {}, {"Retry-After": "2"}), StubResponse(200, {"count": 3})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    assert backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",))) == 3
    assert len(session.requests) == 2
    assert sleeps == [2.0]


def test_http_backend_retry_after_as_http_date(monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    later = email.utils.formatdate(time.time() + 4, usegmt=True)
    session = StubSession([StubResponse(429, {}, {"Retry-After": later}), StubResponse(200, {"count": 3})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    assert backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",))) == 3
    assert len(sleeps) == 1 and 2.0 < sleeps[0] <= 4.0


def test_http_backend_shorter_retry_after_keeps_the_backoff(monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([StubResponse(503, {}, {"Retry-After": "0"}), StubResponse(200, {"count": 3})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    assert backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",))) == 3
    assert sleeps == [0.5]


@pytest.mark.parametrize("retry_after", ["3600", "9"])
def test_http_backend_fails_at_once_when_retry_after_exceeds_the_cap(monkeypatch, retry_after):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([StubResponse(429, {}, {"Retry-After": retry_after})] * 3)
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, max_retries=3, session=session)
    with pytest.raises(OracleError, match=f"retry after {retry_after} s"):
        backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",)))
    assert len(session.requests) == 1
    assert sleeps == []


def test_http_backend_gives_up_with_oracle_error(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    session = StubSession([StubResponse(500, {})] * 3)
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, max_retries=3, session=session)
    with pytest.raises(OracleError):
        backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",)))


@pytest.mark.parametrize(
    "kind, payload",
    [
        (QueryKind.PHRASE_COUNT, {"count": True}),
        (QueryKind.PHRASE_COUNT, {"count": -1}),
        (QueryKind.PAIR_COUNT, {"count": False}),
        (QueryKind.SNIPPETS, {"snippets": [{"doc_id": "d1"}]}),
        (QueryKind.SNIPPETS, {"snippets": [{"text": 7, "doc_id": "d1"}]}),
        (QueryKind.SNIPPETS, {"snippets": ["bare text"]}),
        (QueryKind.SNIPPETS, {"snippets": [{"text": "", "doc_id": "d1"}]}),
        (QueryKind.SNIPPETS, {"snippets": [{"text": "page"}, {"text": ""}]}),
    ],
)
def test_http_backend_rejects_malformed_payloads(kind, payload):
    phrases = ("a", "b") if kind is QueryKind.PAIR_COUNT else ("a",)
    query = OracleQuery(kind, phrases, limit=None if kind is not QueryKind.SNIPPETS else 5)
    session = StubSession([StubResponse(200, payload)])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, max_retries=1, session=session)
    with pytest.raises(OracleError, match="malformed"):
        backend.execute(query)


def test_http_snippet_with_lone_surrogate_raises_and_is_not_cached(tmp_path):
    # Valid JSON (the body held the escape ``\ud800``), but not writable as UTF-8.
    session = StubSession([StubResponse(200, {"snippets": [{"text": "page"}, {"text": "caf\ud800"}]})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    cache = ResponseCache(tmp_path / "c")
    oracle = SearchOracle(backend, cache)
    with pytest.raises(OracleError, match="SNIPPETS"):
        oracle.snippets("café", 5)
    oracle.close()
    assert len(cache) == 0
    assert not (tmp_path / "c").exists()


def test_http_backend_accepts_zero_count():
    session = StubSession([StubResponse(200, {"count": 0})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    assert backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",))) == 0
