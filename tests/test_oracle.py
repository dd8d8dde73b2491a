import email.utils
import json
import logging
import marshal
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import lexiforge.backends as backends
import lexiforge.oracle as oracle
import lexiforge.savefile as savefile
from lexiforge.backends import (
    SNIPPET_MAX_CHARS,
    WORD_RE,
    HttpBackend,
    LocalIndexBackend,
    Snippet,
    tokenize,
)
from lexiforge.cli import build_oracle, main
from lexiforge.config import InputError, RunConfig
from lexiforge.dictionary import load_dictionary
from lexiforge.oracle import (
    OracleError,
    OracleQuery,
    QueryKind,
    ResponseCache,
    SearchOracle,
    _format_record,
    compact,
    or_query,
    split_or_query,
)
from lexiforge.phase2 import build_lexical_world
from lexiforge.tagging import LexiconTagger

from conftest import FakeBackend, refusing_saved_files

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
    # A tab or a line break would split the query's cache record.
    for bad in ("a\tb", "a\nb", "a\rb", "\t"):
        with pytest.raises(ValueError, match="tab or a line break"):
            OracleQuery(QueryKind.SNIPPETS, (bad,), limit=5)
        with pytest.raises(ValueError, match="tab or a line break"):
            OracleQuery(QueryKind.PAIR_COUNT, ("ok", bad))
        with pytest.raises(ValueError, match="tab or a line break"):
            OracleQuery(QueryKind.MIXED_SNIPPETS, ("ok",), lang_restrict=bad, limit=5)


def test_split_or_query():
    assert split_or_query('"the snare drum" OR "a snare drum"') == [
        "the snare drum",
        "a snare drum",
    ]
    assert split_or_query("midnight mass") == ["midnight mass"]


# Phrases as the cascade builds them: words, apostrophes and spaces, never an
# upper-case "OR" or a double quote.
PHRASES = st.lists(st.text(alphabet="abcdeéèhlnorstu'’ ", min_size=1, max_size=12), min_size=1, max_size=6)


@given(PHRASES)
def test_or_query_round_trips_through_split_or_query(phrases):
    assert split_or_query(or_query(phrases)) == phrases


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
    assert len(oracle.execute(OracleQuery(QueryKind.SNIPPETS, ("lamb shank",), limit=2))) == 2
    assert len(oracle.execute(OracleQuery(QueryKind.SNIPPETS, ("lamb shank",), limit=1000))) == 3


def test_long_snippets_are_cut_at_the_last_space_before_the_limit_or_hard():
    words = " ".join(f"w{i:03d}" for i in range(100))  # 499 characters, a space every fifth
    glued = "x" * (SNIPPET_MAX_CHARS + 50)
    index = LocalIndexBackend([{"id": "spaced", "text": f"lamb {words}"}, {"id": "glued", "text": f"{glued} lamb"}])
    spaced, hard = (hit.text for hit in index.execute(OracleQuery(QueryKind.SNIPPETS, ("lamb",), limit=5)))
    assert spaced == f"lamb {words}"[:299] and spaced.endswith(" w058")  # the space at 299 is cut too
    assert hard == glued[:SNIPPET_MAX_CHARS]


def test_mixed_snippets_filter_language(index):
    def mixed(phrase):
        return index.execute(OracleQuery(QueryKind.MIXED_SNIPPETS, (phrase,), "en", 1000))

    assert [s.doc_id for s in mixed("souris d'agneau")] == ["en3", "en4", "en5"]
    assert [s.doc_id for s in mixed("messe de minuit")] == ["mix"]
    # The oracle answers the hits' texts.
    oracle = SearchOracle(index)
    assert oracle.mixed_snippets("souris d'agneau", "en", 1000) == [s.text for s in mixed("souris d'agneau")]
    # same phrase unrestricted also sees the French page
    assert len(oracle.execute(OracleQuery(QueryKind.SNIPPETS, ("messe de minuit",), limit=1000))) == 2


@given(st.text())
@example("ΟΔΟΣ ΣΑ ΟΔΟΣΣ")
@example("İstanbul\xa0İ ǅungla ǄUNGLA")
def test_tokenize_equals_match_object_form(text):
    tokens = [m.group(0).lower() for m in WORD_RE.finditer(text)]
    assert tokenize(text) == tokens
    # The index lowercases each document's tokens joined by spaces at once.
    assert " ".join(WORD_RE.findall(text)).lower() == " ".join(tokens)


VOCAB = ["de", "la", "caisse", "fund"]
NO_BREAKS = st.characters(blacklist_characters="\t\r\n", blacklist_categories=("Cs",))  # what a query phrase may hold
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


ABSENT = object()  # a key the document leaves out
doc_ids = st.one_of(
    st.just(ABSENT),  # the document's index is its id
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),  # non-ASCII too
    st.just("\ud800"),  # a lone surrogate, which the JSON file holds as an escape
)


def as_doc(lang, pieces, doc_id):
    doc = {"lang": lang, "id": doc_id, "text": " ".join(pieces)}
    return {key: value for key, value in doc.items() if value is not ABSENT}


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["fr", "en", "de", ABSENT]),
            st.lists(st.one_of(st.sampled_from(VOCAB), st.text()), min_size=1, max_size=8),
            doc_ids,
        ),
        min_size=1,
        max_size=12,
    ),
    # A query phrase holds no tab or line break (OracleQuery rejects them); a document may.
    st.lists(st.one_of(vocab_phrases, st.text(NO_BREAKS, min_size=1)), min_size=1, max_size=3),
    st.integers(1, 4),
)
@example(
    [("fr", ["de", "la", "de", "la"], "d0"), ("en", ["la", "de", "la", "de"], 7), ("fr", ["de", "de", "la"], ABSENT)],
    ["de la de", "de", "absent", "la de la de la"],
    2,
)
@example(
    [
        ("fr", ["ΟΔΟΣ ΣΑ", "de"], "δ0"),
        ("en", ["İstanbul\xa0la", "caisse"], "\ud800"),
        ("de", ["ǅungla,fund", "ǄUNGLA"], ABSENT),
        (ABSENT, ["la caisse de la caisse de la", "fund"], -3),
        ("fr", ["caisse la caisses de lac"], None),
    ],
    ["οδος σα", "İSTANBUL LA CAISSE", "ǆungla fund ǆungla", "la caisse de la", "de la"],
    3,
)
@example(
    # Every document holds every token of the phrases, but only the first
    # and third hold them as a run: the substring test alone decides.
    [
        ("fr", ["caisse de la"], "d0"),
        ("en", ["la de caisse"], "d1"),
        ("fr", ["de caisse", "la caisse de la"], "d2"),
        ("en", ["la", "fund de caisse"], "d3"),
    ],
    ["caisse de la", "de la", "la caisse", "de caisse la"],
    2,
)
def test_local_index_matches_brute_force_scan(docs, query_phrases, limit):
    dicts = [as_doc(*doc) for doc in docs]
    texts = [doc["text"] for doc in dicts]
    ids = [str(doc.get("id", i)) for i, doc in enumerate(dicts)]
    langs = [doc.get("lang", "") for doc in dicts]
    fresh = LocalIndexBackend(iter(dicts))
    # The same documents from a file: built and saved, then loaded.
    with tempfile.TemporaryDirectory() as tmp:
        path = write_jsonl(Path(tmp) / "docs.jsonl", dicts)
        LocalIndexBackend.from_jsonl(path)
        with mock.patch.object(backends, "_read_jsonl", side_effect=AssertionError("rebuilt")):
            loaded = LocalIndexBackend.from_jsonl(path)

    def execute(query):
        answer = fresh.execute(query)
        assert loaded.execute(query) == answer  # snippet texts, doc ids and order too
        return answer

    for phrase in query_phrases:
        hits = sorted(scan_docs(texts, phrase))
        assert execute(OracleQuery(QueryKind.PHRASE_COUNT, (phrase,))) == len(hits)
        snippets = execute(OracleQuery(QueryKind.SNIPPETS, (phrase,), limit=limit))
        assert [s.doc_id for s in snippets] == [ids[i] for i in hits][:limit]
        for lang in ("en", "de", "xx"):
            mixed = execute(OracleQuery(QueryKind.MIXED_SNIPPETS, (phrase,), lang_restrict=lang, limit=limit))
            assert [s.doc_id for s in mixed] == [ids[i] for i in hits if langs[i] == lang][:limit]
    first, last = query_phrases[0], query_phrases[-1]
    pair = execute(OracleQuery(QueryKind.PAIR_COUNT, (first, last)))
    assert pair == len(scan_docs(texts, first) & scan_docs(texts, last))
    or_query = " OR ".join(f'"{p}"' for p in query_phrases)
    assert execute(OracleQuery(QueryKind.PHRASE_COUNT, (or_query,))) == len(scan_docs(texts, or_query))


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


def write_jsonl(path, docs):
    # UTF-8 cannot encode a lone surrogate, so it is written as its JSON escape.
    with open(path, "wb") as fh:
        for doc in docs:
            fh.write((json.dumps(doc, ensure_ascii=False) + "\n").encode("utf-8", "backslashreplace"))
    return path


def test_jsonl_roundtrip(tmp_path, index):
    loaded = LocalIndexBackend.from_jsonl(write_jsonl(tmp_path / "docs.jsonl", DOCS))
    assert SearchOracle(loaded).phrase_count("lamb shank") == 3


def count(index, phrase):
    return index.execute(OracleQuery(QueryKind.PHRASE_COUNT, (phrase,)))


def test_saved_index_is_loaded_until_the_collection_changes(tmp_path, monkeypatch):
    builds = []  # collections whose documents were read to build an index
    read = backends._read_jsonl
    monkeypatch.setattr(backends, "_read_jsonl", lambda fh: builds.append(Path(fh.name)) or read(fh))
    path = write_jsonl(tmp_path / "docs.jsonl", DOCS)
    assert count(LocalIndexBackend.from_jsonl(path), "lamb shank") == 3
    assert Path(f"{path}.index").is_file()
    assert count(LocalIndexBackend.from_jsonl(path), "lamb shank") == 3
    assert builds == [path]
    # An edit that keeps the size, then one that does not.
    data = path.read_bytes()
    path.write_bytes(data.replace(b"lamb shank in red", b"lamp shank in red"))
    assert path.stat().st_size == len(data)
    assert count(LocalIndexBackend.from_jsonl(path), "lamb shank") == 2
    write_jsonl(path, DOCS[:5])
    assert count(LocalIndexBackend.from_jsonl(path), "lamb shank") == 1
    assert count(LocalIndexBackend.from_jsonl(path), "lamb shank") == 1
    assert builds == [path] * 3


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_torn_or_garbage_index_file_is_rebuilt_and_rewritten(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_jsonl(Path(tmp) / "docs.jsonl", DOCS)
        LocalIndexBackend.from_jsonl(path)
        saved = Path(f"{path}.index")
        good = saved.read_bytes()
        flip = st.tuples(st.integers(0, len(good) - 1), st.integers(1, 255))
        bad = data.draw(
            st.one_of(
                st.integers(0, len(good) - 1).map(lambda cut: good[:cut]),
                flip.map(lambda at: good[: at[0]] + bytes([good[at[0]] ^ at[1]]) + good[at[0] + 1 :]),
                st.binary(max_size=len(good)),
                st.binary(min_size=1).map(lambda tail: good + tail),
                # An index of format 1, whose parts held the documents as tuples.
                st.just(good[:16] + (1).to_bytes(4, "little") + good[20:]),
                st.just(good + part_records(good)[-1]),  # one part more
                st.just(b"".join(part_records(good)[:-1])),  # one part fewer
            )
        )
        saved.write_bytes(bad)
        index = LocalIndexBackend.from_jsonl(path)
        assert saved.read_bytes() == good
    fresh = LocalIndexBackend(DOCS)
    for phrase in ("lamb shank", "caisse", "messe de minuit", "absent"):
        query = OracleQuery(QueryKind.SNIPPETS, (phrase,), limit=10)
        assert index.execute(query) == fresh.execute(query)
    assert len(index) == len(DOCS)


def part_records(saved):
    """The bytes of a saved file: its header, then the record of each part."""
    records, at = [saved[: savefile._HEADER.size]], savefile._HEADER.size
    while at < len(saved):
        length, _ = savefile._RECORD.unpack_from(saved, at)
        records.append(saved[at : at + savefile._RECORD.size + length])
        at += savefile._RECORD.size + length
    return records


INDEX_BUILDER = """
import sys
from lexiforge.backends import LocalIndexBackend

LocalIndexBackend.from_jsonl(sys.argv[1])
"""


def test_the_saved_index_does_not_depend_on_string_hashing(tmp_path):
    saved = []
    for seed in ("1", "2"):
        path = tmp_path / seed / "docs.jsonl"
        path.parent.mkdir()
        shutil.copyfile(Path(__file__).parent / "data" / "docs.jsonl", path)
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": str(Path(oracle.__file__).resolve().parents[1])}
        subprocess.run([sys.executable, "-c", INDEX_BUILDER, str(path)], env=env, check=True, timeout=60)
        saved.append(Path(f"{path}.index").read_bytes())
    assert saved[0] == saved[1]


@pytest.mark.parametrize("refused", ["create", "replace"])
def test_unwritable_directory_still_answers_and_keeps_no_file(tmp_path, monkeypatch, refused):
    path = write_jsonl(tmp_path / "docs.jsonl", DOCS)
    with refusing_saved_files(monkeypatch, tmp_path, refused):
        index = LocalIndexBackend.from_jsonl(path)
    assert count(index, "lamb shank") == 3
    assert [p.name for p in tmp_path.iterdir()] == ["docs.jsonl"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_collection_that_is_not_a_regular_file_is_built_and_not_saved(tmp_path):
    # Every input file with a saved parse takes one path: a named pipe is
    # parsed and saves nothing, whether it holds documents, a dictionary or
    # a tagger lexicon.
    def through_fifo(name, text, load):
        fifo = tmp_path / name
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), kwargs={"encoding": "utf-8"}, daemon=True)
        writer.start()
        loaded = load(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        return loaded

    index = through_fifo("docs.jsonl", "".join(json.dumps(doc) + "\n" for doc in DOCS), LocalIndexBackend.from_jsonl)
    assert count(index, "lamb shank") == 3
    dictionary = through_fifo("dictionary.tsv", "caisse\tNOUN\tdrum|fund\n", load_dictionary)
    assert dictionary.lookup("caisse", "NOUN") == ("drum", "fund")
    tagger = through_fifo("tagger.tsv", "Caisses\tNOUN\tcaisse\n", LexiconTagger.from_file)
    assert tagger.tag("les caisses") == [("les", "OTHER"), ("caisse", "NOUN")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dictionary.tsv", "docs.jsonl", "tagger.tsv"]


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"id": "x", "text": ', "invalid JSON"),
        ('{"id": "x", "text": 7}', 'expected an object with a string "text"'),
        ('{"id": "x", "lang": ["en"], "text": "lamb shank"}', 'expected a string "lang"'),
    ],
)
def test_malformed_collection_names_its_line_beside_an_index_of_other_content(tmp_path, line, message):
    good = write_jsonl(tmp_path / "good.jsonl", DOCS)
    LocalIndexBackend.from_jsonl(good)
    bad = write_jsonl(tmp_path / "docs.jsonl", DOCS[:2])
    with open(bad, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    shutil.copy(f"{good}.index", f"{bad}.index")
    with pytest.raises(InputError) as raised:
        LocalIndexBackend.from_jsonl(bad)
    assert str(raised.value).startswith(f"{bad}:3: {message}")


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
        (OracleQuery(QueryKind.SNIPPETS, ("atmosphere",), limit=5), [Snippet("")]),
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


def tuple_key(query):
    """The cache key in the nested tuple form it had before it was one string."""
    return (query.kind.value, tuple(sorted(query.phrases)), query.lang_restrict or "-",
            "-" if query.limit is None else str(query.limit))


@st.composite
def queries(draw, text):
    kind = draw(st.sampled_from(QueryKind))
    n = 2 if kind is QueryKind.PAIR_COUNT else 1
    phrases = tuple(draw(st.lists(text, min_size=n, max_size=n)))
    lang = draw(text if kind is QueryKind.MIXED_SNIPPETS else st.none() | st.just("") | text)
    snippets = kind in (QueryKind.SNIPPETS, QueryKind.MIXED_SNIPPETS)
    limit = draw(st.integers(1, 2000) if snippets else st.none() | st.integers(0, 2000))
    return OracleQuery(kind, phrases, lang, limit)


# Short fields that are prefixes of each other, and "-", which an absent
# language or limit reads as.
KEY_WORDS = ["a", "ab", "a b", "b", "-", "é", "5", "50"]
# Any text a key field may hold; and that text without the characters below
# TAB, which sort before the separator.
KEY_TEXT = st.sampled_from(KEY_WORDS) | st.text(NO_BREAKS, min_size=1)
ORDER_TEXT = st.sampled_from(KEY_WORDS) | st.text(
    st.characters(min_codepoint=0x0B, blacklist_characters="\r", blacklist_categories=("Cs",)), min_size=1)


@settings(max_examples=200, deadline=None)
@given(st.lists(queries(KEY_TEXT), min_size=2, max_size=6))
def test_the_string_key_tells_apart_exactly_the_queries_the_tuple_key_did(batch):
    for a in batch:
        for b in batch:
            assert (a.cache_key() == b.cache_key()) is (tuple_key(a) == tuple_key(b))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(queries(ORDER_TEXT), st.integers(0, 99)), min_size=1, max_size=6))
def test_string_keys_sort_in_tuple_key_order_so_compact_writes_the_same_bytes(puts):
    answers = {}  # by tuple key, the last put of each
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cache"
        cache = ResponseCache(path)
        for query, value in puts:
            answer = value if query.kind in (QueryKind.PHRASE_COUNT, QueryKind.PAIR_COUNT) else [f"text {value}"]
            cache.put(query, answer)
            answers[tuple_key(query)] = answer
        cache.close()
        compact(path)
        compacted = path.read_text(encoding="utf-8")
    # What compact wrote when it sorted tuple keys.
    expected = "".join(
        "\t".join([kind, phrases[0], phrases[1] if len(phrases) > 1 else "", lang, limit,
                   json.dumps(answers[kind, phrases, lang, limit], ensure_ascii=False)]) + "\n"
        for kind, phrases, lang, limit in sorted(answers)
    )
    assert compacted == expected


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
    cache.close()
    assert compact(path) == 1
    assert path.read_text(encoding="utf-8") == "PHRASE_COUNT\tok\t\t-\t-\t7\n"


def test_cache_reads_text_lists_and_skips_text_id_pairs_as_corrupt(tmp_path, caplog):
    # A snippet answer is stored as a list of texts; the [text, doc_id]
    # pairs that caches once held are a corrupt record, asked again.
    path = tmp_path / "run.cache"
    path.write_text(
        'SNIPPETS\tnew\t\t-\t5\t["La caisse", "Une \\"messe\\""]\n'
        'SNIPPETS\told\t\t-\t5\t[["La caisse", "fr1"], ["Une \\"messe\\"", null]]\n'
        'MIXED_SNIPPETS\tnone\t\ten\t5\t[]\n',
        encoding="utf-8",
    )
    backend = FakeBackend().snips("old", 5, ["La caisse verte"])
    with caplog.at_level(logging.WARNING, logger="lexiforge.oracle"):
        oracle = SearchOracle(backend, ResponseCache(path))
    assert caplog.messages == [f"{path}:2: skipping corrupt cache record"]
    assert oracle.execute(OracleQuery(QueryKind.SNIPPETS, ("new",), limit=5)) == ["La caisse", 'Une "messe"']
    assert oracle.mixed_snippets("none", "en", 5) == []
    assert backend.calls == 0
    assert oracle.execute(OracleQuery(QueryKind.SNIPPETS, ("old",), limit=5)) == ["La caisse verte"]
    assert backend.calls == 1
    oracle.close()
    # Compaction drops the pair record and keeps the answer asked again.
    assert compact(path) == 3
    assert 'SNIPPETS\told\t\t-\t5\t["La caisse verte"]\n' in path.read_text(encoding="utf-8")
    assert "fr1" not in path.read_text(encoding="utf-8")


def test_a_snapshot_that_lists_a_text_id_pair_record_as_texts_is_rebuilt(tmp_path, caplog):
    # A format-6 snapshot, saved when [text, doc_id] pairs were still read
    # as texts, lists such a record as a snippet line with saved counts. It
    # must not bring that record back: the load is the one without it.
    path = tmp_path / "run.cache"
    lines = [
        b'SNIPPETS\tcaisse\t\t-\t5\t["la caisse"]\n',
        b'SNIPPETS\told\t\t-\t5\t[["La caisse", "fr1"], ["Une", null]]\n',
    ]
    path.write_bytes(b"".join(lines))
    tagger = LexiconTagger(FR_ENTRIES)
    old = ("SNIPPETS", ("old",), "-", "5")  # the tuple keys of its time
    text_lines = {
        ("SNIPPETS", ("caisse",), "-", "5"): (1, 0, len(lines[0]), zlib.crc32(lines[0])),
        old: (2, len(lines[0]), len(lines[1]), zlib.crc32(lines[1])),
    }
    counts = {old: {tagger.table_crc: {("caisse", "NOUN"): 9}}}
    data = path.read_bytes()
    snapshot = Path(f"{path}.snapshot")
    savefile.save(snapshot, oracle._SNAPSHOT_MAGIC, 6, (zlib.crc32(data), len(data)), [(2, [], counts, text_lines), {}])
    backend = FakeBackend().snips("old", 5, ["la caisse verte"])
    with caplog.at_level(logging.WARNING, logger="lexiforge.oracle"):
        search = SearchOracle(backend, ResponseCache(path))
    assert caplog.messages == [f"{path}:2: skipping corrupt cache record"]
    snippets, totals = search.counted_snippets("old", 5, tagger)
    assert list(snippets) == ["la caisse verte"] and totals == tagger.count(["la caisse verte"])
    assert backend.calls == 1
    search.close()  # appended, so the old snapshot stays on disk for compact
    assert snapshot.is_file()
    assert compact(path) == 2
    assert path.read_bytes() == lines[0] + b'SNIPPETS\told\t\t-\t5\t["la caisse verte"]\n'


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
        reloaded.close()
        assert compact(path) == 2
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
    p1, p2 = sorted(phrases) if kind is QueryKind.PAIR_COUNT else (phrases[0], "")
    layout = [kind.value, p1, p2, query.lang_restrict or "-", "-" if query.limit is None else str(query.limit)]
    assert key == "\t".join(layout)
    record = _format_record(key, answer)
    assert record == "\t".join(layout + [json.dumps(answer, ensure_ascii=False)]) + "\n"
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
    cache.close()
    assert compact(path) == 1
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


def test_count_cut_short_is_never_read(tmp_path):
    path = tmp_path / "run.cache"
    # "336000" torn after its third digit
    path.write_text("PHRASE_COUNT\tok\t\t-\t-\t7\nPHRASE_COUNT\tmidnight mass\t\t-\t-\t336", encoding="utf-8")
    mass = OracleQuery(QueryKind.PHRASE_COUNT, ("midnight mass",))
    cache = ResponseCache(path)
    assert cache.get(mass) is None
    cache.put(OracleQuery(QueryKind.PHRASE_COUNT, ("fresh",)), 9)
    cache.close()
    reloaded = ResponseCache(path)
    assert reloaded.get(mass) is None
    assert len(reloaded) == 2


def test_put_after_compact_reaches_new_file(tmp_path):
    path = tmp_path / "run.cache"
    q = OracleQuery(QueryKind.PHRASE_COUNT, ("phrase",))
    later = OracleQuery(QueryKind.PHRASE_COUNT, ("later",))
    cache = ResponseCache(path)
    cache.put(q, 1)
    cache.put(q, 2)
    cache.close()
    compact(path)
    cache.put(later, 5)
    cache.close()
    reloaded = ResponseCache(path)
    assert reloaded.get(q) == 2
    assert reloaded.get(later) == 5
    assert len(path.read_text().splitlines()) == 2


# Cache file lines of every sort a load meets: records of each kind, a
# later write of one key, a blank line, and corrupt records (the
# [text, doc_id] pairs that caches once held, a wrong field count, a byte
# that is not UTF-8, a payload that does not fit its kind). The last line
# records the texts of those pairs, so two SNIPPETS records are counted.
CACHE_LINES = [
    b"PHRASE_COUNT\tmidnight mass\t\t-\t-\t336000\n",
    b'SNIPPETS\tcaisse\t\t-\t5\t["La caisse", "Une caisse \\"verte\\""]\n',
    b'SNIPPETS\told\t\t-\t5\t[["La caisse", "fr1"], ["Une", null]]\n',
    b"PHRASE_COUNT\tbroken\n",
    b"PHRASE_COUNT\tcaf\xe9\t\t-\t-\t1\n",
    b"\n",
    b"PAIR_COUNT\tcentral fund\tcaisse centrale\t-\t-\t4\n",
    b'MIXED_SNIPPETS\tsouris\t\ten\t5\t["Lamb shank", "Souris d\'agneau"]\n',
    b"SNIPPETS\tcount\t\t-\t5\t3\n",
    b"PHRASE_COUNT\tmidnight mass\t\t-\t-\t7\n",
    b'SNIPPETS\told\t\t-\t5\t["La caisse", "Une"]\n',
]
PUT_QUERIES = [
    OracleQuery(QueryKind.PHRASE_COUNT, ("midnight mass",)),
    OracleQuery(QueryKind.PHRASE_COUNT, ("fresh",)),
    OracleQuery(QueryKind.PAIR_COUNT, ("caisse centrale", "central fund")),
]


def entries_of(cache):
    """The entries of ``cache`` by key, every snippet list decoded."""
    return {key: value if type(value) is int else list(value) for key, value in cache._entries.items()}


def load_logged(path):
    """The entries of ``ResponseCache(path)`` (``entries_of``) and the
    warnings its load logged. The cache is closed, so that it saves its
    snapshot, before its entries are read."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("lexiforge.oracle")
    logger.addHandler(handler)
    try:
        cache = ResponseCache(path)
    finally:
        logger.removeHandler(handler)
    cache.close()
    return entries_of(cache), messages


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.one_of(
            # lines appended, then the last few bytes cut off (a torn last line)
            st.tuples(st.just("append"), st.lists(st.sampled_from(CACHE_LINES), max_size=6), st.integers(0, 3)),
            st.tuples(st.just("cut"), st.integers(0, 10**6)),
            st.tuples(st.just("put"), st.sampled_from(PUT_QUERIES), st.integers(0, 99)),
            st.tuples(st.just("compact")),
        ),
        max_size=8,
    )
)
def test_a_load_from_the_snapshot_equals_a_load_without_it(steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cache"
        snapshot = Path(f"{path}.snapshot")
        path.write_bytes(b"")
        for step in steps:
            if step[0] == "append":
                data = path.read_bytes() + b"".join(step[1])
                path.write_bytes(data[: len(data) - step[2]] if step[1] else data)
            elif step[0] == "cut":
                data = path.read_bytes()
                path.write_bytes(data[: step[1] % (len(data) + 1)])
            elif step[0] == "put":
                cache = ResponseCache(path)
                cache.put(step[1], step[2])
                cache.close()
            else:
                compact(path)
            with_snapshot = load_logged(path)
            # The snapshot this load left, built on the last one, stays for
            # the next step.
            kept = snapshot.read_bytes() if snapshot.exists() else None
            snapshot.unlink(missing_ok=True)
            assert load_logged(path) == with_snapshot
            if kept is not None:
                snapshot.write_bytes(kept)


@pytest.fixture
def decoded(monkeypatch):
    """The payloads cache loads parse from their files, each through
    ``json.loads``, which nothing else in a load calls; not those of the
    snippet lines read after a load (``line_reads``)."""
    payloads, loading = [], []
    decode, load = json.loads, ResponseCache._load

    def counted_load(cache):
        loading.append(cache)
        try:
            load(cache)
        finally:
            loading.pop()

    def counted_decode(payload):
        if loading:
            payloads.append(payload)
        return decode(payload)

    monkeypatch.setattr(ResponseCache, "_load", counted_load)
    monkeypatch.setattr(json, "loads", counted_decode)
    return payloads


def recorded_cache(tmp_path):
    path = tmp_path / "run.cache"
    path.write_bytes(b"".join(CACHE_LINES))
    return path, Path(f"{path}.snapshot")


def index_file(tmp_path):
    path = write_jsonl(tmp_path / "docs.jsonl", DOCS)
    LocalIndexBackend.from_jsonl(path)
    return Path(f"{path}.index").read_bytes()


def test_a_snapshot_parses_only_the_records_appended_after_it(tmp_path, decoded):
    path, snapshot = recorded_cache(tmp_path)
    load_logged(path)
    cache = ResponseCache(path)
    cache.put(OracleQuery(QueryKind.PHRASE_COUNT, ("fresh",)), 9)
    cache.close()
    with open(path, "ab") as fh:
        fh.write(b"PHRASE_COUNT\tbroken\nPHRASE_COUNT\ttorn\t\t-\t-\t12")
    decoded.clear()
    with_snapshot = load_logged(path)
    assert decoded == ["9", "12"]
    assert with_snapshot[1][-2:] == [f"{path}:13: skipping corrupt cache record", f"{path}:14: skipping corrupt cache record"]
    snapshot.unlink()
    assert load_logged(path) == with_snapshot


def test_compact_makes_the_snapshot_stale(tmp_path, decoded):
    path, snapshot = recorded_cache(tmp_path)
    load_logged(path)
    before = snapshot.read_bytes()
    cache = ResponseCache(path)
    entries = entries_of(cache)
    cache.close()
    compact(path)
    assert not snapshot.exists()  # compacting leaves no snapshot
    decoded.clear()
    assert load_logged(path) == (entries, [])
    assert len(decoded) == len(entries)
    assert snapshot.read_bytes() != before


PUTTER = """
import sys
from lexiforge.oracle import OracleQuery, QueryKind, ResponseCache

path, name, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResponseCache(path)
for i in range(n):
    cache.put(OracleQuery(QueryKind.SNIPPETS, (f"{name} {i}",), limit=5), [f"{name} {i} " + "x" * 15_000])
cache.close()
"""


def test_two_processes_put_at_once_after_the_snapshot_and_every_record_reloads(tmp_path, decoded):
    # Each put is one write under O_APPEND, so records of ~15 KB (far above
    # PIPE_BUF) from two writers never interleave, and the bytes a snapshot
    # covers are never rewritten.
    path = tmp_path / "run.cache"
    path.write_bytes(b"".join(CACHE_LINES[:2]))
    before = len(load_logged(path)[0])
    env = {**os.environ, "PYTHONPATH": str(Path(oracle.__file__).resolve().parents[1])}
    writers = [
        subprocess.Popen([sys.executable, "-c", PUTTER, str(path), name, "200"], env=env)
        for name in ("a", "b")
    ]
    try:
        for writer in writers:
            assert writer.wait(timeout=60) == 0
    finally:
        for writer in writers:
            writer.kill()
    decoded.clear()
    reloaded = load_logged(path)
    assert len(reloaded[0]) == before + 400
    assert reloaded[1] == []
    assert len(decoded) == 400
    Path(f"{path}.snapshot").unlink()
    assert load_logged(path) == reloaded


def test_a_tab_alone_on_a_line_is_skipped_without_a_warning(tmp_path, decoded):
    # A writer closes off what it takes for a torn tail with a tab and a
    # newline; where that was another writer's record in flight, the tab
    # stands alone on its line.
    path = tmp_path / "run.cache"
    path.write_bytes(CACHE_LINES[0] + b"\t\n" + CACHE_LINES[6])
    expected = {
        "PHRASE_COUNT\tmidnight mass\t\t-\t-": 336000,
        "PAIR_COUNT\tcaisse centrale\tcentral fund\t-\t-": 4,
    }
    assert load_logged(path) == (expected, [])
    decoded.clear()
    assert load_logged(path) == (expected, [])  # from the snapshot
    assert decoded == []


SHORT_SESSIONS = """
import sys, time
from lexiforge.oracle import OracleQuery, QueryKind, ResponseCache

path, n = sys.argv[1], int(sys.argv[2])
cache = ResponseCache(path)
for i in range(n):
    cache.put(OracleQuery(QueryKind.PHRASE_COUNT, (f"put {i}",)), i)
    if i % 10 == 9:
        cache.close()
        time.sleep(0.001)  # room for a compaction
"""

COMPACTOR = """
import os, sys, time
from lexiforge.oracle import compact

path, stop = sys.argv[1], sys.argv[2]
done = 0
while not os.path.exists(stop):
    try:
        compact(path)
        done += 1
    except BlockingIOError:
        pass
    time.sleep(0.001)
print(done)
"""


def test_compact_keeps_every_record_of_a_writer_that_opens_and_closes_meanwhile(tmp_path):
    path = tmp_path / "run.cache"
    stop = tmp_path / "stop"
    path.write_bytes(CACHE_LINES[0])
    env = {**os.environ, "PYTHONPATH": str(Path(oracle.__file__).resolve().parents[1])}
    writer = subprocess.Popen([sys.executable, "-c", SHORT_SESSIONS, str(path), "3000"], env=env)
    compactor = subprocess.Popen([sys.executable, "-c", COMPACTOR, str(path), str(stop)], env=env,
                                 stdout=subprocess.PIPE, text=True)
    try:
        assert writer.wait(timeout=60) == 0
        stop.touch()
        out, _ = compactor.communicate(timeout=60)
    finally:
        writer.kill()
        compactor.kill()
    assert compactor.returncode == 0
    assert int(out) >= 1  # compactions done while the writer ran
    entries, messages = load_logged(path)
    assert messages == []
    assert entries == {
        "PHRASE_COUNT\tmidnight mass\t\t-\t-": 336000,
        **{f"PHRASE_COUNT\tput {i}\t\t-\t-": i for i in range(3000)},
    }


# Taggers of two languages with different tables over the snippets of
# CACHE_LINES and SNIPPET_TEXTS: "caisse" is a fund in the en table.
FR_ENTRIES = [("caisse", "NOUN", "caisse"), ("verte", "ADJ", "vert"), ("la", "DET", "le")]
EN_ENTRIES = [("caisse", "NOUN", "fund"), ("une", "ADJ", "one"), ("verte", "NOUN", "green")]
SNIPPET_TEXTS = ["la caisse verte", "Une caisse", "caisse, caisse", "rien"]
CAISSE = OracleQuery(QueryKind.SNIPPETS, ("caisse",), limit=5)


class Recounting:
    """A tagger that names no table, so its counts are never saved."""

    def __init__(self, entries):
        tagger = LexiconTagger(entries)
        self.tag, self.count = tagger.tag, tagger.count


def counting_taggers(fr=FR_ENTRIES):
    """Fresh fr and en taggers, and the list their ``count`` calls land in."""
    calls = []
    taggers = (LexiconTagger(fr), LexiconTagger(EN_ENTRIES))
    for tagger in taggers:
        tagger.count = lambda texts, count=tagger.count: calls.append(texts) or count(texts)
    return taggers, calls


def cached_worlds(oracle, taggers):
    """The fr and en worlds of every snippet record of ``oracle``'s cache."""
    keys = sorted(key for key in oracle._cache._entries if key.startswith("SNIPPETS\t"))
    return [
        build_lexical_world(phrase, lang, oracle, tagger, snippet_limit=int(limit), world_size=5)
        for _, phrase, _, _, limit in (key.split("\t") for key in keys)
        for lang, tagger in zip(("fr", "en"), taggers)
    ]


def run_worlds(path, taggers):
    """The worlds of one offline run on the cache at ``path``."""
    oracle = SearchOracle(None, ResponseCache(path))
    try:
        return cached_worlds(oracle, taggers)
    finally:
        oracle.close()


def replay(path, fr=FR_ENTRIES):
    """The worlds of one offline run on the cache at ``path``, and the
    number of times its taggers counted."""
    taggers, calls = counting_taggers(fr)
    return run_worlds(path, taggers), len(calls)


def recounted(path, fr=FR_ENTRIES):
    """The worlds of ``replay(path, fr)``, counted from the snippets."""
    return run_worlds(path, (Recounting(fr), Recounting(EN_ENTRIES)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.lists(st.sampled_from(CACHE_LINES), max_size=6), st.integers(0, 3)),
            st.tuples(st.just("cut"), st.integers(0, 10**6)),
            st.tuples(st.just("put"), st.lists(st.sampled_from(SNIPPET_TEXTS), min_size=1, max_size=3)),
            st.tuples(st.just("compact")),
            st.tuples(st.just("replay")),  # one more run on the same bytes
        ),
        max_size=8,
    )
)
def test_worlds_from_saved_counts_equal_worlds_recounted(steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cache"
        path.write_bytes(b"")
        for step in steps:
            if step[0] == "append":
                data = path.read_bytes() + b"".join(step[1])
                path.write_bytes(data[: len(data) - step[2]] if step[1] else data)
            elif step[0] == "cut":
                data = path.read_bytes()
                path.write_bytes(data[: step[1] % (len(data) + 1)])
            elif step[0] == "put":
                # A put after the worlds were counted, in the same run.
                taggers, _ = counting_taggers()
                oracle = SearchOracle(None, ResponseCache(path))
                cached_worlds(oracle, taggers)
                oracle._cache.put(CAISSE, step[1])
                fresh = SearchOracle(FakeBackend().snips("caisse", 5, step[1]))
                for lang, tagger, entries in zip(("fr", "en"), taggers, (FR_ENTRIES, EN_ENTRIES)):
                    assert build_lexical_world("caisse", lang, oracle, tagger, snippet_limit=5, world_size=5) == \
                        build_lexical_world("caisse", lang, fresh, LexiconTagger(entries), snippet_limit=5, world_size=5)
                oracle.close()
            elif step[0] == "compact":
                compact(path)
            # Each run reads the counts the last one saved.
            assert replay(path)[0] == recounted(path)


@pytest.mark.parametrize(
    "damage",
    [
        "none", "torn", "header alone", "one part fewer", "one part more", "corrupt part", "stale key",
        "other format", "format 3", "format 4", "format 5", "format 6", "format 7", "other marshal version",
        "other kind",
    ],
)
def test_a_snapshot_is_read_unless_damaged_and_then_rebuilt(tmp_path, decoded, damage):
    path, snapshot = recorded_cache(tmp_path)
    first = load_logged(path)
    parsed = len(decoded)
    good = snapshot.read_bytes()
    if damage == "torn":
        snapshot.write_bytes(good[:-10])
    elif damage == "header alone":  # torn before its first part
        snapshot.write_bytes(good[: savefile._HEADER.size])
    elif damage == "one part fewer":
        snapshot.write_bytes(b"".join(part_records(good)[:-1]))
    elif damage == "one part more":
        snapshot.write_bytes(good + part_records(good)[-1])
    elif damage == "corrupt part":
        snapshot.write_bytes(good[:-5] + bytes([good[-5] ^ 1]) + good[-4:])
    elif damage == "stale key":  # an edit of the cache that keeps its size
        path.write_bytes(path.read_bytes().replace(b"336000", b"336001"))
    elif damage == "other format":  # the format before the snapshot held counts
        snapshot.write_bytes(good[:16] + (1).to_bytes(4, "little") + good[20:])
    elif damage == "format 3":  # the format that held the snippet texts with the other entries
        snapshot.write_bytes(good[:16] + (3).to_bytes(4, "little") + good[20:])
    elif damage == "format 4":  # the format that held a copy of the snippet texts in its last parts
        snapshot.write_bytes(good[:16] + (4).to_bytes(4, "little") + good[20:])
    elif damage == "format 5":  # the format that held a copy of the MIXED_SNIPPETS texts in its later parts
        snapshot.write_bytes(good[:16] + (5).to_bytes(4, "little") + good[20:])
    elif damage == "format 6":  # the format that listed [text, doc_id] pair records as texts
        snapshot.write_bytes(good[:16] + (6).to_bytes(4, "little") + good[20:])
    elif damage == "format 7":  # the format that keyed its tables by nested tuples
        snapshot.write_bytes(good[:16] + (7).to_bytes(4, "little") + good[20:])
    elif damage == "other marshal version":
        snapshot.write_bytes(good[:20] + (marshal.version + 1).to_bytes(4, "little") + good[24:])
    elif damage == "other kind":
        snapshot.write_bytes(index_file(tmp_path))
    decoded.clear()
    entries, messages = load_logged(path)
    assert len(decoded) == (0 if damage == "none" else parsed)
    assert messages == first[1]
    if damage != "stale key":
        assert entries == first[0]
        assert snapshot.read_bytes() == good
    # Rebuilt: the next load reads the snapshot alone.
    decoded.clear()
    assert load_logged(path) == (entries, messages)
    assert decoded == []


@pytest.mark.parametrize(
    "change", ["none", "tagger edit", "appended record", "compact", "torn", "other format", "other kind"]
)
def test_saved_counts_are_read_unless_stale_and_then_rebuilt(tmp_path, decoded, change):
    path, snapshot = recorded_cache(tmp_path)
    first, calls = replay(path)
    assert calls == len(first) == 4 and snapshot.is_file()
    good = snapshot.read_bytes()
    fr = FR_ENTRIES
    if change == "tagger edit":
        fr = FR_ENTRIES + [("une", "ADJ", "un")]
    elif change == "appended record":
        with open(path, "ab") as fh:
            fh.write(b'SNIPPETS\tcaisse\t\t-\t5\t["une caisse", "la caisse"]\n')
    elif change == "compact":
        compact(path)
    elif change == "torn":
        snapshot.write_bytes(good[:-10])
    elif change == "other format":  # the format before the snapshot held counts
        snapshot.write_bytes(good[:16] + (1).to_bytes(4, "little") + good[20:])
    elif change == "other kind":
        snapshot.write_bytes(index_file(tmp_path))
    worlds, calls = replay(path, fr)
    assert worlds == recounted(path, fr)
    # An appended record drops only the counts of its own key.
    assert calls == {"none": 0, "tagger edit": 2, "appended record": 2}.get(change, 4)
    assert (worlds == first) is (change not in ("tagger edit", "appended record"))
    if change in ("none", "torn", "other format", "other kind"):
        assert snapshot.read_bytes() == good
    # Rebuilt: the next run parses and counts nothing; after a tagger edit,
    # with either table.
    decoded.clear()
    assert replay(path, fr) == (worlds, 0)
    assert decoded == []
    if change == "tagger edit":
        assert replay(path) == (first, 0)


def test_records_appended_after_the_snapshot_drop_only_their_own_counts(tmp_path):
    path, _ = recorded_cache(tmp_path)
    first, _ = replay(path)
    recording = ResponseCache(path)
    recording.put(CAISSE, ["une caisse", "la caisse"])
    recording.close()
    worlds, calls = replay(path)
    # The fr and en worlds of "caisse" are counted again; those of "old" are read.
    assert calls == 2 and worlds == recounted(path)
    assert worlds[:2] != first[:2] and worlds[2:] == first[2:]


def test_a_run_that_appends_leaves_the_snapshot_as_it_was(tmp_path, decoded):
    path, snapshot = recorded_cache(tmp_path)
    replay(path)
    good = snapshot.read_bytes()
    # The run counts with a new fr table, then records an answer.
    taggers, calls = counting_taggers(FR_ENTRIES + [("une", "ADJ", "un")])
    live = SearchOracle(FakeBackend().snips("fresh", 5, SNIPPET_TEXTS), ResponseCache(path))
    cached_worlds(live, taggers)
    build_lexical_world("fresh", "fr", live, taggers[0], snippet_limit=5, world_size=5)
    live.close()
    assert len(calls) == 3 and snapshot.read_bytes() == good
    # The next load reads it and parses the appended record alone.
    decoded.clear()
    entries, _ = load_logged(path)
    assert len(decoded) == 1 and len(entries) == len(load_logged(path)[0])


def test_counts_saved_from_one_record_are_kept_apart_by_tagger(tmp_path):
    # One snippet record answers "caisse" in fr and in en; the taggers differ.
    path, _ = recorded_cache(tmp_path)
    first, _ = replay(path)
    fr_world, en_world = first[:2]
    assert (fr_world.nouns, fr_world.adjectives) == ((), (("vert", 1),))
    assert (en_world.nouns, en_world.adjectives) == ((("green", 1),), (("one", 1),))
    assert replay(path) == (first, 0)


@pytest.mark.parametrize("refused", ["create", "replace"])
def test_cache_in_an_unwritable_directory_loads_and_keeps_no_snapshot(tmp_path, monkeypatch, refused):
    path, _ = recorded_cache(tmp_path)
    with refusing_saved_files(monkeypatch, tmp_path, refused):
        refused_load = load_logged(path)
    assert [p.name for p in tmp_path.iterdir()] == ["run.cache"]
    assert refused_load == load_logged(path)


@pytest.mark.parametrize("refused", ["create", "replace"])
def test_counts_in_an_unwritable_directory_are_counted_again_and_keep_no_file(tmp_path, monkeypatch, refused):
    path, _ = recorded_cache(tmp_path)
    with refusing_saved_files(monkeypatch, tmp_path, refused):
        worlds, calls = replay(path)
    assert [p.name for p in tmp_path.iterdir()] == ["run.cache"]
    assert calls == 4 and worlds == recounted(path)


def test_workers_counting_at_once_save_every_count(tmp_path):
    path = tmp_path / "run.cache"
    recording = ResponseCache(path)
    for i in range(40):
        recording.put(OracleQuery(QueryKind.SNIPPETS, (f"caisse {i}",), limit=5), [f"la caisse verte {i}", "une"])
    recording.close()
    taggers, _ = counting_taggers()
    oracle = SearchOracle(None, ResponseCache(path))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start_and_join([threading.Thread(target=cached_worlds, args=(oracle, taggers)) for _ in range(8)])
    finally:
        sys.setswitchinterval(interval)
    oracle.close()
    worlds, calls = replay(path)
    assert calls == 0 and len(worlds) == 80 and worlds == recounted(path)


@pytest.fixture
def line_reads(monkeypatch):
    """The ``(offset, length)`` of each cache file line read after its load."""
    reads = []
    pread = os.pread
    monkeypatch.setattr(os, "pread", lambda fd, n, offset: reads.append((offset, n)) or pread(fd, n, offset))
    return reads


def long_snippets(tmp_path):
    """A cache of 12 snippet records of about 100 KB each, and the texts of
    each record by key."""
    path = tmp_path / "run.cache"
    recording = ResponseCache(path)
    texts = {}
    for i in range(12):
        query = OracleQuery(QueryKind.SNIPPETS, (f"caisse {i}",), limit=5)
        texts[query.cache_key()] = [f"la caisse verte {i}", f"une {i} " + "x" * 100_000]
        recording.put(query, texts[query.cache_key()])
    recording.close()
    return path, texts


CAISSE_0 = OracleQuery(QueryKind.SNIPPETS, ("caisse 0",), limit=5)  # the first record of long_snippets


def test_the_snapshot_holds_no_snippet_text(tmp_path, line_reads):
    path, texts = long_snippets(tmp_path)
    mixed = OracleQuery(QueryKind.MIXED_SNIPPETS, ("caisse 0",), lang_restrict="en", limit=5)
    texts[mixed.cache_key()] = ["the caisse 0 " + "y" * 100_000]
    recording = ResponseCache(path)
    recording.put(mixed, texts[mixed.cache_key()])
    recording.close()
    ResponseCache(path).close()
    snapshot = Path(f"{path}.snapshot")
    assert snapshot.stat().st_size < len(texts[mixed.cache_key()][0])
    cache = ResponseCache(path)
    assert entries_of(cache) == texts and len(line_reads) == 13


def test_a_warm_translate_decodes_no_snippet_text(tmp_path, line_reads, capsys):
    from test_cli import translate_args

    cache = tmp_path / "e2e.cache"
    shutil.copyfile(Path(__file__).parent / "data" / "e2e.cache", cache)

    def translate(out_dir):
        argv = translate_args(out_dir)
        argv[argv.index("--cache") + 1] = str(cache)
        assert main(argv) == 0
        return (out_dir / "lexicon.tsv").read_bytes()

    parsed = translate(tmp_path / "parsed")  # counts with both taggers, then saves the snapshot
    snapshot = Path(f"{cache}.snapshot")
    _, (first, _) = savefile.load(snapshot, oracle._SNAPSHOT_MAGIC, oracle._SNAPSHOT_FORMAT, 2, lambda key: True)
    assert len(first[3]) == 28  # the snippet records, of both kinds, whose lines the snapshot points to
    before = snapshot.read_bytes()
    assert translate(tmp_path / "replayed") == parsed
    # Phase 3 reads the MIXED_SNIPPETS lines it mines, each once; the
    # SNIPPETS texts are counted already.
    data = cache.read_bytes()
    assert line_reads and len(line_reads) == len(set(line_reads))
    assert all(data.startswith(b"MIXED_SNIPPETS\t", offset) for offset, _ in line_reads)
    assert snapshot.read_bytes() == before
    capsys.readouterr()


def test_workers_asking_at_once_decode_each_text_once(tmp_path, line_reads):
    path, _ = long_snippets(tmp_path)
    expected = recounted(path)  # parsed; saves the snapshot, without counts
    taggers = (Recounting(FR_ENTRIES), Recounting(EN_ENTRIES))
    oracle = SearchOracle(None, ResponseCache(path))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start_and_join([
            threading.Thread(target=lambda: results.append(cached_worlds(oracle, taggers))) for _ in range(8)
        ])
    finally:
        sys.setswitchinterval(interval)
    oracle.close()
    assert results == [expected] * 8 and len(expected) == 24
    assert len(line_reads) == len(set(line_reads)) == 12


REPLACER = """
import sys
from lexiforge.oracle import ResponseCache

ResponseCache(sys.argv[1]).close()
"""


@pytest.mark.parametrize("after", ["close", "replace", "compact", "change in place"])
def test_texts_left_in_the_cache_file_are_read_from_the_file_loaded(tmp_path, line_reads, after):
    path, texts = long_snippets(tmp_path)
    snapshot = Path(f"{path}.snapshot")
    ResponseCache(path).close()
    good = snapshot.read_bytes()
    cache = ResponseCache(path)
    cache.close()
    assert line_reads == []
    if after == "replace":  # another process appends a record, parses it and saves afresh
        with open(path, "ab") as fh:
            fh.write(CACHE_LINES[0])
        env = {**os.environ, "PYTHONPATH": str(Path(oracle.__file__).resolve().parents[1])}
        subprocess.run([sys.executable, "-c", REPLACER, str(path)], env=env, check=True, timeout=60)
        assert snapshot.read_bytes() != good
    elif after == "compact":
        compact(path)
        assert not snapshot.exists()
    elif after == "change in place":  # no write does this: appends leave covered lines, compact writes a new file
        with open(path, "r+b") as fh:
            fh.seek(path.read_bytes().index(b"une 0 x") + 10)
            fh.write(b"y")
    line_reads.clear()  # those of the compaction's own load
    if after == "change in place":
        with pytest.raises(OracleError, match="changed since it was loaded"):
            list(cache.get(CAISSE_0))
        del texts[CAISSE_0.cache_key()]
        assert {key: list(cache._entries[key]) for key in texts} == texts and len(line_reads) == 12
    else:
        assert entries_of(cache) == texts and len(line_reads) == 12


def test_a_run_that_appends_or_counts_unrecorded_answers_saves_no_counts(tmp_path):
    path = tmp_path / "run.cache"
    snapshot = Path(f"{path}.snapshot")
    taggers, calls = counting_taggers()
    live = SearchOracle(FakeBackend().snips("caisse", 5, SNIPPET_TEXTS), ResponseCache(path))
    assert cached_worlds(live, taggers) == []  # an empty cache covers nothing
    build_lexical_world("caisse", "fr", live, taggers[0], snippet_limit=5, world_size=5)
    live.close()
    assert len(calls) == 1 and not snapshot.exists()
    # A run whose taggers name no table saves the snapshot without counts;
    # the next run counts the record and saves the counts.
    recounted(path)
    assert snapshot.is_file()
    assert replay(path)[1] == 2
    assert replay(path)[1] == 0
    # A run that appends saves nothing, even where it counted.
    snapshot.unlink()
    oracle = SearchOracle(FakeBackend(default_count=3), ResponseCache(path))
    cached_worlds(oracle, counting_taggers()[0])
    oracle.phrase_count("fresh")
    oracle.close()
    assert not snapshot.exists()


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
    # before the late caller reaches the in-flight table. The bounded join
    # lets the leader settle as well where that look is not under the
    # oracle's lock; under it, the leader waits for the late caller.
    asking, answer, missed, put = (threading.Event() for _ in range(4))

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
                put.wait(10)
                leader.join(0.2)
            return value

        def put(self, query, value):
            super().put(query, value)
            put.set()

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
    late.join(10)
    assert not late.is_alive()
    leader.join(10)
    assert not leader.is_alive()
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


def stub_response(status, payload, headers=None):
    """What a session's ``get`` answers: status, headers and JSON body."""
    return status, headers or {}, json.dumps(payload).encode()


class StubSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def get(self, params):
        self.requests.append(dict(params))
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def test_http_backend_count_roundtrip():
    session = StubSession([stub_response(200, {"count": 336_000})])
    backend = HttpBackend("https://search.example/api", api_key="k", rate_per_sec=0, session=session)
    oracle = SearchOracle(backend)
    assert oracle.phrase_count("midnight mass") == 336_000
    assert session.requests[0] == {"kind": "count", "q": "midnight mass", "key": "k"}


def test_http_backend_snippets_and_lang():
    session = StubSession(
        [stub_response(200, {"snippets": [{"text": "mixed page", "doc_id": "d1"}]})]
    )
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    snippets = SearchOracle(backend).mixed_snippets("souris d'agneau", "en", 10)
    assert snippets == ["mixed page"]
    assert session.requests[0]["lang"] == "en"
    assert session.requests[0]["limit"] == "10"


def test_http_backend_retries_server_errors(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    session = StubSession([stub_response(500, {}), stub_response(200, {"count": 3})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    assert backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",))) == 3
    assert len(session.requests) == 2


@pytest.mark.parametrize(
    "response",
    [stub_response(404, {}), stub_response(403, {}), stub_response(200, {"count": True}), stub_response(200, [3])],
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
    [stub_response(503, {}), stub_response(408, {}), stub_response(429, {}), TimeoutError("read timed out")],
)
def test_http_backend_retries_transient_failures(monkeypatch, failure):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([failure, stub_response(200, {"count": 3})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    assert backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",))) == 3
    assert len(session.requests) == 2
    assert sleeps == [0.5]


@pytest.mark.parametrize("status", [429, 503])
def test_http_backend_waits_as_long_as_retry_after_asks(monkeypatch, status):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([stub_response(status, {}, {"Retry-After": "2"}), stub_response(200, {"count": 3})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    assert backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",))) == 3
    assert len(session.requests) == 2
    assert sleeps == [2.0]


def test_http_backend_retry_after_as_http_date(monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    later = email.utils.formatdate(time.time() + 4, usegmt=True)
    session = StubSession([stub_response(429, {}, {"Retry-After": later}), stub_response(200, {"count": 3})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    assert backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",))) == 3
    assert len(sleeps) == 1 and 2.0 < sleeps[0] <= 4.0


def test_http_backend_shorter_retry_after_keeps_the_backoff(monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([stub_response(503, {}, {"Retry-After": "0"}), stub_response(200, {"count": 3})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    assert backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",))) == 3
    assert sleeps == [0.5]


@pytest.mark.parametrize("retry_after", ["3600", "9"])
def test_http_backend_fails_at_once_when_retry_after_exceeds_the_cap(monkeypatch, retry_after):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([stub_response(429, {}, {"Retry-After": retry_after})] * 3)
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, max_retries=3, session=session)
    with pytest.raises(OracleError, match=f"retry after {retry_after} s"):
        backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",)))
    assert len(session.requests) == 1
    assert sleeps == []


def test_http_backend_gives_up_with_oracle_error(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    session = StubSession([stub_response(500, {})] * 3)
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
        (QueryKind.PHRASE_COUNT, {"count": 10**400}),  # too large for a float
        (QueryKind.SNIPPETS, {"snippets": "page"}),
        (QueryKind.SNIPPETS, {"count": 3}),
    ],
)
def test_http_backend_rejects_malformed_payloads(kind, payload):
    phrases = ("a", "b") if kind is QueryKind.PAIR_COUNT else ("a",)
    query = OracleQuery(kind, phrases, limit=None if kind is not QueryKind.SNIPPETS else 5)
    session = StubSession([stub_response(200, payload)])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, max_retries=1, session=session)
    with pytest.raises(OracleError, match="malformed"):
        backend.execute(query)


def test_http_snippet_with_lone_surrogate_raises_and_is_not_cached(tmp_path):
    # Valid JSON (the body held the escape ``\ud800``), but not writable as UTF-8.
    session = StubSession([stub_response(200, {"snippets": [{"text": "page"}, {"text": "caf\ud800"}]})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    cache = ResponseCache(tmp_path / "c")
    oracle = SearchOracle(backend, cache)
    with pytest.raises(OracleError, match="SNIPPETS"):
        oracle.execute(OracleQuery(QueryKind.SNIPPETS, ("café",), limit=5))
    oracle.close()
    assert len(cache) == 0
    assert not (tmp_path / "c").exists()


def test_http_backend_accepts_zero_count():
    session = StubSession([stub_response(200, {"count": 0})])
    backend = HttpBackend("https://search.example/api", rate_per_sec=0, session=session)
    assert backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("x",))) == 0
