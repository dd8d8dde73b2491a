"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
from collections import Counter

import harness
import pytest
from generate import Fixture, GenSpec, generate, read_expected, write_inputs
from tracing import Span, self_times

SMALL = GenSpec(copies=3, family=2, depth=5, held_back=0.1)


@pytest.fixture(scope="module")
def fixture():
    return Fixture.load()


def test_same_seed_gives_byte_identical_inputs(tmp_path, fixture):
    for name in ("a", "b"):
        write_inputs(generate(SMALL, 7, fixture), tmp_path / name)
    write_inputs(generate(SMALL, 8, fixture), tmp_path / "other")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    assert (tmp_path / "a" / "docs.jsonl").read_bytes() != (tmp_path / "other" / "docs.jsonl").read_bytes()


def test_generator_sizes_follow_its_inputs(fixture):
    inputs = generate(SMALL, 3, fixture)
    per_copy = Counter(state for state, _ in fixture.expected.values())
    counts = inputs.state_counts()
    assert sum(counts.values()) == 20 * SMALL.copies
    assert counts["UNRESOLVED_ORACLE"] == round(SMALL.held_back * 20 * SMALL.copies) == len(inputs.held_back)
    for state in ("DICTIONARY", "PHASE1"):
        assert counts[state] == SMALL.copies * per_copy[state]
    deep = sum(per_copy[s] for s in ("PHASE2", "PHASE3_COGNATE", "PHASE3_PAIR"))
    assert len(inputs.docs) == SMALL.copies * (len(fixture.docs) + 2 * SMALL.depth * deep)


def test_family_shares_heads_but_keeps_units_distinct(fixture):
    inputs = generate(GenSpec(copies=4, family=2), 5, fixture)
    heads = Counter(surface.split()[0] for surface in inputs.expected)
    assert len(inputs.expected) == 80
    # Shared heads recur across the two copies of each family.
    assert max(heads.values()) > max(Counter(s.split()[0] for s in fixture.expected).values())


def test_every_route_gets_the_intended_units(tmp_path, fixture):
    """Run the program cold on generated inputs: each terminal state gets
    exactly the units the generator expects there."""
    harness.use_source_tree()
    spec = GenSpec(copies=2, family=2, depth=5)
    inputs = generate(spec, 11, fixture)
    write_inputs(inputs, tmp_path / "in")
    config = harness.write_config(tmp_path / "run.config", {
        "extract.literal_freq_min": "2", "extract.article_freq_min": "1",
        "oracle.backend": "local", "oracle.docs": str(tmp_path / "in" / "docs.jsonl"),
        "pipeline.workers": "2", "oracle.parallelism": "2",
    })
    common = ["--config", config, "--cache", tmp_path / "run.cache"]
    assert harness.run_cli(["extract", *common, "--corpus", tmp_path / "in" / "corpus.tsv",
                            "--out", tmp_path / "ulcs.tsv"]) == 0
    assert harness.run_cli(["translate", *common, "--ulcs", tmp_path / "ulcs.tsv",
                            "--dictionary", tmp_path / "in" / "dictionary.tsv", "--out-dir", tmp_path / "out",
                            "--source-tagger", tmp_path / "in" / "tagger_fr.tsv",
                            "--target-tagger", tmp_path / "in" / "tagger_en.tsv"]) == 0
    records = harness.read_lexicon(tmp_path / "out")
    expected = read_expected(tmp_path / "in" / "expected.tsv")
    assert harness.count_failures(records, expected) == 0
    assert Counter(state for _, state, _ in records) == Counter(
        {s: n for s, n in inputs.state_counts().items() if n}
    )


def test_count_failures_flags_wrong_missing_and_duplicate_records():
    expected = {"a": ("PHASE1", "x"), "b": ("UNTRANSLATED", ""), "c": ("PHASE2", "y")}
    records = [("a", "PHASE1", "x"), ("b", "PHASE2", "z"), ("a", "PHASE1", "x"), ("d", "PHASE1", "w")]
    # b wrong, d unexpected, c missing, a duplicated
    assert harness.count_failures(records, expected) == 4


def span(id, start, end, parent=None, leaf_s=0.0, name="s"):
    return Span(id, name, parent, None, 0, start, end, leaf_s)


def test_self_time_of_nested_spans():
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 3.0, 1), span(3, 4.0, 8.0, 1), span(4, 5.0, 6.0, 3)]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0})


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Children from two threads overlap; one runs past its parent's end.
    spans = [span(1, 0.0, 10.0), span(2, 2.0, 6.0, 1), span(3, 4.0, 8.0, 1), span(4, 9.0, 12.0, 1)]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_subtracts_aggregated_calls():
    spans = [span(1, 0.0, 5.0, leaf_s=1.5), span(2, 1.0, 2.0, 1)]
    assert self_times(spans)[1] == pytest.approx(2.5)


def test_stub_server_answers_every_query_kind():
    harness.use_source_tree()
    harness.bypass_proxies()
    from lexiforge.backends import HttpBackend, LocalIndexBackend
    from lexiforge.oracle import OracleQuery, QueryKind
    from stub import StubSearchServer

    docs = [
        {"id": "1", "lang": "fr", "text": "la caisse de retraite verse une pension"},
        {"id": "2", "lang": "en", "text": "the caisse de retraite is a retirement fund"},
        {"id": "3", "lang": "en", "text": "a retirement fund pays a pension"},
    ]
    index = LocalIndexBackend(docs)
    queries = [
        OracleQuery(QueryKind.PHRASE_COUNT, ("retirement fund",)),
        OracleQuery(QueryKind.PHRASE_COUNT, ('"the retirement fund" OR "a retirement fund"',)),
        OracleQuery(QueryKind.PAIR_COUNT, ("caisse de retraite", "retirement fund")),
        OracleQuery(QueryKind.SNIPPETS, ("pension",), limit=5),
        OracleQuery(QueryKind.MIXED_SNIPPETS, ("caisse de retraite",), lang_restrict="en", limit=5),
    ]
    with StubSearchServer(index, latency_s=0.001, max_connections=2) as stub:
        backend = HttpBackend(stub.url, rate_per_sec=0)
        for query in queries:
            assert backend.execute(query) == index.execute(query), query
    assert stub.requests == len(queries)  # counted once the server has joined its request threads
    assert {q.kind for q in queries} == set(QueryKind)


def test_stub_server_rejects_a_malformed_request():
    harness.use_source_tree()
    harness.bypass_proxies()
    import urllib.error
    import urllib.request

    from lexiforge.backends import LocalIndexBackend
    from stub import StubSearchServer

    with StubSearchServer(LocalIndexBackend([]), latency_s=0.0, max_connections=1) as stub:
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(stub.url + "?kind=pair&q=a", timeout=5)
        assert err.value.code == 400
        assert "error" in json.loads(err.value.read())
