"""The benchmark (``perfbench/``) measures the program from outside, by
wrapping the names the program looks up. A renamed or bypassed name does not
fail the benchmark: its metric silently reads 0. This test fails instead."""

from pathlib import Path

import lexiforge.cli as cli

from test_cli import DATA, run, translate_args

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced_run(argv, capsys, monkeypatch):
    """Run the CLI under the benchmark's tracer; its per-layer metrics."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run_pass
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code, _, _ = run(argv, capsys)
    finally:
        tracer.restore()

    assert code == 0
    assert tracer.absent == {}
    assert all(hasattr(cli, name) for name in run_pass.SETUP_NAMES)
    return tracing.layer_metrics(tracer)


def test_benchmark_hooks_resolve_and_fire(tmp_path, capsys, monkeypatch):
    metrics = traced_run(translate_args(tmp_path / "run"), capsys, monkeypatch)
    for name in (
        "phase1.units",
        "phase2.worlds_built",
        "phase2.survivor_ratio",
        "phase3.validate_runs",
        "generation.candidates",
        "tagging.tokens",
    ):
        assert metrics[name] > 0, name


def test_benchmark_hooks_fire_on_the_miss_path(tmp_path, capsys, monkeypatch):
    # A cold run against the local index: every backend answer is put in the cache.
    argv = translate_args(tmp_path / "run")
    argv[argv.index("--offline")] = "--backend=local"
    argv[argv.index("--cache") + 1] = str(tmp_path / "run.cache")
    metrics = traced_run([*argv, "--docs", str(DATA / "docs.jsonl")], capsys, monkeypatch)
    for name in ("oracle.cache.puts", "backends.calls", "backends.index_build_s"):
        assert metrics[name] > 0, name
    assert metrics["oracle.cache.puts"] == metrics["backends.calls"]


def test_local_index_snippet_hits_carry_text_and_doc_id():
    # perfbench's stub engine serves the HTTP protocol from these hits.
    from lexiforge.backends import LocalIndexBackend
    from lexiforge.oracle import OracleQuery, QueryKind

    index = LocalIndexBackend([{"id": "d7", "lang": "en", "text": "The central fund."}])
    for query in (
        OracleQuery(QueryKind.SNIPPETS, ("central fund",), limit=5),
        OracleQuery(QueryKind.MIXED_SNIPPETS, ("central fund",), "en", 5),
    ):
        hits = index.execute(query)
        assert [(hit.text, hit.doc_id) for hit in hits] == [("The central fund.", "d7")]


def test_count_tags_each_new_chunk_through_tag(monkeypatch):
    # perfbench times tagging by wrapping ``LexiconTagger.tag``. World
    # building also tags the phrase itself, so ``tagging.tokens`` stays above
    # 0 even if ``count`` stopped calling ``tag``; this pins that it does not.
    from lexiforge.tagging import LexiconTagger

    tagged = []
    tag = LexiconTagger.tag
    monkeypatch.setattr(LexiconTagger, "tag", lambda self, text: tagged.append(text) or tag(self, text))
    tagger = LexiconTagger([("fund", "NOUN", "fund")])
    tagger.count(["the central fund", "the fund, the"])
    assert sorted(tagged) == ["central", "fund", "fund,", "the"]
    tagger.count(["the fund", "a fund"])
    assert tagged[4:] == ["a"]
