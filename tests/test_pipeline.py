import errno
import os
import time
from collections import Counter
from dataclasses import replace
from functools import cache
from tempfile import TemporaryDirectory

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import lexiforge.pipeline as pipeline
from lexiforge.dictionary import BilingualDictionary
from lexiforge.extraction import UlcPattern
from lexiforge.generation import build_validation_query
from lexiforge.oracle import OracleError, OracleQuery, QueryKind, ResponseCache, SearchOracle
from lexiforge.phase2 import WorldContext
from lexiforge.evaluation import GRADES, compute_metrics
from lexiforge.pipeline import (
    PAPER_PHASE,
    Phase,
    TranslationRecord,
    read_lexicon,
    run_pipeline,
    summarize,
    translate_ulc,
    write_report,
)
from lexiforge.tagging import LexiconTagger

from conftest import CFG, FakeBackend, make_dictionary, make_ulc

FR_TAGGER = LexiconTagger(
    [("banque", "NOUN", "banque"), ("argent", "NOUN", "argent"),
     ("financière", "ADJ", "financier"), ("pension", "NOUN", "pension")]
)
EN_TAGGER = LexiconTagger(
    [("bank", "NOUN", "bank"), ("money", "NOUN", "money"),
     ("financial", "ADJ", "financial"), ("pension", "NOUN", "pension")]
)

WORLD_DICT_ENTRIES = [
    ("banque", "NOUN", ["bank"]),
    ("argent", "NOUN", ["money"]),
    ("financier", "ADJ", ["financial"]),
    ("pension", "NOUN", ["pension"]),
]


def make_ctx(backend, dictionary, **settings):
    return WorldContext(
        cfg=replace(CFG, **settings),
        oracle=SearchOracle(backend),
        dictionary=dictionary,
        source_tagger=FR_TAGGER,
        target_tagger=EN_TAGGER,
        source_stopwords=frozenset({"le", "la", "de", "d", "un", "une"}),
    )


def register_phase2_win(backend, source_surface, winner_surface, source_count=2):
    backend.pair(source_surface, winner_surface, 1)
    backend.count(winner_surface, source_count + 1)
    backend.count(source_surface, source_count)
    backend.snips(source_surface, 1000, ["La banque financière et l'argent de la pension."])
    backend.snips(winner_surface, 1000, ["The financial bank holds pension money."])


def test_dictionary_units_short_circuit():
    d = make_dictionary(
        [("caisse", "NOUN", ["drum", "fund", "case"]), ("clair", "ADJ", ["clear", "light"])],
        multiword=[(("caisse", "clair"), ["snare drum"])],
    )
    backend = FakeBackend()  # raising backend: any query would error
    ulc = make_ulc("caisse", "clair", UlcPattern.NOUN_ADJ, "caisse claire")
    record = translate_ulc(ulc, make_ctx(backend, d))
    assert record.phase is Phase.DICTIONARY
    assert record.translation == "snare drum"
    assert backend.calls == 0


def test_non_polysemous_unit_wins_at_phase1_without_later_queries():
    d = make_dictionary([("ambiance", "NOUN", ["atmosphere"]), ("musical", "ADJ", ["musical"])])
    ulc = make_ulc("ambiance", "musical", UlcPattern.NOUN_ADJ, "ambiance musicale")
    backend = FakeBackend()
    backend.count('"the musical atmosphere" OR "a musical atmosphere"', 500)
    backend.count("atmosphere", 100_000)
    record = translate_ulc(ulc, make_ctx(backend, d))
    assert record.phase is Phase.PHASE1
    assert record.translation == "musical atmosphere"
    assert all(q.kind is QueryKind.PHRASE_COUNT for q in backend.seen)


def test_polysemous_unit_routed_to_phase2():
    d = make_dictionary(
        [("caisse", "NOUN", ["drum", "fund", "case"]), ("retraite", "NOUN", ["retirement", "retreat"])]
        + WORLD_DICT_ENTRIES
    )
    ulc = make_ulc("caisse", "retraite", UlcPattern.NOUN_DE_NOUN, "caisse de retraite",
                   literal_freq=2)
    backend = FakeBackend(default_count=0)
    register_phase2_win(backend, "caisse de retraite", "retirement fund")
    record = translate_ulc(ulc, make_ctx(backend, d))
    assert record.phase is Phase.PHASE2
    assert record.translation == "retirement fund"
    # no phase-1 validation query was ever issued for a polysemous unit
    validation = build_validation_query
    assert not any(
        q.kind is QueryKind.PHRASE_COUNT and q.phrases[0].startswith('"the')
        for q in backend.seen
    )


def test_phase1_failure_cascades_through_phase2_to_phase3():
    d = make_dictionary([("souris", "NOUN", ["mouse"]), ("agneau", "NOUN", ["lamb"])]
                        + WORLD_DICT_ENTRIES)
    ulc = make_ulc("souris", "agneau", UlcPattern.NOUN_D_NOUN, "souris d'agneau",
                   literal_freq=2)
    backend = FakeBackend(default_count=0)
    # phase 1: zero counts -> no winner; phase 2: pair counts zero -> no survivors
    backend.snips(
        "souris d'agneau", 1000,
        ["Souris d'agneau is braised lamb shank.", "Tender lamb shank, the souris d'agneau."],
        lang="en",
    )
    backend.pair("souris d'agneau", "lamb shank", 2)
    backend.count("lamb shank", 3)
    backend.snips("souris d'agneau", 1000, ["La banque financière."])
    backend.snips("lamb shank", 1000, ["The financial bank."])
    record = translate_ulc(ulc, make_ctx(backend, d))
    assert record.phase is Phase.PHASE3_PAIR
    assert record.translation == "lamb shank"


def test_unknown_unit_with_no_snippets_untranslated():
    d = BilingualDictionary()
    ulc = make_ulc("appareil", "argentin", UlcPattern.NOUN_ADJ, "appareil argentin")
    backend = FakeBackend(default_count=0)
    record = translate_ulc(ulc, make_ctx(backend, d))
    assert record.phase is Phase.UNTRANSLATED
    assert record.translation is None


def test_oracle_failure_yields_unresolved_record():
    d = make_dictionary([("messe", "NOUN", ["mass"]), ("minuit", "NOUN", ["midnight"])])
    ulc = make_ulc("messe", "minuit", UlcPattern.NOUN_DE_NOUN)
    record = translate_ulc(ulc, make_ctx(FakeBackend(), d))
    assert record.phase is Phase.UNRESOLVED_ORACLE
    assert record.translation is None


def test_record_invariant_translation_iff_terminal_phase():
    ulc = make_ulc("a", "b", UlcPattern.NOUN_ADJ, "a b")
    with pytest.raises(ValueError):
        TranslationRecord(ulc, None, Phase.PHASE1)
    with pytest.raises(ValueError):
        TranslationRecord(ulc, "x y", Phase.UNTRANSLATED)


def build_50_clu_fixture(extra_entries=()):
    """50 units spanning all classes: 10 dictionary, 20 non-polysemous
    (5 translate at phase 1), 12 polysemous (3 at phase 2), 8 unknown
    (2 at phase 3, one per mining strategy). ``extra_entries`` go into the
    dictionary too."""
    entries = list(WORLD_DICT_ENTRIES)
    multiword = []
    units = []
    backend = FakeBackend(default_count=0)

    for i in range(10):
        head, mod = f"dicthead{i}", f"dictmod{i}"
        entries += [(head, "NOUN", [f"dt{i}"]), (mod, "NOUN", [f"dm{i}"])]
        multiword.append(((head, mod), [f"stored translation {i}"]))
        units.append(make_ulc(head, mod, UlcPattern.NOUN_DE_NOUN))

    for i in range(20):
        head, mod = f"monohead{i}", f"monomod{i}"
        entries += [(head, "NOUN", [f"mh{i}"]), (mod, "NOUN", [f"mm{i}"])]
        ulc = make_ulc(head, mod, UlcPattern.NOUN_DE_NOUN)
        units.append(ulc)
        if i < 5:
            backend.count(f'"the mh{i} of mm{i}" OR "a mh{i} of mm{i}"', 100)
            backend.count(f"mh{i}", 1000)

    for i in range(12):
        head, mod = f"polyhead{i}", f"polymod{i}"
        entries += [(head, "NOUN", [f"ph{i}", f"ph{i}x"]), (mod, "NOUN", [f"pm{i}"])]
        ulc = make_ulc(head, mod, UlcPattern.NOUN_DE_NOUN, literal_freq=2)
        units.append(ulc)
        if i < 3:
            register_phase2_win(backend, ulc.surface, f"pm{i} ph{i}")

    for i in range(8):
        head, mod = f"unkhead{i}", f"unknownmod{i}"
        entries += [(head, "NOUN", [f"uh{i}"])]  # modifier missing everywhere
        ulc = make_ulc(head, mod, UlcPattern.NOUN_ADJ, f"{head} {mod}", literal_freq=2)
        units.append(ulc)
        if i == 0:
            # cognate path: token sharing the head's first four letters
            backend.snips(ulc.surface, 1000, [f"the unkhortress stone, unkhortress stone"], lang="en")
            backend.pair(ulc.surface, "unkhortress stone", 1)
            backend.count("unkhortress stone", 5)
            backend.snips(ulc.surface, 1000, ["La banque financière."])
            backend.snips("unkhortress stone", 1000, ["The financial bank."])
        elif i == 1:
            backend.snips(ulc.surface, 1000, ["pebble mosaic art, pebble mosaic craft"], lang="en")
            backend.pair(ulc.surface, "pebble mosaic", 1)
            backend.count("pebble mosaic", 5)
            backend.snips(ulc.surface, 1000, ["La banque financière."])
            backend.snips("pebble mosaic", 1000, ["The financial bank."])

    dictionary = make_dictionary(entries + list(extra_entries), multiword)
    return units, dictionary, backend


def test_partition_50_clu_fixture():
    units, dictionary, backend = build_50_clu_fixture()
    assert len(units) == 50
    records = run_pipeline(units, make_ctx(backend, dictionary, workers=4))
    assert len(records) == 50
    counts = Counter(r.phase for r in records)
    assert counts[Phase.DICTIONARY] == 10
    assert counts[Phase.PHASE1] == 5
    assert counts[Phase.PHASE2] == 3
    assert counts[Phase.PHASE3_COGNATE] == 1
    assert counts[Phase.PHASE3_PAIR] == 1
    assert counts[Phase.UNTRANSLATED] == 30
    assert counts[Phase.UNRESOLVED_ORACLE] == 0
    # exactly one record per input unit
    assert {r.source.key for r in records} == {u.key for u in units}
    summary = summarize(records)
    assert summary["phase\tphase1"] == 15  # dictionary folded in
    assert summary["translated"] + summary["untranslated"] + summary["unresolved_oracle"] == 50


def test_pipeline_deterministic_across_worker_counts():
    units, dictionary, backend = build_50_clu_fixture()
    ctx = make_ctx(backend, dictionary)
    serial = run_pipeline(units, replace(ctx, cfg=replace(CFG, workers=1)))
    threaded = run_pipeline(units, replace(ctx, cfg=replace(CFG, workers=8)))
    assert serial == threaded


def test_a_unit_that_raises_ends_the_run_and_cancels_the_units_not_started(monkeypatch):
    # The first unit is slow and the second raises at once: the run stops
    # handing out units then, not once the slow unit is done.
    units, dictionary, backend = build_50_clu_fixture()
    started = []

    def translate(ulc, ctx):
        started.append(ulc)
        if ulc is units[1]:
            raise KeyError("lost")
        time.sleep(0.5 if ulc is units[0] else 0.01)
        return TranslationRecord(ulc, None, Phase.UNTRANSLATED)

    monkeypatch.setattr(pipeline, "translate_ulc", translate)
    with pytest.raises(KeyError, match="lost"):
        run_pipeline(units, make_ctx(backend, dictionary, workers=2))
    assert len(started) < 10  # the two first, and at most a few the workers took meanwhile


def test_write_report_deterministic_and_readable(tmp_path):
    units, dictionary, backend = build_50_clu_fixture()
    ctx = make_ctx(backend, dictionary)
    records = run_pipeline(units, ctx)
    lex1, sum1 = write_report(records, tmp_path / "run1")
    lex2, sum2 = write_report(run_pipeline(units, ctx), tmp_path / "run2")
    assert lex1.read_bytes() == lex2.read_bytes()
    assert sum1.read_bytes() == sum2.read_bytes()

    assert read_lexicon(lex1) == [(r.source.surface, r.translation, r.phase) for r in records]


def test_a_failed_report_write_keeps_the_previous_run_files(tmp_path, monkeypatch):
    units, dictionary, backend = build_50_clu_fixture()
    records = run_pipeline(units, make_ctx(backend, dictionary))
    paths = write_report(records, tmp_path)
    before = [path.read_bytes() for path in paths]

    def failing_open(file, mode="r", *args, **kwargs):
        if "summary" in str(file):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(pipeline, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        write_report(records[:3], tmp_path)  # another run, whose summary write fails
    assert [path.read_bytes() for path in paths] == before
    assert sorted(tmp_path.iterdir()) == sorted(paths)  # no temporary file is left
    monkeypatch.undo()
    assert write_report(records[:3], tmp_path) == paths
    assert len(paths[0].read_text(encoding="utf-8").splitlines()) == 3


def test_a_summary_path_that_is_a_directory_keeps_the_previous_lexicon(tmp_path):
    units, dictionary, backend = build_50_clu_fixture()
    records = run_pipeline(units, make_ctx(backend, dictionary))
    lexicon, summary = write_report(records, tmp_path)
    before = lexicon.read_bytes()
    summary.unlink()
    summary.mkdir()
    with pytest.raises(IsADirectoryError):
        write_report(records[:3], tmp_path)
    assert lexicon.read_bytes() == before  # no lexicon of one run beside the summary of another
    assert sorted(tmp_path.iterdir()) == [lexicon, summary]


def test_warm_cache_pipeline_replay_zero_backend_calls(tmp_path):
    units, dictionary, backend = build_50_clu_fixture()
    cache = ResponseCache(tmp_path / "warm.cache")
    ctx = make_ctx(backend, dictionary)
    ctx.oracle = SearchOracle(backend, cache)
    first = run_pipeline(units, ctx)
    ctx.oracle.close()

    fresh_units, fresh_dictionary, fresh_backend = build_50_clu_fixture()
    replay_ctx = make_ctx(fresh_backend, fresh_dictionary)
    replay_ctx.oracle = SearchOracle(fresh_backend, ResponseCache(tmp_path / "warm.cache"))
    replay = run_pipeline(fresh_units, replay_ctx)
    replay_ctx.oracle.close()
    assert fresh_backend.calls == 0
    assert replay == first


def test_write_report_empty_input(tmp_path):
    lex, summary = write_report([], tmp_path)
    assert lex.read_text() == ""
    text = summary.read_text()
    assert "total_units\t0" in text
    assert "translated\t0" in text


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(list(Phase)), st.sampled_from(list(UlcPattern)), st.sampled_from(GRADES)),
        max_size=25,
    )
)
def test_written_lexicon_evaluates_like_its_records_and_its_summary_adds_up(drawn):
    # Records in every terminal state and pattern: the lexicon read back
    # scores as the records do, and the summary rows partition the units.
    records, gold = [], {}
    for i, (phase, pattern, grade) in enumerate(drawn):
        translation = f"word{i}" if phase in PAPER_PHASE else None
        record = TranslationRecord(make_ulc(f"tête{i}", f"mot{i}", pattern), translation, phase)
        records.append(record)
        gold[(record.source.surface, translation)] = grade
    with TemporaryDirectory() as out:
        lexicon, summary = write_report(records, out)
        rows = read_lexicon(lexicon)
        lines = summary.read_text(encoding="utf-8").splitlines()
    in_memory = [(r.source.surface, r.translation, r.phase) for r in records]
    assert compute_metrics(rows, gold) == compute_metrics(in_memory, gold)

    counts = {"phase": [], "pattern": []}
    for fields in (line.split("\t") for line in lines):
        if fields[0] in counts:
            counts[fields[0]].append(int(fields[2]))
        else:
            counts[fields[0]] = int(fields[1])
    assert counts["total_units"] == len(records)
    assert counts["translated"] + counts["untranslated"] + counts["unresolved_oracle"] == len(records)
    assert sum(counts["phase"]) == counts["translated"]
    assert sum(counts["pattern"]) == len(records)


def test_lexicon_ordering_by_source_surface(tmp_path):
    units, dictionary, backend = build_50_clu_fixture()
    lex, _ = write_report(run_pipeline(units, make_ctx(backend, dictionary)), tmp_path)
    surfaces = [line.split("\t")[0] for line in lex.read_text().splitlines()]
    assert surfaces == sorted(surfaces)


def build_flaky_fixture():
    """The 50-unit fixture plus two units that a partial view of their
    candidates would translate differently: ``caisse centrale`` has two
    eligible phase-2 candidates, and behind the cognate that translates
    ``dossier zorglubien`` in phase 3 stands a frequent pair that would
    validate too."""
    units, dictionary, backend = build_50_clu_fixture(
        extra_entries=[
            ("caisse", "NOUN", ["drum", "fund", "case"]),
            ("central", "ADJ", ["central"]),
            ("dossier", "NOUN", ["file"]),
        ]
    )
    centrale = make_ulc("caisse", "central", UlcPattern.NOUN_ADJ, "caisse centrale", literal_freq=2)
    register_phase2_win(backend, centrale.surface, "central fund")
    backend.pair(centrale.surface, "central case", 1).count("central case", 3)
    backend.snips("central case", 1000, ["The financial bank."])

    dossier = make_ulc("dossier", "zorglubien", UlcPattern.NOUN_ADJ, "dossier zorglubien",
                       literal_freq=2)
    backend.snips(dossier.surface, 1000, ["the dossiers vault"] + ["paper trail"] * 3, lang="en")
    backend.snips(dossier.surface, 1000, ["La banque financière."])
    for mined in ("dossiers vault", "paper trail"):
        backend.pair(dossier.surface, mined, 1).count(mined, 3)
        backend.snips(mined, 1000, ["The financial bank."])
    return units + [centrale, dossier], dictionary, backend


class FailingOnce:
    """A backend whose first query of each key in ``failing`` raises."""

    def __init__(self, backend, failing):
        self.backend = backend
        self.pending = set(failing)

    def execute(self, query):
        key = query.cache_key()
        if key in self.pending:
            self.pending.discard(key)
            raise OracleError(f"injected failure for {key}")
        return self.backend.execute(query)


def run_flaky_fixture(out_dir, cache_path=None, failing=()):
    """Translate the flaky fixture, through a response cache at
    ``cache_path`` if given, with each query in ``failing`` failing once.
    Returns the records, the lexicon and summary bytes, and the sorted
    cache keys of the queries the backend answered."""
    units, dictionary, backend = build_flaky_fixture()
    ctx = make_ctx(backend, dictionary, workers=1)
    cache = ResponseCache(cache_path) if cache_path is not None else None
    ctx.oracle = SearchOracle(FailingOnce(backend, failing), cache)
    try:
        records = run_pipeline(units, ctx)
    finally:
        ctx.oracle.close()
    lexicon, summary = write_report(records, out_dir)
    keys = sorted({query.cache_key() for query in backend.seen})
    return records, lexicon.read_bytes(), summary.read_bytes(), keys


@cache
def clean_flaky_run():
    with TemporaryDirectory() as out:
        return run_flaky_fixture(out)


def test_flaky_fixture_clean_run_reaches_both_decisive_units():
    records, _, _, _ = clean_flaky_run()
    by_surface = {r.source.surface: (r.translation, r.phase) for r in records}
    assert by_surface["caisse centrale"] == ("central fund", Phase.PHASE2)
    assert by_surface["dossier zorglubien"] == ("dossiers vault", Phase.PHASE3_COGNATE)


CENTRAL_FUND_PAIR = OracleQuery(QueryKind.PAIR_COUNT, ("caisse centrale", "central fund")).cache_key()
COGNATE_PAIR = OracleQuery(QueryKind.PAIR_COUNT, ("dossier zorglubien", "dossiers vault")).cache_key()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(failing=st.deferred(lambda: st.sets(st.sampled_from(clean_flaky_run()[3]), max_size=8)))
@example(failing={CENTRAL_FUND_PAIR})
@example(failing={COGNATE_PAIR})
def test_flaky_backend_resolves_or_fails_each_unit_and_resumes_to_clean_bytes(failing):
    # Each chosen query fails once. A unit that met a failure ends
    # UNRESOLVED_ORACLE rather than being decided on its other candidates,
    # and a re-run on the cache that run left behind gives the clean bytes.
    clean_records, clean_lexicon, clean_summary, _ = clean_flaky_run()
    with TemporaryDirectory() as tmp:
        cache_path = f"{tmp}/run.cache"
        records, _, _, _ = run_flaky_fixture(f"{tmp}/flaky", cache_path, failing)
        assert len(records) == len(clean_records)
        for record, clean in zip(records, clean_records):
            assert record == clean or (
                record.source == clean.source and record.phase is Phase.UNRESOLVED_ORACLE
            ), record

        _, lexicon, summary, _ = run_flaky_fixture(f"{tmp}/resumed", cache_path)
    assert lexicon == clean_lexicon
    assert summary == clean_summary
