import errno
import gc
import io
import json
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import lexiforge.cli as cli
import lexiforge.phase2 as phase2
import lexiforge.phase3 as phase3
from lexiforge.backends import LocalIndexBackend, Snippet
from lexiforge.cli import main
from lexiforge.oracle import OracleQuery, QueryKind, ResponseCache, SearchOracle

from conftest import FakeBackend

DATA = Path(__file__).parent / "data"
SRC = Path(cli.__file__).resolve().parents[1]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extract_offline_matches_golden(tmp_path, capsys):
    out = tmp_path / "ulcs.tsv"
    code, _, _ = run(
        [
            "extract",
            "--corpus", str(DATA / "corpus.tsv"),
            "--config", str(DATA / "run.config"),
            "--offline",
            "--cache", str(DATA / "e2e.cache"),
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    assert out.read_bytes() == (DATA / "golden_ulcs.tsv").read_bytes()


def test_extract_missing_corpus_exits_2(tmp_path, capsys):
    code, _, err = run(
        ["extract", "--corpus", str(tmp_path / "nope.tsv"), "--offline",
         "--cache", str(DATA / "e2e.cache")],
        capsys,
    )
    assert code == 2
    assert "not found" in err


def test_extract_offline_with_cold_cache_reports_unresolved(tmp_path, capsys):
    empty = tmp_path / "cold.cache"
    empty.touch()
    code, _, err = run(
        ["extract", "--corpus", str(DATA / "corpus.tsv"), "--config", str(DATA / "run.config"),
         "--offline", "--cache", str(empty), "--out", str(tmp_path / "u.tsv")],
        capsys,
    )
    assert code == 3
    assert "unresolved" in err


def translate_args(out_dir, extra=()):
    return [
        "translate",
        "--ulcs", str(DATA / "ulcs.tsv"),
        "--dictionary", str(DATA / "dictionary.tsv"),
        "--config", str(DATA / "run.config"),
        "--offline",
        "--cache", str(DATA / "e2e.cache"),
        "--out-dir", str(out_dir),
        *extra,
    ]


def test_translate_offline_matches_golden_lexicon(tmp_path, capsys):
    code, out, _ = run(translate_args(tmp_path / "run"), capsys)
    assert code == 0
    assert "18/20 units translated" in out
    produced = [
        line.split("\t")[:3]
        for line in (tmp_path / "run" / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
    ]
    golden = [
        line.split("\t")
        for line in (DATA / "golden_lexicon.tsv").read_text(encoding="utf-8").splitlines()
    ]
    assert produced == golden


def test_translate_warm_cache_reruns_byte_identical(tmp_path, capsys):
    code1, _, _ = run(translate_args(tmp_path / "a"), capsys)
    code2, _, _ = run(translate_args(tmp_path / "b"), capsys)
    assert code1 == code2 == 0
    for name in ("lexicon.tsv", "summary.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_translate_phase_restriction(tmp_path, capsys):
    code, _, _ = run(translate_args(tmp_path / "p2", ["--phase", "2"]), capsys)
    assert code == 0
    lines = (tmp_path / "p2" / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
    surfaces = {line.split("\t")[0] for line in lines}
    # exactly the polysemous units: seven translate at phase 2, one fails out
    assert surfaces == {
        "caisse de retraite", "caisse centrale", "accident grave", "éclat naturel",
        "appareil numérique", "analyse de marché", "appareil de chauffage", "fonds d'aide",
    }


def test_translate_phase_1_keeps_the_dictionary_units(tmp_path, capsys):
    # A stored translation counts as phase 1, in --phase as in summary.tsv.
    code, _, _ = run(translate_args(tmp_path / "p1", ["--phase", "1"]), capsys)
    assert code == 0
    lines = (tmp_path / "p1" / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if "\tDICTIONARY\t" in line] == [
        "caisse claire\tsnare drum\tDICTIONARY\t-",
        "pomme de terre\tpotato\tDICTIONARY\t-",
    ]
    # ... so these units give all 7 phase-1 translations of the full run
    summary = (tmp_path / "p1" / "summary.tsv").read_text(encoding="utf-8")
    assert "phase\tphase1\t7\t" in summary


def test_phase_runs_partition_the_full_run(tmp_path, capsys):
    assert run(translate_args(tmp_path / "all"), capsys)[0] == 0
    full = (tmp_path / "all" / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
    by_surface = {line.split("\t")[0]: line for line in full}
    seen = []
    for phase in ("1", "2", "3"):
        run(translate_args(tmp_path / phase, ["--phase", phase]), capsys)
        for line in (tmp_path / phase / "lexicon.tsv").read_text(encoding="utf-8").splitlines():
            assert line == by_surface[line.split("\t")[0]]
            seen.append(line)
    assert sorted(seen) == sorted(full)
    assert len(full) == 20


def test_config_value_out_of_range_exits_2_naming_file_and_line(tmp_path, capsys):
    config = tmp_path / "bad.config"
    for line, message in [
        ("oracle.backend = bogus", "oracle.backend: must be one of ('local', 'http', 'cache')"),
        ("phase2.world_size = -3", "phase2.world_size: must be non-negative"),
        ("phase2.noun_jaccard_min = nan", "phase2.noun_jaccard_min: must be non-negative"),
        ("phase3.snippet_limit = 0", "phase3.snippet_limit: must be at least 1"),
        ("corpus.tagset = bogus", "corpus.tagset: must be one of ('coarse', 'treetagger-fr', 'treetagger_french')"),
        ("tagset.XX = BOGUS", "tagset.XX: must be one of ('ADJ', 'ADV', 'CONJ', 'DET', 'NOUN', 'NUM', "
                              "'OTHER', 'PREP', 'PRON', 'SENT', 'VERB')"),
    ]:
        config.write_text(line + "\n", encoding="utf-8")
        code, _, err = run(["extract", "--config", str(config)], capsys)
        assert (code, err) == (2, f"error: {config}:1: {message}\n")
    # A flag has no line to name.
    code, _, err = run(extract_args(tmp_path, DATA / "corpus.tsv") + ["--tagset", "bogus"], capsys)
    assert (code, err) == (2, "error: corpus.tagset must be one of ('coarse', 'treetagger-fr', 'treetagger_french')\n")


def test_offline_is_the_cache_backend_and_excludes_backend(tmp_path, capsys):
    assert cli.make_parser().parse_args(["translate", "--offline", "--ulcs", "u.tsv"]).backend == "cache"
    with pytest.raises(SystemExit) as caught:
        main(translate_args(tmp_path / "out", ["--backend", "http"]))
    assert caught.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    code, _, err = run(["translate", "--offline", "--ulcs", str(DATA / "ulcs.tsv"),
                        "--dictionary", str(DATA / "dictionary.tsv")], capsys)
    assert (code, err) == (2, "error: cache backend requires oracle.cache\n")


def test_translate_reads_units_only_from_a_unit_file(tmp_path, capsys):
    without_units = translate_args(tmp_path / "out")
    del without_units[without_units.index("--ulcs") : without_units.index("--ulcs") + 2]
    for argv, message in [
        (without_units, "the following arguments are required: --ulcs"),
        (translate_args(tmp_path / "out", ["--corpus", str(DATA / "corpus.tsv")]), "unrecognized arguments: --corpus"),
        (translate_args(tmp_path / "out", ["--tagset", "coarse"]), "unrecognized arguments: --tagset"),
    ]:
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out_dir", ["a-file", "a-file/out"])
def test_translate_out_dir_that_cannot_be_a_directory_exits_2_before_the_run(tmp_path, capsys, monkeypatch, out_dir):
    (tmp_path / "a-file").write_text("", encoding="utf-8")
    monkeypatch.setattr(cli, "run_pipeline", lambda *args: pytest.fail("the run started"))
    code, out, err = run(translate_args(tmp_path / out_dir), capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path / out_dir) in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_report_file_that_cannot_be_written_exits_2_in_one_line(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    # The report is written under temporary names first; every write to
    # this one fails: no space left.
    (out_dir / f"summary.tsv.{os.getpid()}.tmp").symlink_to("/dev/full")
    code, out, err = run(translate_args(out_dir), capsys)
    assert code == 2
    assert err == f"error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"
    assert list(out_dir.iterdir()) == []  # no report file, and no temporary one


def test_translate_cold_cache_exits_3(tmp_path, capsys):
    cold = tmp_path / "cold.cache"
    cold.touch()
    code, _, err = run(
        [
            "translate",
            "--ulcs", str(DATA / "ulcs.tsv"),
            "--dictionary", str(DATA / "dictionary.tsv"),
            "--offline",
            "--cache", str(cold),
            "--out-dir", str(tmp_path / "out"),
        ],
        capsys,
    )
    assert code == 3
    assert "unresolved" in err


def test_translate_summary_counts(tmp_path, capsys):
    run(translate_args(tmp_path / "run"), capsys)
    summary = (tmp_path / "run" / "summary.tsv").read_text(encoding="utf-8")
    assert "total_units\t20" in summary
    assert "translated\t18" in summary
    assert "phase\tphase1\t7" in summary  # 5 frequency wins + 2 dictionary units
    assert "phase\tphase2\t7" in summary
    assert "phase\tphase3\t4" in summary
    assert "untranslated\t2" in summary


def test_evaluate_fixture_gold(tmp_path, capsys):
    run(translate_args(tmp_path / "run"), capsys)
    code, out, _ = run(
        ["evaluate", "--lexicon", str(tmp_path / "run" / "lexicon.tsv"),
         "--gold", str(DATA / "gold.tsv")],
        capsys,
    )
    assert code == 0
    assert "precision=0.944444" in out  # 17/18
    assert "recall=0.850000" in out  # 17/20
    assert "grade_A=16" in out


def test_evaluate_missing_grades_exit_2(tmp_path, capsys):
    run(translate_args(tmp_path / "run"), capsys)
    empty_gold = tmp_path / "empty_gold.tsv"
    empty_gold.write_text("", encoding="utf-8")
    code, _, err = run(
        ["evaluate", "--lexicon", str(tmp_path / "run" / "lexicon.tsv"),
         "--gold", str(empty_gold)],
        capsys,
    )
    assert code == 2
    assert "lack a gold grade" in err
    assert "midnight mass" in err


def test_world_subcommand_prints_profile(capsys):
    code, out, _ = run(
        ["world", "--phrase", "caisse de retraite", "--lang", "fr",
         "--offline", "--cache", str(DATA / "e2e.cache")],
        capsys,
    )
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[0] == "caisse de retraite"
    assert fields[1] == "fr"
    assert "pension:" in fields[3]


def test_world_ends_an_oracle_failure_in_one_line(capsys):
    code, out, err = run(
        ["world", "--phrase", "nulle part", "--lang", "fr", "--offline", "--cache", str(DATA / "e2e.cache")],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert err == "error: offline: no cached response for ('SNIPPETS', ('nulle part',), '-', '1000')\n"


@pytest.mark.parametrize("phrase", ["", "caisse\tcentrale", "caisse\ncentrale", "caisse\rcentrale"])
def test_world_rejects_a_phrase_a_cache_record_cannot_hold(tmp_path, capsys, phrase):
    # A tab or a line break would split the phrase's cache record; the run
    # ends before it opens the cache, which it leaves unwritten.
    cache = tmp_path / "t.cache"
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"id": "d1", "lang": "fr", "text": "la caisse centrale"}\n', encoding="utf-8")
    code, out, err = run(
        ["world", "--phrase", phrase, "--lang", "fr", "--backend", "local", "--docs", str(docs), "--cache", str(cache)],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == f"error: --phrase must be non-empty, without a tab or a line break: {phrase!r}\n"
    assert not cache.exists()


@pytest.mark.parametrize("command", ["world", "extract"])
@pytest.mark.parametrize("flag", ["--source-lang", "--target-lang"])
def test_language_pair_flags_are_usage_errors_where_unread(capsys, command, flag):
    # Only translate reads the language pair; world takes its one --lang.
    argv = [command, "--offline", "--cache", str(DATA / "e2e.cache"), flag, "de"]
    if command == "world":
        argv += ["--phrase", "caisse de retraite", "--lang", "fr"]
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    assert f"unrecognized arguments: {flag} de" in capsys.readouterr().err


def test_cache_stats_counts_entries_per_kind(capsys):
    cache = DATA / "e2e.cache"
    code, out, _ = run(["cache", "stats", str(cache)], capsys)
    assert code == 0
    assert out == (
        f"160 entries in {cache}\n"
        "  MIXED_SNIPPETS\t6\n"
        "  PAIR_COUNT\t55\n"
        "  PHRASE_COUNT\t77\n"
        "  SNIPPETS\t22\n"
    )


def test_cache_stats_and_compact(tmp_path, capsys):
    cache_copy = tmp_path / "copy.cache"
    shutil.copy(DATA / "e2e.cache", cache_copy)
    code, out, _ = run(["cache", "stats", str(cache_copy)], capsys)
    assert code == 0
    assert "PHRASE_COUNT" in out

    before = len(cache_copy.read_text(encoding="utf-8").splitlines())
    code, out, _ = run(["cache", "compact", str(cache_copy)], capsys)
    assert code == 0
    after = len(cache_copy.read_text(encoding="utf-8").splitlines())
    assert after <= before

    code, out, _ = run(["cache", "stats", str(cache_copy)], capsys)
    assert code == 0


def test_cache_stats_and_compact_print_and_write_the_same_from_a_snapshot(tmp_path, capsys):
    # A load from the snapshot leaves the snippet texts in the cache file;
    # compact reads them, and stats needs only their records.
    cache_copy = tmp_path / "copy.cache"
    results = []
    for snapshot in (False, True):
        shutil.copy(DATA / "e2e.cache", cache_copy)
        if snapshot:
            ResponseCache(cache_copy).close()
        stats = run(["cache", "stats", str(cache_copy)], capsys)
        results.append((stats, run(["cache", "compact", str(cache_copy)], capsys), cache_copy.read_bytes()))
    assert results[0] == results[1]
    assert results[0][0][1].startswith(f"160 entries in {cache_copy}\n")


def test_cache_stats_and_compact_save_no_file_beside_the_cache(tmp_path, capsys):
    cache_copy = tmp_path / "copy.cache"
    shutil.copy(DATA / "e2e.cache", cache_copy)
    for action in ("stats", "compact"):
        assert run(["cache", action, str(cache_copy)], capsys)[0] == 0
        assert [p.name for p in tmp_path.iterdir()] == ["copy.cache"]


def test_cache_compact_exits_2_and_leaves_the_file_while_a_cache_appends_to_it(tmp_path, capsys):
    cache_copy = tmp_path / "copy.cache"
    shutil.copy(DATA / "e2e.cache", cache_copy)
    cache = ResponseCache(cache_copy)
    try:
        cache.put(OracleQuery(QueryKind.PHRASE_COUNT, ("fresh",)), 9)
        before = cache_copy.read_bytes()
        code, out, err = run(["cache", "compact", str(cache_copy)], capsys)
    finally:
        cache.close()
    assert (code, out) == (2, "")
    assert err == f"error: {cache_copy} is open for appending; compact it once no run writes to it\n"
    assert cache_copy.read_bytes() == before
    assert run(["cache", "compact", str(cache_copy)], capsys)[:2] == (0, f"compacted {cache_copy} to 161 records\n")


def test_local_backend_end_to_end_without_cache(tmp_path, capsys):
    # live (non-offline) run against the bundled document collection
    code, out, _ = run(
        [
            "translate",
            "--ulcs", str(DATA / "ulcs.tsv"),
            "--dictionary", str(DATA / "dictionary.tsv"),
            "--config", str(DATA / "run.config"),
            "--backend", "local",
            "--docs", str(DATA / "docs.jsonl"),
            "--out-dir", str(tmp_path / "live"),
        ],
        capsys,
    )
    assert code == 0
    produced = [
        line.split("\t")[:3]
        for line in (tmp_path / "live" / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
    ]
    golden = [
        line.split("\t")
        for line in (DATA / "golden_lexicon.tsv").read_text(encoding="utf-8").splitlines()
    ]
    assert produced == golden


def local_translate_args(out_dir, cache):
    return ["translate", "--ulcs", str(DATA / "ulcs.tsv"), "--dictionary", str(DATA / "dictionary.tsv"),
            "--config", str(DATA / "run.config"), "--backend", "local", "--docs", str(DATA / "docs.jsonl"),
            "--cache", str(cache), "--out-dir", str(out_dir)]


LOADED_AFTER = """
import json, sys
from lexiforge.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(sorted({"lexiforge.transport", "http.client", "ssl"} & set(sys.modules)))
"""


def test_runs_without_http_never_import_the_transport(tmp_path):
    # The HTTP backend imports its transport on first use: http.client and
    # ssl cost every run ~6 MB of memory otherwise.
    extract = ["extract", "--corpus", str(DATA / "corpus.tsv"), "--config", str(DATA / "run.config"),
               "--backend", "local", "--docs", str(DATA / "docs.jsonl"), "--cache", str(tmp_path / "x.cache"),
               "--out", str(tmp_path / "ulcs.tsv")]
    argvs = [translate_args(tmp_path / "offline"), extract]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", LOADED_AFTER, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_poisoned_cache_record_is_skipped_and_its_unit_translates(tmp_path, capsys, caplog):
    # a count record holding a snippet list, appended after the good one
    cache = tmp_path / "e2e.cache"
    shutil.copy(DATA / "e2e.cache", cache)
    with open(cache, "a", encoding="utf-8") as fh:
        fh.write('PHRASE_COUNT\tatmosphere\t\t-\t-\t[["x", null]]\n')
    with caplog.at_level(logging.WARNING, logger="lexiforge.oracle"):
        code, _, _ = run(local_translate_args(tmp_path / "live", cache), capsys)
    assert code == 0
    assert [r.getMessage() for r in caplog.records] == [f"{cache}:161: skipping corrupt cache record"]
    produced = [
        line.split("\t")[:3]
        for line in (tmp_path / "live" / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
    ]
    golden = [
        line.split("\t")
        for line in (DATA / "golden_lexicon.tsv").read_text(encoding="utf-8").splitlines()
    ]
    assert produced == golden


@pytest.fixture(scope="module")
def clean_local_run(tmp_path_factory):
    """The cache, lexicon and summary of a cold run against the local index."""
    tmp = tmp_path_factory.mktemp("clean")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(local_translate_args(tmp / "out", tmp / "run.cache")) == 0
    files = [tmp / "run.cache", tmp / "out" / "lexicon.tsv", tmp / "out" / "summary.tsv"]
    return {path.name: path.read_bytes() for path in files}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_a_cache_cut_anywhere_resumes_to_the_clean_bytes(clean_local_run, data):
    clean = clean_local_run["run.cache"]
    cut = data.draw(st.integers(0, len(clean)), label="cut")
    warnings_seen = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: warnings_seen.append(record.getMessage())
    logger = logging.getLogger("lexiforge.oracle")
    logger.addHandler(handler)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cache = Path(tmp) / "run.cache"
            cache.write_bytes(clean[:cut])
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(local_translate_args(Path(tmp) / "out", cache))
            outputs = {name: (Path(tmp) / "out" / name).read_bytes() for name in ("lexicon.tsv", "summary.tsv")}
    finally:
        logger.removeHandler(handler)
    assert code == 0
    assert outputs == {name: clean_local_run[name] for name in outputs}
    torn = cut > 0 and clean[cut - 1 : cut] != b"\n"
    lines = clean[:cut].count(b"\n") + 1
    assert warnings_seen == ([f"{cache}:{lines}: skipping corrupt cache record"] if torn else [])


# ``translate`` whose local backend SIGKILLs the process once its N-th call
# (argv[1]) has returned, before that answer reaches the cache.
KILLED_TRANSLATE = """
import os, signal, sys, threading
from lexiforge.backends import LocalIndexBackend
from lexiforge.cli import main
limit, calls, lock, execute = int(sys.argv[1]), [0], threading.Lock(), LocalIndexBackend.execute
def execute_then_die(self, query):
    answer = execute(self, query)
    with lock:
        calls[0] += 1
        if calls[0] == limit:
            os.kill(os.getpid(), signal.SIGKILL)
    return answer
LocalIndexBackend.execute = execute_then_die
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("kill_after", [1, 17, 40, 80])
def test_a_run_killed_mid_way_resumes_to_the_clean_bytes(clean_local_run, tmp_path, kill_after):
    # The cold fixture run makes 118 backend calls.
    cache = tmp_path / "run.cache"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    killed = subprocess.run(
        [sys.executable, "-c", KILLED_TRANSLATE, str(kill_after), *local_translate_args(tmp_path / "killed", cache)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    recorded = cache.read_bytes() if cache.exists() else b""  # the cache file opens on the first put
    assert len(recorded) < len(clean_local_run["run.cache"])
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(local_translate_args(tmp_path / "out", cache)) == 0
    for name in ("lexicon.tsv", "summary.tsv"):
        assert (tmp_path / "out" / name).read_bytes() == clean_local_run[name], name


def test_an_exception_that_is_no_oracle_error_ends_the_run_in_one_line_with_exit_4(clean_local_run, tmp_path, capsys, monkeypatch):
    # The local backend raises KeyError on its 60th call of a 2-worker run.
    out_dir, cache = tmp_path / "out", tmp_path / "run.cache"
    out_dir.mkdir()
    for name in ("lexicon.tsv", "summary.tsv"):
        (out_dir / name).write_bytes(clean_local_run[name])
    answered, calls, lock, execute = [], [0], threading.Lock(), LocalIndexBackend.execute

    def execute_or_fail(self, query):
        with lock:
            calls[0] += 1
            if calls[0] == 60:
                raise KeyError("lost")
        answer = execute(self, query)
        answered.append(query)
        return answer

    closed, close = [], SearchOracle.close
    monkeypatch.setattr(LocalIndexBackend, "execute", execute_or_fail)
    monkeypatch.setattr(SearchOracle, "close", lambda self: closed.append(self) or close(self))
    code, out, err = run(local_translate_args(out_dir, cache) + ["--workers", "2"], capsys)
    assert (code, out, err) == (4, "", "error: KeyError: 'lost'\n")
    assert len(closed) == 1
    # No unit started after the failure: the clean run makes 118 calls, and a
    # unit at most 16. Past the 59 answered first come at most the other
    # worker's unit and one it took while the failure unwound.
    assert 59 <= len(answered) <= 59 + 2 * 16
    # Every answer the backend gave was put before the run ended.
    recorded = ResponseCache(cache)
    assert len(recorded) == len(answered) and all(recorded.get(query) is not None for query in answered)
    recorded.close()
    for name in ("lexicon.tsv", "summary.tsv"):
        assert (out_dir / name).read_bytes() == clean_local_run[name], name
    assert sorted(p.name for p in out_dir.iterdir()) == ["lexicon.tsv", "summary.tsv"]


def test_translate_with_cache_leaves_no_open_file(tmp_path, capsys):
    cache = tmp_path / "run.cache"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, _, _ = run(local_translate_args(tmp_path / "live", cache), capsys)
        gc.collect()
    assert code == 0
    assert cache.stat().st_size > 0
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_cache_backend_replays_like_offline(tmp_path, capsys):
    argv = translate_args(tmp_path / "cache")
    argv[argv.index("--offline")] = "--backend=cache"
    code, _, _ = run(argv, capsys)
    assert code == 0
    run(translate_args(tmp_path / "offline"), capsys)
    for name in ("lexicon.tsv", "summary.tsv"):
        assert (tmp_path / "cache" / name).read_bytes() == (tmp_path / "offline" / name).read_bytes()

    cold = tmp_path / "cold.cache"
    cold.touch()
    code, _, err = run(
        ["translate", "--ulcs", str(DATA / "ulcs.tsv"), "--dictionary", str(DATA / "dictionary.tsv"),
         "--backend", "cache", "--cache", str(cold), "--out-dir", str(tmp_path / "cold")],
        capsys,
    )
    assert code == 3
    assert "unresolved" in err


def translate_with_docs(tmp_path, docs_lines):
    docs = tmp_path / "docs.jsonl"
    docs.write_text("".join(line + "\n" for line in docs_lines), encoding="utf-8")
    return docs, [
        "translate",
        "--ulcs", str(DATA / "ulcs.tsv"),
        "--dictionary", str(DATA / "dictionary.tsv"),
        "--backend", "local",
        "--docs", str(docs),
        "--out-dir", str(tmp_path / "out"),
    ]


def test_docs_line_with_broken_json_exits_2_with_line_number(tmp_path, capsys):
    docs, argv = translate_with_docs(
        tmp_path, ['{"id": "d1", "lang": "fr", "text": "la caisse"}', "", '{"id": "d2", "text": '],
    )
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: {docs}:3: invalid JSON")


def test_docs_line_without_text_exits_2_with_line_number(tmp_path, capsys):
    docs, argv = translate_with_docs(tmp_path, ['{"id": "d1", "lang": "fr"}'])
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err == f'error: {docs}:1: expected an object with a string "text"\n'


def test_unit_file_with_non_integer_frequency_exits_2_with_line_number(tmp_path, capsys):
    lines = (DATA / "ulcs.tsv").read_text(encoding="utf-8").splitlines()
    fields = lines[1].split("\t")
    fields[4] = "twelve"
    lines[1] = "\t".join(fields)
    ulcs = tmp_path / "ulcs.tsv"
    ulcs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = translate_args(tmp_path / "out")
    argv[argv.index("--ulcs") + 1] = str(ulcs)
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: {ulcs}:2: ") and "'twelve'" in err


def test_dictionary_line_with_one_field_exits_2_with_line_number(tmp_path, capsys):
    dictionary = tmp_path / "dictionary.tsv"
    dictionary.write_text("caisse\n", encoding="utf-8")
    argv = translate_args(tmp_path / "out")
    argv[argv.index("--dictionary") + 1] = str(dictionary)
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err == f"error: {dictionary}:1: expected 3 tab-separated fields, got 1\n"


@pytest.mark.parametrize(
    "line",
    [
        "oracle.parallelism = two",
        "phase2.noun_jaccard_min = low",
        "extract.max_ulcs = many",
        "generation.use_an = maybe",
    ],
)
def test_config_value_of_wrong_type_exits_2_with_line_number(tmp_path, capsys, line):
    config = tmp_path / "run.config"
    config.write_text(f"lang.source = fr\n{line}\n", encoding="utf-8")
    argv = translate_args(tmp_path / "out")
    argv[argv.index("--config") + 1] = str(config)
    code, _, err = run(argv, capsys)
    key, _, value = line.partition(" = ")
    assert code == 2
    assert err.startswith(f"error: {config}:2: {key}: ") and repr(value) in err


@pytest.mark.parametrize(
    "bad_line",
    [
        "caisse claire\tsnare drum\tDICTIONARY",
        "caisse claire\tsnare drum\tPHASE9\t-",
        "caisse claire\tsnare drum\tUNTRANSLATED\t-",
        "caisse claire\t\tPHASE1\t-",
    ],
)
def test_lexicon_line_malformed_exits_2_with_line_number(tmp_path, capsys, bad_line):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(f"messe de minuit\tmidnight mass\tPHASE1\t-\n{bad_line}\n", encoding="utf-8")
    code, _, err = run(
        ["evaluate", "--lexicon", str(lexicon), "--gold", str(DATA / "gold.tsv")], capsys
    )
    assert code == 2
    assert err.startswith(f"error: {lexicon}:2: ")


NOUNS = [f"nom{letter}" for letter in "abcdefghijkl"]
ADJECTIVES = [f"adj{letter}" for letter in "abcdefghi"]
# mixed snippets per unit: five bigrams seen five times each, or two bigrams
# seen three times and three seen twice
MIXED = {
    "zorglub vertical": ["kilo lima", "mike november", "oscar papa", "quebec romeo",
                         "sierra tango"] * 5,
    "bidule horizontal": ["kilo lima", "mike november"] * 3
    + ["oscar papa", "quebec romeo", "sierra tango"] * 2,
}


class AnsweringBackend(FakeBackend):
    """Answers every query and records it: counts of 5 and 1, snippets
    holding 12 nouns and 9 adjectives, and the mixed snippets above."""

    def execute(self, query):
        self.seen.append(query)
        if query.kind is QueryKind.PHRASE_COUNT:
            return 5
        if query.kind is QueryKind.PAIR_COUNT:
            return 1
        if query.kind is QueryKind.SNIPPETS:
            texts = [" ".join(NOUNS + ADJECTIVES)] * 3
        else:
            texts = MIXED.get(query.phrases[0], [])
        return [Snippet(t, str(i)) for i, t in enumerate(texts)]


def test_each_setting_reaches_the_code_that_uses_it(tmp_path, capsys, monkeypatch):
    # Distinct non-default values, so that a setting read in the wrong place
    # shows up as a wrong limit or size.
    config = tmp_path / "run.config"
    config.write_text(
        "phase2.snippet_limit = 37\n"
        "phase3.snippet_limit = 23\n"
        "phase2.world_size = 7\n"
        "phase3.top_pairs = 4\n"
        "phase3.min_pair_freq = 3\n"
        "pipeline.workers = 1\n",
        encoding="utf-8",
    )
    ulcs = tmp_path / "ulcs.tsv"
    ulcs.write_text(
        "".join(
            f"{head}\t{mod}\tNOUN_ADJ\t{head} {surface_mod}\t10\t5\t5\n"
            for head, mod, surface_mod in [
                ("caisse", "central", "centrale"),
                ("zorglub", "vertical", "vertical"),
                ("bidule", "horizontal", "horizontal"),
            ]
        ),
        encoding="utf-8",
    )
    dictionary = tmp_path / "dictionary.tsv"
    dictionary.write_text("caisse\tNOUN\tdrum|fund|case\ncentral\tADJ\tcentral\n", encoding="utf-8")
    tagger = tmp_path / "tagger.tsv"
    tagger.write_text(
        "".join(f"{w}\tNOUN\t{w}\n" for w in NOUNS) + "".join(f"{w}\tADJ\t{w}\n" for w in ADJECTIVES),
        encoding="utf-8",
    )

    backend = AnsweringBackend()
    monkeypatch.setattr(cli, "build_oracle", lambda cfg: SearchOracle(backend))
    seen = {"worlds": [], "pair_survivors": [], "mined": []}

    def recording(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            seen[key].append(result)
            return result

        monkeypatch.setattr(module, name, wrapper)

    recording(phase2, "build_lexical_world", "worlds")
    recording(phase2, "parallel_pair_filter", "pair_survivors")
    recording(phase3, "find_frequent_pairs", "mined")

    code, _, _ = run(
        ["translate", "--config", str(config), "--ulcs", str(ulcs), "--dictionary", str(dictionary),
         "--backend", "local", "--docs", str(tmp_path / "unused.jsonl"),
         "--source-tagger", str(tagger), "--target-tagger", str(tagger),
         "--out-dir", str(tmp_path / "out")],
        capsys,
    )
    assert code == 0

    limits = {
        kind: {q.limit for q in backend.seen if q.kind is kind}
        for kind in (QueryKind.SNIPPETS, QueryKind.MIXED_SNIPPETS)
    }
    assert limits == {QueryKind.SNIPPETS: {37}, QueryKind.MIXED_SNIPPETS: {23}}
    assert seen["worlds"]
    assert all(len(w.nouns) == 7 and len(w.adjectives) == 7 for w in seen["worlds"])
    # every candidate shares a document, so the pair filter keeps all of
    # them: the three generated ones and both mined lists
    assert sorted(len(s) for s in seen["pair_survivors"]) == [2, 3, 4]
    assert sorted(len(pairs) for pairs in seen["mined"]) == [2, 4]
    assert all(c.scores["evidence"] >= 3 for pairs in seen["mined"] for c in pairs)


def with_bad_byte(source, lineno, dest):
    """Copy ``source`` to ``dest`` with a byte that is not UTF-8 ending line
    ``lineno``."""
    lines = source.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1].rstrip(b"\n") + b" caf\xe9\n"
    dest.write_bytes(b"".join(lines))
    return dest


def evaluate_args(tmp_path, lexicon=None, gold=DATA / "gold.tsv"):
    if lexicon is None:
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("messe de minuit\tmidnight mass\tPHASE1\t-\n", encoding="utf-8")
    return ["evaluate", "--lexicon", str(lexicon), "--gold", str(gold)]


def extract_args(tmp_path, corpus):
    return ["extract", "--corpus", str(corpus), "--config", str(DATA / "run.config"), "--offline",
            "--cache", str(DATA / "e2e.cache"), "--out", str(tmp_path / "ulcs.tsv")]


def replaced(argv, flag, value):
    argv[argv.index(flag) + 1] = str(value)
    return argv


TAGGER_FR = Path(cli.__file__).parent / "data" / "tagger_fr.tsv"


@pytest.mark.parametrize(
    "source, lineno, make_argv",
    [
        (DATA / "corpus.tsv", 1000, lambda tmp, bad: extract_args(tmp, bad)),
        (DATA / "ulcs.tsv", 2, lambda tmp, bad: replaced(translate_args(tmp / "out"), "--ulcs", bad)),
        (DATA / "docs.jsonl", 100, lambda tmp, bad: replaced(translate_with_docs(tmp, [])[1], "--docs", bad)),
        (DATA / "dictionary.tsv", 3, lambda tmp, bad: replaced(translate_args(tmp / "out"), "--dictionary", bad)),
        (TAGGER_FR, 4, lambda tmp, bad: translate_args(tmp / "out", ["--source-tagger", str(bad)])),
        (DATA / "golden_lexicon.tsv", 5, lambda tmp, bad: evaluate_args(tmp, lexicon=bad)),
        (DATA / "gold.tsv", 6, lambda tmp, bad: evaluate_args(tmp, gold=bad)),
        (DATA / "run.config", 7, lambda tmp, bad: replaced(translate_args(tmp / "out"), "--config", bad)),
    ],
    ids=["corpus", "units", "docs", "dictionary", "tagger", "lexicon", "gold", "config"],
)
def test_input_that_is_not_utf8_exits_2_with_line_number(tmp_path, capsys, source, lineno, make_argv):
    bad = with_bad_byte(source, lineno, tmp_path / f"bad-{source.name}")
    code, _, err = run(make_argv(tmp_path, bad), capsys)
    assert code == 2
    assert err == f"error: {bad}:{lineno}: not valid UTF-8\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_named_pipe_that_is_not_utf8_exits_2_without_being_opened_again(tmp_path):
    # A pipe reads only once, so its bad line cannot be found; opening it
    # again to look would wait for a writer that has gone. The run is a
    # subprocess with a timeout, so a hang fails the test.
    fifo = tmp_path / "dictionary.tsv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(b"a\tNOUN\tx\n\xffb\tNOUN\ty\n",), daemon=True)
    writer.start()
    argv = replaced(translate_args(tmp_path / "out"), "--dictionary", fifo)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", "import sys; from lexiforge.cli import main; sys.exit(main(sys.argv[1:]))",
                           *argv], env=env, capture_output=True, text=True, timeout=30)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (done.returncode, done.stderr) == (2, f"error: {fifo}: not valid UTF-8\n")


@pytest.mark.parametrize("total", ["-5", "3"])
def test_evaluate_rejects_a_total_below_the_acceptable_translations(tmp_path, capsys, total):
    run(translate_args(tmp_path / "run"), capsys)
    code, out, err = run(
        ["evaluate", "--lexicon", str(tmp_path / "run" / "lexicon.tsv"),
         "--gold", str(DATA / "gold.tsv"), "--total-sources", total],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: total sources {total} is below the 17 acceptable translations\n"


def test_cache_record_that_is_not_utf8_is_skipped_with_a_warning(tmp_path, capsys, caplog):
    cache = tmp_path / "e2e.cache"
    cache.write_bytes((DATA / "e2e.cache").read_bytes() + b"PHRASE_COUNT\tcaf\xe9 noir\t\t-\t-\t12\n")
    with caplog.at_level(logging.WARNING, logger="lexiforge.oracle"):
        code, _, _ = run(replaced(translate_args(tmp_path / "run"), "--cache", cache), capsys)
    assert code == 0
    assert [r.getMessage() for r in caplog.records] == [f"{cache}:161: skipping corrupt cache record"]
    produced = (tmp_path / "run" / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
    golden = (DATA / "golden_lexicon.tsv").read_text(encoding="utf-8").splitlines()
    assert [line.rsplit("\t", 1)[0] for line in produced] == golden


def test_cache_count_too_large_for_a_float_is_skipped_with_a_warning(tmp_path, capsys, caplog):
    cache = tmp_path / "e2e.cache"
    huge = b"PAIR_COUNT\taccident grave\tserious accident\t-\t-\t" + b"9" * 400 + b"\n"
    cache.write_bytes((DATA / "e2e.cache").read_bytes() + huge)
    with caplog.at_level(logging.WARNING, logger="lexiforge.oracle"):
        code, _, _ = run(replaced(translate_args(tmp_path / "run"), "--cache", cache), capsys)
    assert code == 0
    assert [r.getMessage() for r in caplog.records] == [f"{cache}:161: skipping corrupt cache record"]
    produced = (tmp_path / "run" / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
    golden = (DATA / "golden_lexicon.tsv").read_text(encoding="utf-8").splitlines()
    assert [line.rsplit("\t", 1)[0] for line in produced] == golden


def lexicon_with_scores():
    """The golden lexicon as ``translate`` writes it, with a score column."""
    return b"".join(line + b"\t-\n" for line in (DATA / "golden_lexicon.tsv").read_bytes().splitlines())


def on_a_copy(argv, tmp):
    """``argv`` replaying a copy of the fixture cache in ``tmp``: a tagger
    changed at random is a new table, whose counts the replay would save
    beside the fixture for good."""
    return replaced(argv, "--cache", shutil.copy(DATA / "e2e.cache", tmp))


# input -> (clean contents, column of its tag, pattern, phase or grade field,
# the command that reads it)
INPUTS = {
    "units": (DATA / "ulcs.tsv", 2, lambda tmp, bad: replaced(translate_args(tmp / "out"), "--ulcs", bad)),
    "dictionary": (DATA / "dictionary.tsv", 1,
                   lambda tmp, bad: replaced(translate_args(tmp / "out"), "--dictionary", bad)),
    "source-tagger": (TAGGER_FR, 1,
                      lambda tmp, bad: on_a_copy(translate_args(tmp / "out", ["--source-tagger", str(bad)]), tmp)),
    "target-tagger": (TAGGER_FR.with_name("tagger_en.tsv"), 1,
                      lambda tmp, bad: on_a_copy(translate_args(tmp / "out", ["--target-tagger", str(bad)]), tmp)),
    "corpus": (DATA / "corpus.tsv", 1, extract_args),
    "gold": (DATA / "gold.tsv", 2, lambda tmp, bad: evaluate_args(tmp, gold=bad)),
    "lexicon": (lexicon_with_scores, 2, lambda tmp, bad: evaluate_args(tmp, lexicon=bad)),
    "docs": (DATA / "docs.jsonl", None, lambda tmp, bad: replaced(translate_with_docs(tmp, [])[1], "--docs", bad)),
    "config": (DATA / "run.config", None, lambda tmp, bad: replaced(translate_args(tmp / "out"), "--config", bad)),
    "cache": (DATA / "e2e.cache", 0, lambda tmp, bad: replaced(translate_args(tmp / "out"), "--cache", bad)),
}


@pytest.mark.parametrize("kind", [*sorted(INPUTS), "cache stats", "docs under a file"])
def test_a_directory_given_as_an_input_file_exits_2_naming_it(tmp_path, capsys, kind):
    directory = tmp_path / "a-directory"
    directory.mkdir()
    if kind == "docs under a file":  # not a directory either: NotADirectoryError
        kind, directory = "docs", DATA / "run.config" / "x"
    argv = ["cache", "stats", directory] if kind == "cache stats" else INPUTS[kind][2](tmp_path, directory)
    code, _, err = run([str(arg) for arg in argv], capsys)
    assert code == 2
    assert err.startswith("error: ") and str(directory) in err


def corrupted(kind, how, line):
    """``line`` (bytes) of a ``kind`` input with one fault of kind ``how``:
    a wrong field count, a byte that is not UTF-8, a bad integer, its last
    integer made negative, or an unknown tag, pattern, phase, grade or key
    (for a document, a "lang" that is not a string); None where it does not
    apply."""
    if how == "utf8":
        return line + b" caf\xe9"
    if how == "int":
        digits = re.search(rb"\d+", line)
        return None if digits is None else line[: digits.end()] + b"x" + line[digits.end() :]
    if how == "negative":
        digits = list(re.finditer(rb"\d+", line))
        return None if not digits else line[: digits[-1].start()] + b"-" + line[digits[-1].start() :]
    if kind == "docs":
        if how == "tag":
            return re.sub(rb'"lang": "[^"]*"', b'"lang": 7', line) if b'"lang"' in line else None
        return line[: len(line) // 2] if how == "fields" else None
    if kind == "config":
        return line.replace(b"=", b" ") if how == "fields" else b"bogus.key = 1"
    fields = line.split(b"\t")
    if how == "fields":
        return b"\t".join(fields[:-1])
    fields[INPUTS[kind][1]] = b"BOGUS"
    return b"\t".join(fields)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(INPUTS)),
    st.sampled_from(["fields", "utf8", "int", "negative", "tag"]),
    st.integers(0, 10_000),
)
@example("source-tagger", "fields", 0)
@example("units", "negative", 3)
@example("gold", "fields", 0)
@example("corpus", "fields", 0)
@example("docs", "tag", 0)
def test_one_corrupt_input_line_exits_2_naming_it_or_runs(kind, how, pick):
    source, _, make_argv = INPUTS[kind]
    lines = (source() if callable(source) else source.read_bytes()).splitlines()
    data_lines = [i for i, line in enumerate(lines) if line.strip() and not line.startswith(b"#")]
    index = data_lines[pick % len(data_lines)]
    bad_line = corrupted(kind, how, lines[index])
    assume(bad_line is not None)
    lines[index] = bad_line
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / f"bad-{kind}"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([str(arg) for arg in make_argv(Path(tmp), bad)])
    assert code in (0, 2, 3)
    if code == 2:
        assert err.getvalue().startswith(f"error: {bad}:{index + 1}: ")
    # Every reader rejects a wrong field count and a byte that is not UTF-8;
    # the response cache skips such a record, so its query is re-issued.
    if how in ("fields", "utf8"):
        assert (code == 2) == (kind != "cache")
    # A unit file's counts are non-negative; "-" is an unknown count.
    if kind == "units" and how == "negative":
        assert code == 2
    # A document whose "lang" is not a string would drop out of every
    # language-restricted answer.
    if kind == "docs" and how == "tag":
        assert code == 2
