"""Smoke tests for the scripts: the demo replays its own run offline, and
the fixture builder regenerates ``tests/data`` byte for byte."""

import importlib.util
import runpy
import shutil
import sys
from pathlib import Path

from lexiforge.oracle import ResponseCache

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DATA = Path(__file__).parent / "data"


def test_run_demo_replays_identically_offline(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_demo.py", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "run_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "offline cache replay identical: True (0 backend calls: True)" in out
    assert "  phase phase1 7\n" in out
    assert (tmp_path / "lexicon.tsv").exists() and (tmp_path / "summary.tsv").exists()


def test_build_fixtures_regenerates_the_bundled_fixtures(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("build_fixtures", SCRIPTS / "build_fixtures.py")
    build_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_fixtures)
    monkeypatch.setattr(build_fixtures, "DATA_DIR", tmp_path)
    build_fixtures.main()
    capsys.readouterr()

    for name in ("corpus.tsv", "dictionary.tsv", "docs.jsonl", "run.config", "ulcs.tsv", "gold.tsv"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name

    # The cache holds the same entries; compacting orders them by key.
    bundled = shutil.copy(DATA / "e2e.cache", tmp_path / "bundled.cache")
    caches = [ResponseCache(tmp_path / "e2e.cache"), ResponseCache(bundled)]
    try:
        assert [cache.compact() for cache in caches] == [160, 160]
    finally:
        for cache in caches:
            cache.close()
    assert (tmp_path / "e2e.cache").read_bytes() == Path(bundled).read_bytes()
