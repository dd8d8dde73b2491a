import io

import pytest

from lexiforge.config import API_KEY_ENV, ConfigError, InputError, RunConfig, load_config, read_rows


def write_config(tmp_path, text):
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_and_apply_sections(tmp_path):
    path = write_config(
        tmp_path,
        """
        # comment
        oracle.backend = cache
        oracle.cache = warm.cache
        phase2.noun_jaccard_min = 0.1
        extract.max_ulcs = 25
        generation.use_an = true
        pipeline.workers = 2
        tagset.NOM = NOUN
        """,
    )
    cfg = load_config(path)
    assert cfg.backend == "cache"
    assert cfg.cache_path == "warm.cache"
    assert cfg.noun_jaccard_min == 0.1
    assert cfg.max_ulcs == 25
    assert cfg.use_an is True
    assert cfg.workers == 2
    assert cfg.tagset_overrides == {"NOM": "NOUN"}


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "oracle.bogus = 1\n")
    with pytest.raises(ConfigError, match="oracle.bogus"):
        load_config(path)


def test_malformed_line_rejected(tmp_path):
    path = write_config(tmp_path, "just some words\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_validate_backend_requirements():
    cfg = RunConfig(backend="http")
    with pytest.raises(ConfigError, match="endpoint"):
        cfg.validate()
    cfg = RunConfig(backend="local")
    with pytest.raises(ConfigError, match="docs"):
        cfg.validate()
    cfg = RunConfig(backend="cache")
    with pytest.raises(ConfigError, match="cache"):
        cfg.validate()
    RunConfig(backend="cache", cache_path="x").validate()


def test_validate_rejects_negative_thresholds():
    cfg = RunConfig(backend="cache", cache_path="x", corpus_freq_min=-1)
    with pytest.raises(ConfigError, match="non-negative"):
        cfg.validate()
    cfg = RunConfig(backend="cache", cache_path="x", pair_top_k=-3)
    with pytest.raises(ConfigError):
        cfg.validate()


@pytest.mark.parametrize("attr, key", [("snippet_limit", "phase2"), ("phase3_snippet_limit", "phase3")])
def test_validate_rejects_zero_snippet_limit(attr, key):
    cfg = RunConfig(backend="cache", cache_path="x", **{attr: 0})
    with pytest.raises(ConfigError, match=f"{key}.snippet_limit must be at least 1"):
        cfg.validate()


def test_env_var_overrides_api_key(tmp_path, monkeypatch):
    path = write_config(tmp_path, "oracle.api_key = from-file\n")
    monkeypatch.setenv(API_KEY_ENV, "from-env")
    assert load_config(path).api_key == "from-env"
    monkeypatch.delenv(API_KEY_ENV)
    assert load_config(path).api_key == "from-file"


def test_none_knobs_parse_off_values(tmp_path):
    path = write_config(tmp_path, "extract.max_ulcs = off\nphase2.pair_top_k = none\n")
    cfg = load_config(path)
    assert cfg.max_ulcs is None
    assert cfg.pair_top_k is None


def test_dump_reload_roundtrip(tmp_path):
    cfg = RunConfig(
        backend="local",
        docs_path="docs.jsonl",
        cache_path="run.cache",
        noun_jaccard_min=0.2,
        use_an=True,
        max_ulcs=7,
        tagset_overrides={"NOM": "NOUN"},
    )
    out = tmp_path / "dumped.conf"
    with open(out, "w", encoding="utf-8") as fh:
        cfg.dump(fh)
    reloaded = load_config(out)
    for attr in (
        "backend",
        "docs_path",
        "cache_path",
        "noun_jaccard_min",
        "use_an",
        "max_ulcs",
        "tagset_overrides",
        "workers",
        "snippet_limit",
    ):
        assert getattr(reloaded, attr) == getattr(cfg, attr)


def test_read_rows_applies_one_rule_to_paths_and_streams(tmp_path):
    text = "# header\n\n  a \t b\tc  \n \t \n\t# note\nd\t\tf\n"
    path = tmp_path / "rows.tsv"
    path.write_text(text, encoding="utf-8")
    rows = [(3, ["a", "b", "c"]), (6, ["d", "", "f"])]
    assert list(read_rows(path, 3)) == [(str(path), n, fields) for n, fields in rows]
    assert list(read_rows(io.StringIO(text), 3)) == [("<input>", n, fields) for n, fields in rows]
    with pytest.raises(InputError, match=r"rows\.tsv:3: expected 4 tab-separated fields, got 3$"):
        list(read_rows(path, 4))
