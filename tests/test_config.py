import io
from dataclasses import fields

import pytest

from lexiforge.config import API_KEY_ENV, KEY_MAP, ConfigError, InputError, RunConfig, load_config, read_rows


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


# Every config key, each with a value other than its default: key -> (the
# file's text, the value its field reads).
EVERY_KEY = {
    "corpus.path": ("c.tsv", "c.tsv"),
    "corpus.tagset": ("treetagger-fr", "treetagger-fr"),
    "dictionary.path": ("d.tsv", "d.tsv"),
    "output.dir": ("run", "run"),
    "lang.source": ("de", "de"),
    "lang.target": ("it", "it"),
    "oracle.backend": ("http", "http"),
    "oracle.cache": ("run.cache", "run.cache"),
    "oracle.docs": ("docs.jsonl", "docs.jsonl"),
    "oracle.endpoint": ("http://engine", "http://engine"),
    "oracle.api_key": ("k", "k"),
    "oracle.rate_per_sec": ("0.5", 0.5),
    "oracle.parallelism": ("3", 3),
    "extract.corpus_freq_min": ("11", 11),
    "extract.literal_freq_min": ("12", 12),
    "extract.article_freq_min": ("13", 13),
    "extract.max_ulcs": ("14", 14),
    "generation.use_an": ("yes", True),
    "phase2.snippet_limit": ("15", 15),
    "phase2.world_size": ("16", 16),
    "phase2.noun_jaccard_min": ("0.25", 0.25),
    "phase2.adj_jaccard_min": ("0.5", 0.5),
    "phase3.snippet_limit": ("17", 17),
    "phase3.min_pair_freq": ("18", 18),
    "phase3.top_pairs": ("19", 19),
    "pipeline.workers": ("20", 20),
}


def test_every_key_sets_its_own_field(tmp_path, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    assert sorted(KEY_MAP) == sorted(EVERY_KEY)
    # Each field but the tagset overrides and the CLI-only tagger paths has one key.
    assert sorted(KEY_MAP.values()) == sorted(
        f.name for f in fields(RunConfig)
        if f.name not in ("tagset_overrides", "source_tagger_path", "target_tagger_path")
    )
    path = write_config(tmp_path, "".join(f"{key} = {text}\n" for key, (text, _) in EVERY_KEY.items()))
    cfg = load_config(path)
    cfg.validate()
    for key, (_, value) in EVERY_KEY.items():
        attr = KEY_MAP[key]
        assert getattr(cfg, attr) == value != getattr(RunConfig(), attr), key


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
    cfg = RunConfig(backend="cache", cache_path="x", max_ulcs=-3)
    with pytest.raises(ConfigError):
        cfg.validate()


@pytest.mark.parametrize("attr", ["noun_jaccard_min", "adj_jaccard_min", "rate_per_sec"])
def test_validate_rejects_nan(attr):
    # NaN compares false with everything, so it would pass every threshold
    # check and fail every threshold test.
    cfg = RunConfig(backend="cache", cache_path="x", **{attr: float("nan")})
    with pytest.raises(ConfigError, match="must be non-negative"):
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
    for off in ("off", "none"):
        cfg = load_config(write_config(tmp_path, f"extract.max_ulcs = {off}\n"))
        assert cfg.max_ulcs is None


def test_read_rows_applies_one_rule_to_paths_and_streams(tmp_path):
    text = "# header\n\n  a \t b\tc  \n \t \n\t# note\nd\t\tf\n"
    path = tmp_path / "rows.tsv"
    path.write_text(text, encoding="utf-8")
    rows = [(3, ["a", "b", "c"]), (6, ["d", "", "f"])]
    assert list(read_rows(path, 3)) == [(str(path), n, fields) for n, fields in rows]
    assert list(read_rows(io.StringIO(text), 3)) == [("<input>", n, fields) for n, fields in rows]
    with pytest.raises(InputError, match=r"rows\.tsv:3: expected 4 tab-separated fields, got 3$"):
        list(read_rows(path, 4))
