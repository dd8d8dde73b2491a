"""Run configuration: flat ``section.key = value`` files plus CLI overrides.

Example::

    oracle.backend = local
    oracle.docs = fixtures/docs.jsonl
    oracle.cache = run.cache
    phase2.noun_jaccard_min = 0.05
    lang.source = fr
    lang.target = en

CLI flags override file values; the API key may also come from the
LEXIFORGE_ORACLE_KEY environment variable, which wins over both.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator, Mapping, TextIO

API_KEY_ENV = "LEXIFORGE_ORACLE_KEY"

BACKENDS = ("local", "http", "cache")


class ConfigError(ValueError):
    pass


class InputError(ValueError):
    """A malformed line in an input file, reported as ``path:line: msg``."""

    def __init__(self, path: str | Path, lineno: int, msg: str):
        super().__init__(f"{path}:{lineno}: {msg}")


@contextmanager
def open_utf8(path: str | Path, binary: BinaryIO | None = None) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading, or decode ``binary``, a binary
    stream of it. A byte sequence that is not UTF-8 raises ``InputError``
    naming its line; only that error path re-reads the file, as bytes, to
    find the line."""
    try:
        with open(path, encoding="utf-8") if binary is None else io.TextIOWrapper(binary, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(path, data.count(b"\n", 0, exc.start) + 1, "not valid UTF-8") from None
        raise


def read_rows(source: TextIO | str | Path, n_fields: int) -> Iterator[tuple[str, int, list[str]]]:
    """``(path, lineno, fields)`` for each row of a tab-separated input file.

    ``source`` is a path, opened through ``open_utf8``, or an open stream,
    named by its ``name``. Every such file follows one rule: each line is
    stripped, blank and ``#`` lines are skipped, and the rest is split on
    tabs into stripped fields. A row without ``n_fields`` fields raises
    ``InputError``."""
    if isinstance(source, (str, Path)):
        with open_utf8(source) as fh:
            yield from read_rows(fh, n_fields)
        return
    path = getattr(source, "name", "<input>")
    for lineno, raw_line in enumerate(source, start=1):
        line = raw_line.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise InputError(
                path, lineno, f"expected {n_fields} tab-separated fields, got {len(fields)}"
            )
        yield path, lineno, [f.strip() for f in fields]


def parse_config_file(path: str | Path) -> dict[str, object]:
    """RunConfig attribute -> typed value for each line of a config file."""
    values: dict[str, object] = {}
    tagset_overrides: dict[str, str] = {}
    with open_utf8(path) as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key.startswith("tagset."):
                tagset_overrides[key[len("tagset.") :]] = value
                continue
            attr = KEY_MAP.get(key)
            if attr is None:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[attr] = _coerce(attr, value)
                _check(attr, values[attr])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
    if tagset_overrides:
        values["tagset_overrides"] = tagset_overrides
    return values


# config-file key -> RunConfig attribute
KEY_MAP = {
    "corpus.path": "corpus_path",
    "corpus.tagset": "tagset_name",
    "dictionary.path": "dictionary_path",
    "output.dir": "output_dir",
    "lang.source": "source_lang",
    "lang.target": "target_lang",
    "oracle.backend": "backend",
    "oracle.cache": "cache_path",
    "oracle.docs": "docs_path",
    "oracle.endpoint": "endpoint",
    "oracle.api_key": "api_key",
    "oracle.rate_per_sec": "rate_per_sec",
    "oracle.parallelism": "parallelism",
    "extract.corpus_freq_min": "corpus_freq_min",
    "extract.literal_freq_min": "literal_freq_min",
    "extract.article_freq_min": "article_freq_min",
    "extract.max_ulcs": "max_ulcs",
    "generation.use_an": "use_an",
    "phase2.snippet_limit": "snippet_limit",
    "phase2.world_size": "world_size",
    "phase2.noun_jaccard_min": "noun_jaccard_min",
    "phase2.adj_jaccard_min": "adj_jaccard_min",
    "phase3.snippet_limit": "phase3_snippet_limit",
    "phase3.min_pair_freq": "min_pair_freq",
    "phase3.top_pairs": "top_pairs",
    "pipeline.workers": "workers",
}

_ATTR_TO_KEY = {attr: key for key, attr in KEY_MAP.items()}


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run, with its default; built once by ``load_config``."""

    corpus_path: str | None = None
    dictionary_path: str | None = None
    output_dir: str = "out"
    tagset_name: str = "coarse"
    tagset_overrides: dict[str, str] = field(default_factory=dict)
    source_lang: str = "fr"
    target_lang: str = "en"

    backend: str = "local"
    cache_path: str | None = None
    docs_path: str | None = None
    endpoint: str = ""
    api_key: str = ""
    rate_per_sec: float = 2.0
    parallelism: int = 4

    corpus_freq_min: int = 10
    literal_freq_min: int = 10_000
    article_freq_min: int = 1_000
    max_ulcs: int | None = None

    use_an: bool = False
    snippet_limit: int = 1_000
    world_size: int = 50
    noun_jaccard_min: float = 0.05
    adj_jaccard_min: float = 0.05

    phase3_snippet_limit: int = 1_000
    min_pair_freq: int = 2
    top_pairs: int = 10

    workers: int = 4

    # Snippet tagger overrides (paths to lexicon files); CLI-only knobs.
    source_tagger_path: str | None = None
    target_tagger_path: str | None = None

    def validate(self) -> None:
        """Check every setting's range, then the settings each backend needs."""
        for attr in KEY_MAP.values():
            try:
                _check(attr, getattr(self, attr))
            except ValueError as exc:
                raise ConfigError(f"{_ATTR_TO_KEY[attr]} {exc}") from None
        if self.backend == "http" and not self.endpoint:
            raise ConfigError("http backend requires oracle.endpoint")
        if self.backend == "local" and not self.docs_path:
            raise ConfigError("local backend requires oracle.docs")
        if self.backend == "cache" and not self.cache_path:
            raise ConfigError("cache backend requires oracle.cache")

    def dump(self, out) -> None:
        """Write every mapped key so a dump reloads to identical behavior."""
        for key in sorted(KEY_MAP):
            value = getattr(self, KEY_MAP[key])
            if value is None:
                continue
            if isinstance(value, bool):
                value = "true" if value else "false"
            out.write(f"{key} = {value}\n")
        for raw, coarse in sorted(self.tagset_overrides.items()):
            out.write(f"tagset.{raw} = {coarse}\n")


def _check(attr: str, value: object) -> None:
    """Raise ValueError when one setting's value is out of its range."""
    if attr == "backend" and value not in BACKENDS:
        raise ValueError(f"must be one of {BACKENDS}")
    # Every numeric setting is a count, rate or threshold.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < 0:
            raise ValueError("must be non-negative")
        if attr in ("snippet_limit", "phase3_snippet_limit") and value < 1:
            raise ValueError("must be at least 1")


def _coerce(attr: str, raw: str):
    if attr == "max_ulcs":
        return None if raw.lower() in ("", "none", "off") else int(raw)
    current_type = type(getattr(_DEFAULTS, attr))
    if current_type is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean from {raw!r}")
    if current_type is int:
        return int(raw)
    if current_type is float:
        return float(raw)
    return raw


_DEFAULTS = RunConfig()


def load_config(
    path: str | Path | None = None, overrides: Mapping[str, object] | None = None
) -> RunConfig:
    """Build a run's settings once: defaults, then the config file at
    ``path``, then ``overrides`` (attribute -> value, e.g. CLI flags), then
    the API key from the environment."""
    values = parse_config_file(path) if path is not None else {}
    values.update(overrides or {})
    if os.environ.get(API_KEY_ENV):
        values["api_key"] = os.environ[API_KEY_ENV]
    return RunConfig(**values)
