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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import BinaryIO, Iterator, Mapping, TextIO

API_KEY_ENV = "LEXIFORGE_ORACLE_KEY"

BACKENDS = ("local", "http", "cache")

# The coarse word classes used by the pattern matcher, and the built-in
# tagsets: name -> raw tagger tag -> coarse class. The corpus parser maps
# each raw tag through the run's tagset; the config checks names against
# this table.
COARSE_TAGS = frozenset(
    {"NOUN", "ADJ", "PREP", "DET", "SENT", "VERB", "ADV", "PRON", "CONJ", "NUM", "OTHER"}
)
_COARSE = {t: t for t in COARSE_TAGS}
# The French TreeTagger tag inventory; its ADJ, ADV, NUM and SENT tags are
# coarse names already.
_TREETAGGER_FR = {
    **_COARSE,
    "NOM": "NOUN",
    "NAM": "NOUN",
    "ABR": "NOUN",
    "PRP": "PREP",
    "PRP:det": "PREP",
    "DET:ART": "DET",
    "DET:POS": "DET",
    "PUN": "OTHER",
    "PUN:cit": "OTHER",
    "SYM": "OTHER",
    "KON": "CONJ",
    "INT": "OTHER",
    "PRO": "PRON",
    "PRO:DEM": "PRON",
    "PRO:IND": "PRON",
    "PRO:PER": "PRON",
    "PRO:POS": "PRON",
    "PRO:REL": "PRON",
    "VER:cond": "VERB",
    "VER:futu": "VERB",
    "VER:impe": "VERB",
    "VER:impf": "VERB",
    "VER:infi": "VERB",
    "VER:pper": "VERB",
    "VER:ppre": "VERB",
    "VER:pres": "VERB",
    "VER:simp": "VERB",
    "VER:subi": "VERB",
    "VER:subp": "VERB",
}
TAGSETS = {"coarse": _COARSE, "treetagger-fr": _TREETAGGER_FR, "treetagger_french": _TREETAGGER_FR}

# setting -> the values it accepts
_CHOICES = {"backend": BACKENDS, "tagset_name": tuple(TAGSETS)}


class ConfigError(ValueError):
    pass


class InputError(ValueError):
    """A malformed line in an input file, reported as ``path:line: msg``, or
    as ``path: msg`` where the line cannot be found."""

    def __init__(self, path: str | Path, lineno: int | None, msg: str):
        super().__init__(f"{path}:{lineno}: {msg}" if lineno else f"{path}: {msg}")


@contextmanager
def open_utf8(path: str | Path, binary: BinaryIO | None = None) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading, or decode ``binary``, a binary
    stream of it. A byte sequence that is not UTF-8 raises ``InputError``
    naming its line; only that error path re-reads the file, as bytes, to
    find the line, and only a regular file, since a pipe reads only once."""
    try:
        with open(path, encoding="utf-8") if binary is None else io.TextIOWrapper(binary, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        if not Path(path).is_file():
            raise InputError(path, None, "not valid UTF-8") from None
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(path, data.count(b"\n", 0, exc.start) + 1, "not valid UTF-8") from None
        raise


def read_rows(
    source: TextIO | str | Path, n_fields: int, optional: tuple[int, ...] = ()
) -> Iterator[tuple[str, int, list[str]]]:
    """``(path, lineno, fields)`` for each row of a tab-separated input file.

    ``source`` is a path, opened through ``open_utf8``, or an open stream,
    named by its ``name``. Every such file follows one rule: blank,
    whitespace-only and ``#`` lines are skipped (a ``#`` after leading
    whitespace too), and every other line, its line ending cut off, is
    split on tabs into stripped fields. A row without ``n_fields`` fields,
    or with an empty field other than one whose index is ``optional``,
    raises ``InputError``."""
    if isinstance(source, (str, Path)):
        with open_utf8(source) as fh:
            yield from read_rows(fh, n_fields, optional)
        return
    path = getattr(source, "name", "<input>")
    for lineno, raw_line in enumerate(source, start=1):
        line = raw_line.strip()
        if not line or line[0] == "#":
            continue
        fields = [f.strip() for f in raw_line.rstrip("\r\n").split("\t")]
        if len(fields) != n_fields:
            raise InputError(
                path, lineno, f"expected {n_fields} tab-separated fields, got {len(fields)}"
            )
        if "" in fields and any(not value and i not in optional for i, value in enumerate(fields)):
            raise InputError(path, lineno, "empty field")
        yield path, lineno, fields


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
                if value not in COARSE_TAGS:
                    raise ConfigError(f"{path}:{lineno}: {key}: must be one of {tuple(sorted(COARSE_TAGS))}")
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


def _key(key: str, default: object = None):
    """A RunConfig field that the config-file ``key`` sets."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run, with its default and, for a setting a config
    file may hold, its key (``_key``); built once by ``load_config``."""

    corpus_path: str | None = _key("corpus.path")
    dictionary_path: str | None = _key("dictionary.path")
    output_dir: str = _key("output.dir", "out")
    tagset_name: str = _key("corpus.tagset", "coarse")
    tagset_overrides: dict[str, str] = field(default_factory=dict)
    source_lang: str = _key("lang.source", "fr")
    target_lang: str = _key("lang.target", "en")

    backend: str = _key("oracle.backend", "local")
    cache_path: str | None = _key("oracle.cache")
    docs_path: str | None = _key("oracle.docs")
    endpoint: str = _key("oracle.endpoint", "")
    api_key: str = _key("oracle.api_key", "")
    rate_per_sec: float = _key("oracle.rate_per_sec", 2.0)
    parallelism: int = _key("oracle.parallelism", 4)

    corpus_freq_min: int = _key("extract.corpus_freq_min", 10)
    literal_freq_min: int = _key("extract.literal_freq_min", 10_000)
    article_freq_min: int = _key("extract.article_freq_min", 1_000)
    max_ulcs: int | None = _key("extract.max_ulcs")

    use_an: bool = _key("generation.use_an", False)
    snippet_limit: int = _key("phase2.snippet_limit", 1_000)
    world_size: int = _key("phase2.world_size", 50)
    noun_jaccard_min: float = _key("phase2.noun_jaccard_min", 0.05)
    adj_jaccard_min: float = _key("phase2.adj_jaccard_min", 0.05)

    phase3_snippet_limit: int = _key("phase3.snippet_limit", 1_000)
    min_pair_freq: int = _key("phase3.min_pair_freq", 2)
    top_pairs: int = _key("phase3.top_pairs", 10)

    workers: int = _key("pipeline.workers", 4)

    # Snippet tagger overrides (paths to lexicon files); CLI-only knobs.
    source_tagger_path: str | None = None
    target_tagger_path: str | None = None

    def validate(self) -> None:
        """Check every setting's range, then the settings each backend needs."""
        for key, attr in KEY_MAP.items():
            try:
                _check(attr, getattr(self, attr))
            except ValueError as exc:
                raise ConfigError(f"{key} {exc}") from None
        if self.backend == "http" and not self.endpoint:
            raise ConfigError("http backend requires oracle.endpoint")
        if self.backend == "local" and not self.docs_path:
            raise ConfigError("local backend requires oracle.docs")
        if self.backend == "cache" and not self.cache_path:
            raise ConfigError("cache backend requires oracle.cache")


def _check(attr: str, value: object) -> None:
    """Raise ValueError when one setting's value is out of its range."""
    if attr in _CHOICES and value not in _CHOICES[attr]:
        raise ValueError(f"must be one of {_CHOICES[attr]}")
    # Every numeric setting is a count, rate or threshold.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not value >= 0:  # NaN too
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
# config-file key -> RunConfig attribute
KEY_MAP = {f.metadata["key"]: f.name for f in fields(RunConfig) if "key" in f.metadata}


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
