import contextlib
import os

import pytest

import lexiforge.savefile as savefile
from lexiforge.config import RunConfig
from lexiforge.dictionary import BilingualDictionary
from lexiforge.extraction import SourceUlc, UlcPattern
from lexiforge.backends import Snippet
from lexiforge.oracle import OracleError, OracleQuery, QueryKind, SearchOracle

# The settings a test runs with unless it builds its own: every default.
CFG = RunConfig()


def tok(surface, pos, lemma=None):
    from lexiforge.corpus import TaggedToken

    return TaggedToken(surface, pos, lemma if lemma is not None else surface)


# What joins head and modifier lemmas into a unit's surface when a test gives none.
JOINERS = {UlcPattern.NOUN_ADJ: " ", UlcPattern.NOUN_DE_NOUN: " de ", UlcPattern.NOUN_D_NOUN: " d'"}


def make_ulc(head, modifier, pattern=UlcPattern.NOUN_DE_NOUN, surface=None, corpus_freq=10,
             literal_freq=None, article_freq=None):
    return SourceUlc(
        head,
        modifier,
        pattern,
        surface if surface is not None else f"{head}{JOINERS[pattern]}{modifier}",
        corpus_freq,
        literal_freq,
        article_freq,
    )


def make_dictionary(entries=(), multiword=()):
    """entries: (lemma, pos, [translations]); multiword: ((head, mod), [translations])."""
    return BilingualDictionary(entries, multiword)


class FakeBackend:
    """Dict-backed oracle backend for hermetic tests.

    Keys can be registered through the helper methods; unknown queries
    raise OracleError unless a default count is configured. Every hit on
    the backend increments ``calls``.
    """

    def __init__(self, default_count=None):
        self.responses = {}
        self.default_count = default_count
        self.calls = 0
        self.seen = []

    def count(self, phrase, value):
        self.responses[OracleQuery(QueryKind.PHRASE_COUNT, (phrase,)).cache_key()] = value
        return self

    def pair(self, phrase_a, phrase_b, value):
        key = OracleQuery(QueryKind.PAIR_COUNT, (phrase_a, phrase_b)).cache_key()
        self.responses[key] = value
        return self

    def snips(self, phrase, limit, texts, lang=None):
        kind = QueryKind.MIXED_SNIPPETS if lang else QueryKind.SNIPPETS
        key = OracleQuery(kind, (phrase,), lang_restrict=lang, limit=limit).cache_key()
        self.responses[key] = [Snippet(t, str(i)) for i, t in enumerate(texts)]
        return self

    def execute(self, query):
        self.calls += 1
        self.seen.append(query)
        key = query.cache_key()
        if key in self.responses:
            return self.responses[key]
        if query.kind in (QueryKind.PHRASE_COUNT, QueryKind.PAIR_COUNT):
            if self.default_count is not None:
                return self.default_count
        elif self.default_count is not None:
            return []
        raise OracleError(f"no fixture response for {key}")


def make_oracle(backend=None, **kwargs):
    return SearchOracle(backend if backend is not None else FakeBackend(default_count=0), **kwargs)


@pytest.fixture
def data_dir(tmp_path):
    return tmp_path


@contextlib.contextmanager
def refusing_saved_files(monkeypatch, directory, refused):
    """``directory`` refuses to create (``"create"``) or to move into place
    (``"replace"``) a saved file while the block runs."""

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    # The mode bits refuse a user other than root; the patches refuse root.
    if refused == "create":
        monkeypatch.setattr(savefile, "open", lambda file, mode="r", *a, **kw: (
            refuse() if "x" in mode else open(file, mode, *a, **kw)), raising=False)
    else:
        monkeypatch.setattr(os, "replace", refuse)
    directory.chmod(0o555)
    try:
        yield
    finally:
        directory.chmod(0o755)
        monkeypatch.undo()
