"""Bilingual dictionary: lookups, multiword entries and each unit's route.

File format is one entry per line, ``lemma<TAB>pos<TAB>tr1|tr2|...``.
Multiword source entries join their lemmas with underscores in the lemma
field ("caisse_clair") and are kept in a separate table keyed by the
(head, modifier) lemma pair.

A constituent counts as polysemous when its entry lists two or more
translations; a unit goes to phase 1 only when both of its constituents
have exactly one translation each.
"""

from __future__ import annotations

import enum
from pathlib import Path
from typing import Iterable, TextIO

from . import savefile
from .config import InputError, read_rows
from .extraction import D_APOSTROPHE_SURFACES, DE_SURFACES, SourceUlc, UlcPattern

LINK_WORDS = DE_SURFACES | D_APOSTROPHE_SURFACES

_PARSE_MAGIC = b"lexiforge-bidict"  # a dictionary file's saved parse (``savefile.parsed``)
_PARSE_FORMAT = 1  # bump when the two tables, or how ``load_dictionary`` fills them, change


class Route(enum.Enum):
    """Where the dictionary sends a unit: to its stored multiword
    translation, or to the phase the cascade starts it at (the value)."""

    DICTIONARY = 0
    PHASE1 = 1
    PHASE2 = 2
    PHASE3 = 3

    @property
    def phase(self) -> int:
        """The ``translate --phase`` number; stored translations count as 1."""
        return max(self.value, 1)


class BilingualDictionary:
    """Two tables: (lemma, pos) -> translations, and (head, modifier) ->
    translations for multiword entries. Rows with the same key merge: each
    translation is kept once, in the order first seen. Immutable after
    construction; concurrent reads are safe."""

    def __init__(
        self,
        entries: Iterable[tuple[str, str, Iterable[str]]] = (),
        multiword: Iterable[tuple[tuple[str, str], Iterable[str]]] = (),
    ):
        self._entries: dict[tuple[str, str], tuple[str, ...]] = {}
        for lemma, pos, translations in entries:
            self._merge(self._entries, (lemma, pos), translations)
        self._multiword: dict[tuple[str, str], tuple[str, ...]] = {}
        for pair, translations in multiword:
            self._merge(self._multiword, pair, translations)

    @staticmethod
    def _merge(table: dict, key: tuple[str, str], translations: Iterable[str]) -> None:
        table[key] = tuple(dict.fromkeys((*table.get(key, ()), *translations)))

    def lookup(self, lemma: str, pos: str) -> tuple[str, ...]:
        """Translations for (lemma, pos); empty tuple on a miss."""
        return self._entries.get((lemma, pos), ())

    def multiword_lookup(self, head_lemma: str, modifier_lemma: str) -> tuple[str, ...]:
        return self._multiword.get((head_lemma, modifier_lemma), ())

    def __len__(self) -> int:
        return len(self._entries) + len(self._multiword)


def _multiword_pair(lemma_field: str) -> tuple[str, str] | None:
    """(head, modifier) pair for an underscore-joined multiword lemma."""
    parts = [p for p in lemma_field.split("_") if p]
    content = [p for p in parts if p.lower() not in LINK_WORDS]
    if len(content) != 2:
        return None
    return content[0], content[1]


def _tables(fh: TextIO) -> tuple[dict, dict]:
    dictionary = load_dictionary(fh)
    return dictionary._entries, dictionary._multiword


def load_dictionary(source: TextIO | str | Path) -> BilingualDictionary:
    """Load a dictionary file; duplicate (lemma, pos) entries are merged.
    A malformed line raises ``InputError`` naming the file and line."""
    if isinstance(source, (str, Path)):
        dictionary = BilingualDictionary()
        dictionary._entries, dictionary._multiword = savefile.parsed(source, ".parsed", _PARSE_MAGIC, _PARSE_FORMAT, 2, _tables)
        return dictionary
    entries = []
    multiword = []
    for path, lineno, (lemma, pos, translation_field) in read_rows(source, 3):
        translations = [t for t in map(str.strip, translation_field.split("|")) if t]
        if not translations:
            raise InputError(path, lineno, "empty field")
        if "_" in lemma:
            pair = _multiword_pair(lemma)
            if pair is None:
                raise InputError(
                    path, lineno, f"multiword lemma {lemma!r} does not reduce to a (head, modifier) pair"
                )
            multiword.append((pair, [t.replace("_", " ") for t in translations]))
        else:
            entries.append((lemma, pos, translations))
    return BilingualDictionary(entries, multiword)


def modifier_pos(pattern: UlcPattern) -> str:
    """Dictionary POS used to look up the modifier of a unit."""
    return "ADJ" if pattern is UlcPattern.NOUN_ADJ else "NOUN"


def route_ulc(ulc: SourceUlc, dictionary: BilingualDictionary) -> tuple[Route, str | None]:
    """A unit's route, with the stored translation on the DICTIONARY route.

    The four routes partition all inputs: DICTIONARY when the unit is a
    multiword entry, else PHASE3 when a constituent is missing from the
    dictionary, PHASE1 when both constituents have exactly one
    translation, PHASE2 otherwise.
    """
    stored = dictionary.multiword_lookup(ulc.head_lemma, ulc.modifier_lemma)
    if stored:
        return Route.DICTIONARY, stored[0]
    head_tr = dictionary.lookup(ulc.head_lemma, "NOUN")
    mod_tr = dictionary.lookup(ulc.modifier_lemma, modifier_pos(ulc.pattern))
    if not head_tr or not mod_tr:
        return Route.PHASE3, None
    if len(head_tr) == 1 and len(mod_tr) == 1:
        return Route.PHASE1, None
    return Route.PHASE2, None
