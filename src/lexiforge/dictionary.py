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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

from .config import InputError, read_rows
from .extraction import SourceUlc, UlcPattern

LINK_WORDS = {"de", "d'", "d’"}


@dataclass(frozen=True)
class DictEntry:
    lemma: str
    pos: str
    translations: tuple[str, ...]

    def __post_init__(self):
        if not self.translations:
            raise ValueError(f"entry {self.lemma!r} has no translations")
        if len(set(self.translations)) != len(self.translations):
            raise ValueError(f"entry {self.lemma!r} has duplicate translations")


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
    """Immutable after load; concurrent reads are safe."""

    def __init__(
        self,
        entries: Iterable[DictEntry] = (),
        multiword: Iterable[tuple[tuple[str, str], tuple[str, ...]]] = (),
    ):
        self._entries: dict[tuple[str, str], DictEntry] = {}
        for entry in entries:
            self._add(entry)
        self._multiword: dict[tuple[str, str], tuple[str, ...]] = {}
        for pair, translations in multiword:
            self._add_multiword(pair, translations)

    def _add(self, entry: DictEntry):
        key = (entry.lemma, entry.pos)
        existing = self._entries.get(key)
        if existing is None:
            self._entries[key] = entry
        else:
            merged = existing.translations + tuple(
                t for t in entry.translations if t not in existing.translations
            )
            self._entries[key] = DictEntry(entry.lemma, entry.pos, merged)

    def _add_multiword(self, pair: tuple[str, str], translations: tuple[str, ...]):
        existing = self._multiword.get(pair, ())
        merged = existing + tuple(t for t in translations if t not in existing)
        self._multiword[pair] = merged

    def lookup(self, lemma: str, pos: str) -> tuple[str, ...]:
        """Translations for (lemma, pos); empty tuple on a miss."""
        entry = self._entries.get((lemma, pos))
        return entry.translations if entry else ()

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


def load_dictionary(source: TextIO | str | Path) -> BilingualDictionary:
    """Load a dictionary file; duplicate (lemma, pos) entries are merged.
    A malformed line raises ``InputError`` naming the file and line."""
    dictionary = BilingualDictionary()
    for path, lineno, (lemma, pos, translation_field) in read_rows(source, 3):
        translations = []
        for t in translation_field.split("|"):
            t = t.strip()
            if t and t not in translations:
                translations.append(t)
        if not lemma or not pos or not translations:
            raise InputError(path, lineno, "empty field")
        if "_" in lemma:
            pair = _multiword_pair(lemma)
            if pair is None:
                raise InputError(
                    path, lineno, f"multiword lemma {lemma!r} does not reduce to a (head, modifier) pair"
                )
            dictionary._add_multiword(pair, tuple(t.replace("_", " ") for t in translations))
        else:
            dictionary._add(DictEntry(lemma, pos, tuple(translations)))
    return dictionary


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
