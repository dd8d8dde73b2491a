"""Seeded input generator for the benchmark.

The bundled 20-unit fixture (``tests/data``) routes one or two units to each
terminal state. The generator copies it ``copies`` times under renamed
lemmas, so the expected terminal state and translation of every copied unit
are known exactly, and adds what the fixture lacks:

* sharing: copies are grouped in families of ``family`` copies; head
  constituents (and everything a consistent dictionary and tagger need to
  share with them) get one name per family instead of one per copy, so
  units in a family share head tokens and head-count queries;
* deep worlds: every phrase whose lexical world decides a unit (the source
  phrase of each phase-2 or phase-3 unit and its expected translation) gets
  ``depth`` extra single-phrase documents, so worlds are built from
  hundreds of snippets;
* a skewed, shared vocabulary: filler documents draw their words from a
  Zipf(``skew``) distribution over the frequent function words of each
  language (unless ``function_words`` is off) followed by background
  words that no tagger knows;
* held-back units: a ``held_back`` share of the units whose route asks the
  oracle about their own surface is listed in ``held_back.txt``; a replay
  whose cache lacks those entries must end them ``UNRESOLVED_ORACLE``.

Renaming keeps every property the cascade looks at: stopwords and function
words are never renamed, a word's first four diacritic-folded characters
(the cognate key of phase 3) map to a fresh four-letter prefix per scope,
and words shorter than four characters stay shorter than four.

The program receives only the written files:

    corpus.tsv  dictionary.tsv  docs.jsonl  tagger_fr.tsv  tagger_en.tsv
    expected.tsv (surface, terminal state, translation)  held_back.txt

Usage: python3 perfbench/generate.py --seed 1 --out DIR [--copies 50 ...]
"""

from __future__ import annotations

import argparse
import json
import random
import re
import string
import unicodedata
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data"
PACKAGE_DATA = ROOT / "src" / "lexiforge" / "data"

WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

# Frequent function words, most frequent first; they open the Zipf ranking
# of the filler vocabulary, so query words such as "the" and "la" get long
# posting lists in the local index.
FUNCTION_WORDS = {
    "fr": ("de", "la", "le", "et", "les", "des", "en", "du", "un", "une"),
    "en": ("the", "of", "and", "a", "to", "in", "is", "for", "on", "with"),
}

FILLER_WORDS = 16  # words per filler document, so a snippet stays whole
BACKGROUND_WORDS = 2000

# Routes whose outcome is decided by lexical worlds: these get deep worlds.
DEEP_STATES = ("PHASE2", "PHASE3_COGNATE", "PHASE3_PAIR")
# Routes that query the oracle about the unit's own surface, so dropping
# those cache entries leaves the unit unresolved and touches no other unit.
HOLDABLE_STATES = ("PHASE2", "PHASE3_COGNATE", "PHASE3_PAIR", "UNTRANSLATED")

TERMINAL_STATES = (
    "DICTIONARY",
    "PHASE1",
    "PHASE2",
    "PHASE3_COGNATE",
    "PHASE3_PAIR",
    "UNTRANSLATED",
    "UNRESOLVED_ORACLE",
)


@dataclass(frozen=True)
class GenSpec:
    copies: int = 50  # units = 20 per copy
    family: int = 5  # copies sharing head constituents (1 = no sharing)
    depth: int = 0  # extra snippets per deciding phrase
    skew: float = 1.1  # Zipf exponent of the filler vocabulary
    function_words: bool = True  # filler vocabulary opens with function words
    held_back: float = 0.0  # share of units whose cache entries are dropped


def fold(word: str) -> str:
    decomposed = unicodedata.normalize("NFD", word.lower())
    return "".join(c for c in decomposed if not unicodedata.combining(c))


def group_of(word: str) -> str:
    """Renaming group: the cognate key for long words, the word otherwise."""
    folded = fold(word)
    return folded[:4] if len(folded) >= 4 else "=" + word


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def words_of(text: str) -> list[str]:
    return [w.lower() for w in WORD_RE.findall(text)]


@dataclass
class Fixture:
    corpus: list[str]
    dictionary: list[str]
    docs: list[dict]
    taggers: dict[str, list[str]]
    keep: frozenset[str]
    units: list[tuple[str, str, str]]  # (head lemma, modifier lemma, surface)
    expected: dict[str, tuple[str, str]]  # surface -> (state, translation)

    @classmethod
    def load(cls) -> "Fixture":
        keep = set(FUNCTION_WORDS["fr"] + FUNCTION_WORDS["en"])
        for lang in ("fr", "en"):
            keep.update(w.strip().lower() for w in read_lines(PACKAGE_DATA / f"stopwords_{lang}.txt"))
        units = []
        for line in read_lines(FIXTURE / "golden_ulcs.tsv"):
            head, modifier, _pattern, surface = line.split("\t")[:4]
            units.append((head, modifier, surface))
        expected = {}
        for line in read_lines(FIXTURE / "golden_lexicon.tsv"):
            surface, translation, state = line.split("\t")
            expected[surface] = (state, translation)
        return cls(
            corpus=read_lines(FIXTURE / "corpus.tsv"),
            dictionary=[l for l in read_lines(FIXTURE / "dictionary.tsv") if l and not l.startswith("#")],
            docs=[json.loads(l) for l in read_lines(FIXTURE / "docs.jsonl") if l.strip()],
            taggers={
                lang: [l for l in read_lines(PACKAGE_DATA / f"tagger_{lang}.tsv") if l and not l.startswith("#")]
                for lang in ("fr", "en")
            },
            keep=frozenset(w for w in keep if w),
            units=units,
            expected=expected,
        )

    def renamable(self, word: str) -> bool:
        return len(word) > 1 and word not in self.keep

    def shared_groups(self) -> frozenset[str]:
        """Groups named per family: unit heads, closed under what must stay
        consistent across a family, minus heads whose unit would otherwise
        have both constituents shared (copies would then collapse)."""
        heads = {head for head, _, _ in self.units}
        while True:
            groups = self._closure({group_of(h) for h in heads if self.renamable(h)})
            clash = sorted(h for h, m, _ in self.units if group_of(h) in groups and group_of(m) in groups)
            if not clash:
                return groups
            if clash[0] not in heads:
                raise ValueError(f"cannot keep the units headed by {clash[0]!r} distinct across a family")
            heads.discard(clash[0])

    def _closure(self, groups: set[str]) -> frozenset[str]:
        # A shared dictionary lemma needs shared translations; a shared
        # tagger surface needs a shared lemma.
        links = []
        for line in self.dictionary:
            lemma, _pos, translations = line.split("\t")
            if "_" not in lemma:
                links.append((lemma.lower(), words_of(translations)))
        for lines in self.taggers.values():
            for line in lines:
                surface, _pos, lemma = line.split("\t")
                links.append((surface.lower(), words_of(lemma)))
        changed = True
        while changed:
            changed = False
            for source, targets in links:
                if not self.renamable(source) or group_of(source) not in groups:
                    continue
                for word in targets:
                    if self.renamable(word) and group_of(word) not in groups:
                        groups.add(group_of(word))
                        changed = True
        return frozenset(groups)


class Renamer:
    """Consistent renaming of every renamable word, per copy or per family."""

    def __init__(self, fixture: Fixture, shared: frozenset[str], rng: random.Random):
        self._fixture = fixture
        self._shared = shared
        self._rng = rng
        self._names: dict[tuple[str, str], str] = {}
        self._used: set[str] = set()
        self._keep_prefixes = {fold(w)[:4] for w in fixture.keep}

    def _fresh(self, length: int) -> str:
        # Never starts with "z" (reserved for background words), never
        # collides with a kept word or its cognate prefix.
        while True:
            name = self._rng.choice(string.ascii_lowercase[:-1]) + "".join(
                self._rng.choice(string.ascii_lowercase) for _ in range(length - 1)
            )
            if name in self._used or name in self._fixture.keep or name in self._keep_prefixes:
                continue
            self._used.add(name)
            return name

    def word(self, word: str, copy: int, family: int) -> str:
        word = unicodedata.normalize("NFC", word.lower())
        if not self._fixture.renamable(word):
            return word
        group = group_of(word)
        scope = f"f{family}" if group in self._shared else f"c{copy}"
        key = (scope, group)
        if key not in self._names:
            self._names[key] = self._fresh(4 if not group.startswith("=") else 3)
        name = self._names[key]
        return name + word[4:] if not group.startswith("=") else name

    def text(self, text: str, copy: int, family: int) -> str:
        def sub(match: re.Match) -> str:
            renamed = self.word(match.group(0), copy, family)
            return match.group(0) if renamed == match.group(0).lower() else renamed

        return WORD_RE.sub(sub, unicodedata.normalize("NFC", text))


class Filler:
    """Zipf-distributed filler text over a shared, skewed vocabulary."""

    def __init__(self, spec: GenSpec, rng: random.Random):
        self._rng = rng
        background = set()
        while len(background) < BACKGROUND_WORDS:
            background.add("z" + "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(4, 7))))
        self._vocab = {}
        for lang, function_words in FUNCTION_WORDS.items():
            words = list(function_words if spec.function_words else ()) + sorted(background)
            weights = [1.0 / rank**spec.skew for rank in range(1, len(words) + 1)]
            self._vocab[lang] = (words, list(accumulate(weights)))

    def docs(self, lang: str, phrase: str, count: int) -> list[str]:
        words, cum_weights = self._vocab[lang]
        tokens = self._rng.choices(words, cum_weights=cum_weights, k=FILLER_WORDS * count)
        texts = []
        for i in range(0, len(tokens), FILLER_WORDS):
            doc = tokens[i : i + FILLER_WORDS]
            doc.insert(self._rng.randint(0, len(doc)), phrase)
            texts.append(" ".join(doc))
        return texts


@dataclass
class Inputs:
    corpus: list[str]
    dictionary: list[str]
    docs: list[dict]
    taggers: dict[str, list[str]]
    expected: dict[str, tuple[str, str]]
    held_back: list[str]

    def state_counts(self) -> dict[str, int]:
        counts = {state: 0 for state in TERMINAL_STATES}
        for state, _ in self.expected.values():
            counts[state] += 1
        return counts


def generate(spec: GenSpec, seed: int, fixture: Fixture | None = None) -> Inputs:
    fixture = fixture or Fixture.load()
    rng = random.Random(seed)
    renamer = Renamer(fixture, fixture.shared_groups(), rng)
    filler = Filler(spec, rng)

    corpus: list[str] = []
    dictionary: dict[str, None] = {}
    docs: list[dict] = []
    taggers: dict[str, dict[str, None]] = {lang: {} for lang in fixture.taggers}
    expected: dict[str, tuple[str, str]] = {}
    for copy in range(spec.copies):
        family = copy // max(1, spec.family)

        def rn(text: str) -> str:
            return renamer.text(text, copy, family)

        for line in fixture.corpus:
            if line.startswith("#DOC"):
                corpus.append(f"#DOC c{copy}-{line[4:].strip()}")
            elif line.strip():
                surface, pos, lemma = line.split("\t")
                corpus.append(f"{rn(surface)}\t{pos}\t{rn(lemma)}")
            else:
                corpus.append(line)
        for line in fixture.dictionary:
            lemma, pos, translations = line.split("\t")
            dictionary[f"{rn(lemma)}\t{pos}\t{rn(translations)}"] = None
        for lang, lines in fixture.taggers.items():
            for line in lines:
                surface, pos, lemma = line.split("\t")
                taggers[lang][f"{rn(surface)}\t{pos}\t{rn(lemma)}"] = None
        for doc in fixture.docs:
            docs.append({"id": f"c{copy}-{doc['id']}", "lang": doc["lang"], "text": rn(doc["text"])})
        for surface, (state, translation) in fixture.expected.items():
            source, target = rn(surface), rn(translation)
            expected[source] = (state, target)
            if state in DEEP_STATES:
                for lang, phrase in (("fr", source), ("en", target)):
                    for text in filler.docs(lang, phrase, spec.depth):
                        docs.append({"id": f"c{copy}-deep-{len(docs)}", "lang": lang, "text": text})
    rng.shuffle(docs)

    holdable = sorted(s for s, (state, _) in expected.items() if state in HOLDABLE_STATES)
    held_back = sorted(rng.sample(holdable, round(spec.held_back * len(expected))))
    for surface in held_back:
        expected[surface] = ("UNRESOLVED_ORACLE", "")
    return Inputs(
        corpus=corpus,
        dictionary=list(dictionary),
        docs=docs,
        taggers={lang: list(lines) for lang, lines in taggers.items()},
        expected=expected,
        held_back=held_back,
    )


def write_inputs(inputs: Inputs, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "corpus.tsv").write_text("\n".join(inputs.corpus) + "\n", encoding="utf-8")
    (out / "dictionary.tsv").write_text("\n".join(inputs.dictionary) + "\n", encoding="utf-8")
    with open(out / "docs.jsonl", "w", encoding="utf-8") as fh:
        for doc in inputs.docs:
            fh.write(json.dumps(doc, ensure_ascii=False) + "\n")
    for lang, lines in inputs.taggers.items():
        (out / f"tagger_{lang}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(out / "expected.tsv", "w", encoding="utf-8") as fh:
        for surface in sorted(inputs.expected):
            state, translation = inputs.expected[surface]
            fh.write(f"{surface}\t{state}\t{translation}\n")
    (out / "held_back.txt").write_text("".join(s + "\n" for s in inputs.held_back), encoding="utf-8")


def read_expected(path: Path) -> dict[str, tuple[str, str]]:
    expected = {}
    for line in read_lines(path):
        surface, state, translation = line.split("\t")
        expected[surface] = (state, translation)
    return expected


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    for name, value in asdict(GenSpec()).items():
        kind = (lambda text: text.lower() in ("1", "true", "yes")) if isinstance(value, bool) else type(value)
        parser.add_argument(f"--{name.replace('_', '-')}", type=kind, default=value)
    args = parser.parse_args(argv)
    spec = GenSpec(**{name: getattr(args, name) for name in asdict(GenSpec())})
    inputs = generate(spec, args.seed)
    write_inputs(inputs, args.out)
    print(json.dumps({"units": len(inputs.expected), "docs": len(inputs.docs), "states": inputs.state_counts()}))


if __name__ == "__main__":
    main()
