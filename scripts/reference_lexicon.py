#!/usr/bin/env python3
"""Independent reference implementation producing the golden lexicon.

Recomputes the expected end-to-end output for the fixtures in tests/data/
from first principles: plain loops and dict arithmetic over the corpus,
dictionary, recorded response cache and the packaged tagger/stopword data
files. It deliberately imports nothing from the package under test, so the
acceptance suite can compare the pipeline's lexicon against a second,
unrelated code path.

Writes tests/data/golden_ulcs.tsv with the units the web filter keeps, and
tests/data/golden_lexicon.tsv with source<TAB>translation<TAB>phase.
"""

import json
import re
import unicodedata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
PKG_DATA = ROOT / "src" / "lexiforge" / "data"

WORD = re.compile(r"[^\W\d_]+", re.UNICODE)

ARTICLES = ["le", "la", "l'", "les", "un", "une"]
RULE_PRIORITY = {"N2_N1": 0, "N1_OF_N2": 1, "ADJ_N": 2}


def tokenize(text):
    return [m.group(0).lower() for m in WORD.finditer(text)]


def normalize(token):
    decomposed = unicodedata.normalize("NFD", token.lower())
    return "".join(c for c in decomposed if not unicodedata.combining(c))


# ---------------------------------------------------------------- inputs


def read_config(path):
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#") and "=" in line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def read_corpus_sentences(path):
    sentences = []
    current = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#DOC"):
            if current:
                sentences.append(current)
                current = []
            continue
        surface, pos, lemma = line.split("\t")
        current.append((surface, pos, lemma))
        if pos == "SENT":
            sentences.append(current)
            current = []
    if current:
        sentences.append(current)
    return sentences


def read_dictionary(path):
    single = {}
    multi = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        lemma, pos, translations = line.split("\t")
        items = [t for t in translations.split("|") if t]
        if "_" in lemma:
            parts = [p for p in lemma.split("_") if p not in ("de", "d'", "d’")]
            multi[tuple(parts)] = [t.replace("_", " ") for t in items]
        else:
            single[(lemma, pos)] = items
    return single, multi


def read_cache(path):
    cache = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        kind, p1, p2, lang, limit, payload = line.split("\t")
        phrases = (p1,) if not p2 else (p1, p2)
        cache[(kind, phrases, lang, limit)] = json.loads(payload)
    return cache


def read_tagger(path):
    table = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        surface, pos, lemma = line.split("\t")
        table[surface.lower()] = (pos, lemma.lower())
    return table


def read_stopwords(path):
    return {w.strip().lower() for w in path.read_text(encoding="utf-8").splitlines() if w.strip()}


# ---------------------------------------------------------------- oracle lookups


class Cache:
    def __init__(self, table):
        self.table = table

    def count(self, query):
        return self.table[("PHRASE_COUNT", (query,), "-", "-")]

    def pair(self, a, b):
        return self.table[("PAIR_COUNT", tuple(sorted((a, b))), "-", "-")]

    def snippets(self, phrase, limit=1000):
        return self.table[("SNIPPETS", (phrase,), "-", str(limit))]

    def mixed(self, phrase, lang, limit=1000):
        return self.table[("MIXED_SNIPPETS", (phrase,), lang, str(limit))]


# ---------------------------------------------------------------- extraction


def extract_units(sentences, min_freq):
    counts = {}
    surfaces = {}
    for sentence in sentences:
        for i, (surface, pos, lemma) in enumerate(sentence):
            if pos != "NOUN":
                continue
            if i + 1 < len(sentence) and sentence[i + 1][1] == "ADJ":
                key = (lemma, sentence[i + 1][2], "NOUN_ADJ")
                text = f"{surface.lower()} {sentence[i + 1][0].lower()}"
            elif (
                i + 2 < len(sentence)
                and sentence[i + 1][1] == "PREP"
                and sentence[i + 2][1] == "NOUN"
                and sentence[i + 1][0].lower() in ("de", "d'", "d’")
            ):
                link = sentence[i + 1][0].lower()
                pattern = "NOUN_DE_NOUN" if link == "de" else "NOUN_D_NOUN"
                key = (lemma, sentence[i + 2][2], pattern)
                joiner = " de " if link == "de" else " d'"
                text = f"{surface.lower()}{joiner}{sentence[i + 2][0].lower()}"
            else:
                continue
            counts[key] = counts.get(key, 0) + 1
            surfaces.setdefault(key, {})
            surfaces[key][text] = surfaces[key].get(text, 0) + 1

    units = []
    for key, freq in counts.items():
        if freq < min_freq:
            continue
        variants = surfaces[key]
        best = min(variants, key=lambda s: (-variants[s], s))
        units.append({"head": key[0], "mod": key[1], "pattern": key[2],
                      "surface": best, "freq": freq})
    units.sort(key=lambda u: (-u["freq"], u["surface"], u["pattern"]))
    return units


def article_query(surface):
    parts = []
    for article in ARTICLES:
        phrase = article + surface if article.endswith("'") else f"{article} {surface}"
        parts.append(f'"{phrase}"')
    return " OR ".join(parts)


def web_filter(units, cache, literal_min, article_min):
    kept = []
    for unit in units:
        literal = cache.count(unit["surface"])
        article = cache.count(article_query(unit["surface"]))
        if literal >= literal_min and article >= article_min:
            unit["literal"] = literal
            unit["article"] = article
            kept.append(unit)
    return kept


# ---------------------------------------------------------------- translation


def lookup(single, lemma, pos):
    return single.get((lemma, pos), [])


def modifier_pos(pattern):
    return "ADJ" if pattern == "NOUN_ADJ" else "NOUN"


def generate(unit, single):
    heads = lookup(single, unit["head"], "NOUN")
    mods = lookup(single, unit["mod"], modifier_pos(unit["pattern"]))
    rules = ["ADJ_N"] if unit["pattern"] == "NOUN_ADJ" else ["N1_OF_N2", "N2_N1"]
    out = []
    seen = set()
    for h in heads:
        for m in mods:
            for rule in rules:
                h_l, m_l = h.lower(), m.lower()
                text = f"{h_l} of {m_l}" if rule == "N1_OF_N2" else f"{m_l} {h_l}"
                if text not in seen:
                    seen.add(text)
                    out.append({"surface": text, "rule": rule, "head_target": h_l})
    return out


def phase1(candidates, cache):
    accepted = []
    for cand in candidates:
        query = f'"the {cand["surface"]}" OR "a {cand["surface"]}"'
        count = cache.count(query)
        head_count = cache.count(cand["head_target"])
        if count > 0 and count * 10_000 >= head_count:
            accepted.append((cand, count))
    if not accepted:
        return None
    accepted.sort(key=lambda it: (-it[1], RULE_PRIORITY[it[0]["rule"]], it[0]["surface"]))
    return accepted[0][0]["surface"]


def build_world(phrase, cache, tagger, stopwords, snippets):
    excluded = set()
    for token in tokenize(phrase):
        _, lemma = tagger.get(token, ("OTHER", token))
        excluded.add(lemma)
        excluded.add(token)
    nouns = {}
    adjs = {}
    for text in snippets:
        for token in tokenize(text):
            pos, lemma = tagger.get(token, ("OTHER", token))
            if lemma in stopwords or lemma in excluded:
                continue
            if pos == "NOUN":
                nouns[lemma] = nouns.get(lemma, 0) + 1
            elif pos == "ADJ":
                adjs[lemma] = adjs.get(lemma, 0) + 1

    def top(freqs):
        return [l for l, _ in sorted(freqs.items(), key=lambda kv: (-kv[1], kv[0]))[:50]]

    return top(nouns), top(adjs)


def jaccard(src, tgt, single, pos):
    tgt_set = {t.lower() for t in tgt}
    pairs = []
    for lemma in src:
        for translation in lookup(single, lemma, pos):
            if translation.lower() in tgt_set:
                pairs.append((lemma, translation.lower()))
                break
    inter = len(pairs)
    union = len(src) + len(tgt) - len({t for _, t in pairs})
    return inter / union if union else 0.0


def phase2(unit, candidates, cache, single, fr_tagger, en_tagger, fr_stops, en_stops):
    survivors = []
    for cand in candidates:
        if cache.pair(unit["surface"], cand["surface"]) >= 1:
            survivors.append(cand)
    scored = []
    if survivors:
        src_world = None
        for cand in survivors:
            count = cache.count(cand["surface"])
            if count < unit["literal"]:
                continue
            if src_world is None:
                src_world = build_world(
                    unit["surface"], cache, fr_tagger, fr_stops,
                    cache.snippets(unit["surface"]),
                )
            tgt_world = build_world(
                cand["surface"], cache, en_tagger, en_stops, cache.snippets(cand["surface"])
            )
            noun_j = jaccard(src_world[0], tgt_world[0], single, "NOUN")
            adj_j = jaccard(src_world[1], tgt_world[1], single, "ADJ")
            if noun_j >= 0.05 and adj_j >= 0.05:
                scored.append((cand["surface"], (noun_j + adj_j) / 2, count))
    if not scored:
        return None
    scored.sort(key=lambda it: (-it[1], -it[2], it[0]))
    return scored[0][0]


def mine_bigrams(snippets, excluded_tokens):
    counts = {}
    for text in snippets:
        tokens = tokenize(text)
        for a, b in zip(tokens, tokens[1:]):
            if a in excluded_tokens or b in excluded_tokens:
                continue
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def phase3(unit, cache, single, fr_tagger, en_tagger, fr_stops, en_stops):
    try:
        snippets = cache.mixed(unit["surface"], "en")
    except KeyError:
        snippets = []
    if not snippets:
        return None, None

    excluded = fr_stops | set(tokenize(unit["surface"]))
    bigrams = mine_bigrams(snippets, excluded)

    prefixes = set()
    for constituent in (unit["head"], unit["mod"]):
        norm = normalize(constituent)
        if len(norm) >= 4:
            prefixes.add(norm[:4])
    cognates = []
    for bigram, count in sorted(bigrams.items(), key=lambda kv: (-kv[1], kv[0])):
        if any(normalize(t)[:4] in prefixes and len(normalize(t)) >= 4 for t in bigram):
            cognates.append({"surface": " ".join(bigram)})
    if cognates:
        winner = phase2(unit, cognates, cache, single, fr_tagger, en_tagger, fr_stops, en_stops)
        if winner:
            return winner, "PHASE3_COGNATE"

    pairs = [
        {"surface": " ".join(bigram)}
        for bigram, count in sorted(bigrams.items(), key=lambda kv: (-kv[1], kv[0]))
        if count >= 2
    ][:10]
    if pairs:
        winner = phase2(unit, pairs, cache, single, fr_tagger, en_tagger, fr_stops, en_stops)
        if winner:
            return winner, "PHASE3_PAIR"
    return None, None


def main():
    config = read_config(DATA / "run.config")
    corpus_min = int(config.get("extract.corpus_freq_min", 10))
    literal_min = int(config.get("extract.literal_freq_min", 10_000))
    article_min = int(config.get("extract.article_freq_min", 1_000))

    sentences = read_corpus_sentences(DATA / "corpus.tsv")
    single, multi = read_dictionary(DATA / "dictionary.tsv")
    cache = Cache(read_cache(DATA / "e2e.cache"))
    fr_tagger = read_tagger(PKG_DATA / "tagger_fr.tsv")
    en_tagger = read_tagger(PKG_DATA / "tagger_en.tsv")
    fr_stops = read_stopwords(PKG_DATA / "stopwords_fr.txt")
    en_stops = read_stopwords(PKG_DATA / "stopwords_en.txt")

    units = web_filter(extract_units(sentences, corpus_min), cache, literal_min, article_min)

    golden_units = DATA / "golden_ulcs.tsv"
    golden_units.write_text(
        "".join(
            f"{u['head']}\t{u['mod']}\t{u['pattern']}\t{u['surface']}\t{u['freq']}\t"
            f"{u['literal']}\t{u['article']}\n"
            for u in units
        ),
        encoding="utf-8",
    )

    rows = []
    for unit in units:
        stored = multi.get((unit["head"], unit["mod"]))
        if stored:
            rows.append((unit["surface"], stored[0], "DICTIONARY"))
            continue

        heads = lookup(single, unit["head"], "NOUN")
        mods = lookup(single, unit["mod"], modifier_pos(unit["pattern"]))
        translation = None
        phase = None
        if heads and mods:
            candidates = generate(unit, single)
            if len(heads) == 1 and len(mods) == 1:
                translation = phase1(candidates, cache)
                if translation:
                    phase = "PHASE1"
            if translation is None:
                translation = phase2(
                    unit, candidates, cache, single, fr_tagger, en_tagger, fr_stops, en_stops
                )
                if translation:
                    phase = "PHASE2"
        if translation is None:
            translation, phase = phase3(
                unit, cache, single, fr_tagger, en_tagger, fr_stops, en_stops
            )
        if translation is None:
            rows.append((unit["surface"], "", "UNTRANSLATED"))
        else:
            rows.append((unit["surface"], translation, phase))

    rows.sort(key=lambda r: r[0])
    out = DATA / "golden_lexicon.tsv"
    out.write_text("".join(f"{s}\t{t}\t{p}\n" for s, t, p in rows), encoding="utf-8")
    for row in rows:
        print("\t".join(row))
    print(f"\n{len(rows)} rows -> {out}")


if __name__ == "__main__":
    main()
