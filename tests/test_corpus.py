import io

import pytest
from hypothesis import given, strategies as st

from lexiforge.config import COARSE_TAGS, TAGSETS, InputError
from lexiforge.corpus import TaggedCorpus, TaggedToken, parse_tagged_corpus
from lexiforge.extraction import UlcPattern, extract_ulcs

SIMPLE = "appareil\tNOUN\tappareil\n"

FIXTURE = """#DOC d1
la\tDET\tle
machine\tNOUN\tmachine
tourne\tVERB\ttourner
.\tSENT\t.
un\tDET\tun
appareil\tNOUN\tappareil
de\tPREP\tde
chauffage\tNOUN\tchauffage
.\tSENT\t.
#DOC d2
appareil\tNOUN\tappareil
auditif\tADJ\tauditif
.\tSENT\t.

machine\tNOUN\tmachine
simple\tADJ\tsimple
#DOC d3
chauffage\tNOUN\tchauffage
central\tADJ\tcentral
.\tSENT\t.
"""


def test_single_token_line():
    corpus = parse_tagged_corpus(SIMPLE)
    assert corpus.sentences == ((TaggedToken("appareil", "NOUN", "appareil"),),)


def test_empty_stream_gives_empty_corpus():
    assert parse_tagged_corpus("").sentences == ()
    assert parse_tagged_corpus(io.StringIO("")).sentences == ()


def test_fixture_token_count_matches_line_count():
    # Independent counts: every line with exactly three fields is one token;
    # every SENT line ends a sentence, and so does the "#DOC d3" line after
    # "machine simple".
    lines = FIXTURE.splitlines()
    expected = sum(1 for line in lines if len(line.split("\t")) == 3)
    corpus = parse_tagged_corpus(FIXTURE)
    assert sum(len(s) for s in corpus.sentences) == expected == 17
    assert len(corpus.sentences) == sum(1 for line in lines if "\tSENT\t" in line) + 1 == 5


def test_sentence_boundaries_from_sent_and_blank_lines():
    corpus = parse_tagged_corpus(FIXTURE)
    assert [[t.surface for t in s] for s in corpus.sentences[2:]] == [
        ["appareil", "auditif", "."],  # ended by its SENT token
        ["machine", "simple"],  # ended by the "#DOC d3" line
        ["chauffage", "central", "."],
    ]


def test_malformed_line_reports_line_number():
    with pytest.raises(InputError, match="^<corpus>:2: expected 3 tab-separated fields, got 1$"):
        parse_tagged_corpus("a\tNOUN\ta\nbroken line\n")


def test_unknown_tag_reports_tag_name():
    with pytest.raises(InputError, match="XYZ"):
        parse_tagged_corpus("a\tXYZ\ta\n")


def test_empty_lemma_rejected():
    with pytest.raises(InputError, match="^<corpus>:1: empty lemma$"):
        parse_tagged_corpus("a\tNOUN\t\n")


def test_treetagger_tagset_maps_fine_tags():
    text = "la\tDET:ART\tle\nmaison\tNOM\tmaison\nest\tVER:pres\têtre\n"
    corpus = parse_tagged_corpus(text, TAGSETS["treetagger-fr"])
    tags = [t.pos for t in corpus.sentences[0]]
    assert tags == ["DET", "NOUN", "VERB"]


def test_tagset_rejects_bad_coarse_class():
    assert {c for tagset in TAGSETS.values() for c in tagset.values()} <= COARSE_TAGS
    with pytest.raises(InputError, match="^<corpus>:1: pos 'NOMINAL' not a coarse tag$"):
        parse_tagged_corpus("maison\tNOM\tmaison\n", {"NOM": "NOMINAL"})


def brute_force_count(corpus: TaggedCorpus, lemmas) -> int:
    """Contiguous, within-sentence occurrences of a lemma sequence."""
    target = list(lemmas)
    hits = 0
    for sentence in corpus.sentences:
        sent = [t.lemma for t in sentence]
        for i in range(len(sent)):
            if sent[i : i + len(target)] == target:
                hits += 1
    return hits


def unit_counts(corpus: TaggedCorpus) -> dict[tuple[str, ...], int]:
    """Each extracted unit's lemma sequence -> its corpus frequency."""
    counts = {}
    for u in extract_ulcs(corpus, 1):
        link = () if u.pattern is UlcPattern.NOUN_ADJ else ("de",)
        counts[(u.head_lemma, *link, u.modifier_lemma)] = u.corpus_freq
    return counts


def test_phrase_frequency_12x_fixture():
    lines = []
    for i in range(12):
        lines += [
            "appareil\tNOUN\tappareil",
            "de\tPREP\tde",
            "chauffage\tNOUN\tchauffage",
            ".\tSENT\t.",
        ]
    lines += ["chauffage\tNOUN\tchauffage", ".\tSENT\t."]
    corpus = parse_tagged_corpus("\n".join(lines))
    phrase = ("appareil", "de", "chauffage")
    assert unit_counts(corpus) == {phrase: 12}
    assert brute_force_count(corpus, phrase) == 12


def test_single_lemma_query_equals_word_count_oracle():
    corpus = parse_tagged_corpus(FIXTURE)
    # word-count oracle over the raw fixture text
    expected = sum(
        1
        for line in FIXTURE.splitlines()
        if len(line.split("\t")) == 3 and line.split("\t")[2] == "machine"
    )
    assert brute_force_count(corpus, ["machine"]) == expected == 2


def test_no_match_across_sentence_boundary():
    text = "appareil\tNOUN\tappareil\n.\tSENT\t.\nde\tPREP\tde\nchauffage\tNOUN\tchauffage\n"
    corpus = parse_tagged_corpus(text)
    assert brute_force_count(corpus, ["appareil", "de", "chauffage"]) == 0
    assert extract_ulcs(corpus, 1) == []


# Two nouns, an adjective and "de": enough for NOUN ADJ and NOUN de NOUN units.
WORDS = st.sampled_from(["a\tNOUN\ta", "b\tNOUN\tb", "c\tADJ\tc", "de\tPREP\tde"])


@st.composite
def small_corpora(draw):
    """Sentences ended by a blank line or a "#DOC" line."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        lines += draw(st.lists(WORDS, min_size=1, max_size=8))
        lines.append(draw(st.sampled_from(["", "#DOC d"])))
    return parse_tagged_corpus("\n".join(lines))


@given(small_corpora())
def test_frequency_matches_brute_force(corpus):
    for lemmas, freq in unit_counts(corpus).items():
        assert freq == brute_force_count(corpus, lemmas)


@given(small_corpora())
def test_extending_phrase_never_increases_count(corpus):
    # A unit extends its head lemma and its modifier lemma.
    for lemmas, freq in unit_counts(corpus).items():
        assert freq <= min(brute_force_count(corpus, [lemmas[0]]), brute_force_count(corpus, [lemmas[-1]]))


@given(small_corpora())
def test_per_sentence_counts_sum_to_corpus_count(corpus):
    per_sentence: dict[tuple[str, ...], int] = {}
    for sentence in corpus.sentences:
        for lemmas, freq in unit_counts(TaggedCorpus((sentence,))).items():
            per_sentence[lemmas] = per_sentence.get(lemmas, 0) + freq
    assert per_sentence == unit_counts(corpus)


def per_line_parse(lines, tagset):
    """Reference parse without a memo: every line is classified on its own,
    then the sentences are assembled from the classes."""
    sentences, tokens = [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            kind = "blank"
        elif line.split("\t")[0].split(" ")[0] == "#DOC":
            kind = "doc"
        else:
            kind = "token"
        if kind != "token" and tokens:
            sentences.append(tuple(tokens))
            tokens = []
        if kind == "token":
            fields = [f.strip() for f in line.split("\t")]
            if len(fields) != 3:
                raise InputError("<corpus>", lineno, f"expected 3 tab-separated fields, got {len(fields)}")
            if fields[1] not in tagset:
                raise InputError("<corpus>", lineno, f"unknown tag {fields[1]!r}")
            try:
                token = TaggedToken(fields[0], tagset[fields[1]], fields[2])
            except ValueError as exc:
                raise InputError("<corpus>", lineno, str(exc)) from None
            tokens.append(token)
            if token.pos == "SENT":
                sentences.append(tuple(tokens))
                tokens = []
    if tokens:
        sentences.append(tuple(tokens))
    return TaggedCorpus(tuple(sentences))


CORPUS_LINES = st.sampled_from(
    [
        "la\tDET\tle", "caisse\tNOUN\tcaisse", "claire\tADJ\tclair", "claire\tADJ\tclair\r",
        " de \tPRP\t de", ".\tSENT\t.", "", "  \t", "#DOC d1", "#DOC", "#DOC\td2", "#DOCX\tNOUN\tx",
        "une ligne", "x\tBOGUS\tx", "x\tNOUN\t", "a\tNOUN\tb\tc",
    ]
)


@given(st.lists(CORPUS_LINES, max_size=40))
def test_memo_parse_equals_per_line_parse(lines):
    tagset = TAGSETS["treetagger-fr"]
    stream = [line + "\n" for line in lines]
    try:
        expected = per_line_parse(stream, tagset)
    except InputError as exc:
        with pytest.raises(InputError) as raised:
            parse_tagged_corpus(stream, tagset)
        assert str(raised.value) == str(exc)
    else:
        assert parse_tagged_corpus(stream, tagset) == expected


def test_repeated_lines_share_one_token():
    corpus = parse_tagged_corpus(FIXTURE)
    machines = [tok for sent in corpus.sentences for tok in sent if tok.lemma == "machine"]
    assert len(machines) == 2 and machines[0] is machines[1]
