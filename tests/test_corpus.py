import io
import random

import pytest
from hypothesis import given, strategies as st

from lexiforge.config import InputError
from lexiforge.corpus import (
    TaggedCorpus,
    TaggedToken,
    Tagset,
    parse_tagged_corpus,
    phrase_frequency,
)

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
    assert len(corpus.documents) == 1
    ((sentence,),) = [doc.sentences for doc in corpus.documents]
    assert sentence == (TaggedToken("appareil", "NOUN", "appareil"),)


def test_empty_stream_gives_empty_corpus():
    assert parse_tagged_corpus("").documents == ()
    assert parse_tagged_corpus(io.StringIO("")).documents == ()


def test_fixture_token_count_matches_line_count():
    # Independent count: every line with exactly three fields is one token.
    expected = sum(1 for line in FIXTURE.splitlines() if len(line.split("\t")) == 3)
    corpus = parse_tagged_corpus(FIXTURE)
    assert sum(len(s) for s in corpus.iter_sentences()) == expected == 17
    assert len(corpus.documents) == 3


def test_sentence_boundaries_from_sent_and_blank_lines():
    corpus = parse_tagged_corpus(FIXTURE)
    doc2 = corpus.documents[1]
    assert len(doc2.sentences) == 2
    assert [t.surface for t in doc2.sentences[1]] == ["machine", "simple"]


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
    corpus = parse_tagged_corpus(text, Tagset.treetagger_french())
    tags = [t.pos for t in next(corpus.iter_sentences())]
    assert tags == ["DET", "NOUN", "VERB"]


def test_tagset_rejects_bad_coarse_class():
    with pytest.raises(ValueError):
        Tagset({"NOM": "NOMINAL"})


def test_phrase_frequency_absent_sequence_is_zero():
    corpus = parse_tagged_corpus(FIXTURE)
    assert phrase_frequency(corpus, ["granite", "de", "lune"]) == 0


def test_phrase_frequency_requires_nonempty_sequence():
    with pytest.raises(ValueError):
        phrase_frequency(parse_tagged_corpus(FIXTURE), [])


def brute_force_count(corpus: TaggedCorpus, lemmas) -> int:
    target = list(lemmas)
    hits = 0
    for sentence in corpus.iter_sentences():
        sent = [t.lemma for t in sentence]
        for i in range(len(sent)):
            if sent[i : i + len(target)] == target:
                hits += 1
    return hits


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
    assert phrase_frequency(corpus, ["appareil", "de", "chauffage"]) == 12
    assert phrase_frequency(corpus, ["appareil", "de", "chauffage"]) == brute_force_count(
        corpus, ["appareil", "de", "chauffage"]
    )


def test_single_lemma_query_equals_word_count_oracle():
    corpus = parse_tagged_corpus(FIXTURE)
    # word-count oracle over the raw fixture text
    expected = sum(
        1
        for line in FIXTURE.splitlines()
        if len(line.split("\t")) == 3 and line.split("\t")[2] == "machine"
    )
    assert phrase_frequency(corpus, ["machine"]) == expected == 2


def test_no_match_across_sentence_boundary():
    text = "appareil\tNOUN\tappareil\n.\tSENT\t.\nde\tPREP\tde\nchauffage\tNOUN\tchauffage\n"
    corpus = parse_tagged_corpus(text)
    assert phrase_frequency(corpus, ["appareil", "de", "chauffage"]) == 0


LEMMAS = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def small_corpora(draw):
    n_sentences = draw(st.integers(1, 6))
    sentences = []
    for _ in range(n_sentences):
        length = draw(st.integers(1, 8))
        sentences.append([draw(LEMMAS) for _ in range(length)])
    text = "\n\n".join("\n".join(f"{w}\tNOUN\t{w}" for w in s) for s in sentences)
    return parse_tagged_corpus(text)


@given(small_corpora(), st.lists(LEMMAS, min_size=1, max_size=3))
def test_frequency_matches_brute_force(corpus, phrase):
    assert phrase_frequency(corpus, phrase) == brute_force_count(corpus, phrase)


@given(small_corpora(), st.lists(LEMMAS, min_size=1, max_size=2), LEMMAS)
def test_extending_phrase_never_increases_count(corpus, phrase, extra):
    assert phrase_frequency(corpus, phrase + [extra]) <= phrase_frequency(corpus, phrase)


@given(small_corpora(), st.lists(LEMMAS, min_size=1, max_size=3))
def test_per_sentence_counts_sum_to_corpus_count(corpus, phrase):
    per_sentence = 0
    for sentence in corpus.iter_sentences():
        single = TaggedCorpus(
            (type(corpus.documents[0])("x", (sentence,)),)
        )
        per_sentence += phrase_frequency(single, phrase)
    assert per_sentence == phrase_frequency(corpus, phrase)


def per_line_parse(lines, tagset):
    """Reference parse without a memo: every line is classified on its own,
    then the documents are assembled from the classes."""
    from lexiforge.corpus import Document

    documents, sentences, tokens = [], [], []
    doc_id = None
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
        if kind == "doc":
            if doc_id is not None or sentences:
                documents.append(Document(doc_id if doc_id is not None else "0", tuple(sentences)))
            sentences = []
            doc_id = line[4:].strip() or str(len(documents))
        elif kind == "token":
            fields = [f.strip() for f in line.split("\t")]
            if len(fields) != 3:
                raise InputError("<corpus>", lineno, f"expected 3 tab-separated fields, got {len(fields)}")
            if fields[1] not in tagset.mapping:
                raise InputError("<corpus>", lineno, f"unknown tag {fields[1]!r}")
            try:
                token = TaggedToken(fields[0], tagset.mapping[fields[1]], fields[2])
            except ValueError as exc:
                raise InputError("<corpus>", lineno, str(exc)) from None
            tokens.append(token)
            if token.pos == "SENT":
                sentences.append(tuple(tokens))
                tokens = []
    if tokens:
        sentences.append(tuple(tokens))
    if doc_id is not None or sentences:
        documents.append(Document(doc_id if doc_id is not None else "0", tuple(sentences)))
    return TaggedCorpus(tuple(documents))


CORPUS_LINES = st.sampled_from(
    [
        "la\tDET\tle", "caisse\tNOUN\tcaisse", "claire\tADJ\tclair", "claire\tADJ\tclair\r",
        " de \tPRP\t de", ".\tSENT\t.", "", "  \t", "#DOC d1", "#DOC", "#DOC\td2", "#DOCX\tNOUN\tx",
        "une ligne", "x\tBOGUS\tx", "x\tNOUN\t", "a\tNOUN\tb\tc",
    ]
)


@given(st.lists(CORPUS_LINES, max_size=40))
def test_memo_parse_equals_per_line_parse(lines):
    tagset = Tagset.treetagger_french()
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
    machines = [tok for sent in corpus.iter_sentences() for tok in sent if tok.lemma == "machine"]
    assert len(machines) == 2 and machines[0] is machines[1]
