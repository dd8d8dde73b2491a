import io
import sys
import threading
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from lexiforge.backends import tokenize
from lexiforge.tagging import LexiconTagger, default_tagger, load_stopwords


def test_tokenize_splits_on_punctuation_and_digits():
    assert tokenize("L'acide nucléique, en 2008!") == ["l", "acide", "nucléique", "en"]


def test_lexicon_tagger_lemmatizes_and_defaults_to_other():
    tagger = LexiconTagger([("musicale", "ADJ", "musical"), ("ambiance", "NOUN", "ambiance")])
    assert tagger.tag("Ambiance musicale inconnue") == [
        ("ambiance", "NOUN"),
        ("musical", "ADJ"),
        ("inconnue", "OTHER"),
    ]


COUNT_ENTRIES = [
    ("ambiance", "NOUN", "ambiance"),
    ("musicale", "ADJ", "musical"),
    ("musical", "ADJ", "musical"),
    ("istanbul", "NOUN", "istanbul"),
    ("abc", "NOUN", "abc"),
]


def reference_count(tagger, texts):
    """The contract of ``count``: the NOUN and ADJ pairs of ``tag`` over every text."""
    return Counter(
        pair for text in texts for pair in tagger.tag(text) if pair[1] in ("NOUN", "ADJ")
    )


@given(st.lists(st.text(), max_size=6))
@example(["ambiance\u00a0musicale", "Ambiance\x1cmusical\u2028AMBIANCE"])
@example(["İstanbul istanbul İSTANBUL", "ab3c abc a_bc abc9", "x\u00a0"])
@example(["MuSiCaLe", "musicale", "musicale musicale"])
@example(["", " ", "\t\n", "ambiance", "ambiance"])
def test_count_equals_counter_over_tag(texts):
    tagger = LexiconTagger(COUNT_ENTRIES)
    # Twice: the second call reads every chunk from the memo.
    assert tagger.count(texts) == reference_count(tagger, texts)
    assert tagger.count(texts) == reference_count(tagger, texts)


def test_count_sums_over_texts():
    tagger = LexiconTagger([("musicale", "ADJ", "musical"), ("ambiance", "NOUN", "ambiance")])
    assert tagger.count(["musicale inconnue", "ambiance"]) == {
        ("musical", "ADJ"): 1,
        ("ambiance", "NOUN"): 1,
    }
    assert tagger.count(["musicale, musicale", "l'ambiance inconnue"]) == {
        ("musical", "ADJ"): 2,
        ("ambiance", "NOUN"): 1,
    }
    # Unknown and function words are tagged but never counted.
    assert tagger.tag("inconnue l") == [("inconnue", "OTHER"), ("l", "OTHER")]
    assert tagger.count(["inconnue inconnue l'inconnue, l"]) == {}
    assert all(pos != "OTHER" for _, pos in tagger.count(["l'ambiance inconnue musicale"]))


def test_count_is_exact_with_concurrent_callers():
    # Pipeline workers share one tagger and its memo; an unlucky race may
    # tag a chunk twice but must never change a total. Every round starts
    # the threads together on a cold memo full of multi-token chunks, and
    # of chunks with no noun or adjective, which are only marked seen. The
    # workers count one text per call, so many calls start while another
    # worker is storing the same chunk: one that marked it seen before
    # storing its tags would make them miss it.
    letters = "abcdefghijklmnopqrstuvwxyz"
    texts = [f"ambiance-{a}{b}-musicale-{b}{a}-abc {a}{b}x" for a in letters for b in letters]
    reference = LexiconTagger(COUNT_ENTRIES)
    expected = [reference_count(reference, [text]) for text in texts]
    results, rounds = [], 50

    def work(tagger, barrier):
        barrier.wait(timeout=10)
        results.append([tagger.count([text]) for text in texts])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            tagger, barrier = LexiconTagger(COUNT_ENTRIES), threading.Barrier(4)
            threads = [threading.Thread(target=work, args=(tagger, barrier)) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4 * rounds
    assert all(result == expected for result in results)


def test_lexicon_tagger_from_file_rejects_bad_lines():
    with pytest.raises(ValueError):
        LexiconTagger.from_file(io.StringIO("only two\tfields\n"))


def test_default_taggers_load_and_cover_core_vocabulary():
    fr = default_tagger("fr")
    en = default_tagger("en")
    assert ("caisse", "NOUN") in fr.tag("la caisse")
    assert ("clair", "ADJ") in fr.tag("claire")
    assert ("fund", "NOUN") in en.tag("the fund")
    assert len(fr) > 100 and len(en) > 100


def test_stopword_lists_load():
    fr = load_stopwords("fr")
    en = load_stopwords("en")
    assert {"le", "de", "et"} <= fr
    assert {"the", "of", "and"} <= en
    assert "fund" not in en
