import io
import re
import sys
import threading
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import lexiforge.tagging as tagging
from lexiforge.backends import tokenize
from lexiforge.config import InputError
from lexiforge.tagging import LexiconTagger, default_tagger, load_stopwords

from conftest import refusing_saved_files


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


# Duplicate surfaces, of mixed case, in which the last row wins; lemmas
# equal to their surface and lemmas that only lowercase to it.
PINNED_ROWS = (
    "Caisse\tNOUN\tcaisse\ncaisse\tADJ\tCaisse\nCAISSES\tNOUN\tcaisse\n"
    "Étude\tNOUN\tÉtude\nétude\tNOUN\tétude\nMusicale\tADJ\tMusical\nΟΔΟΣ\tNOUN\tοδος\n"
)


def test_table_crc_is_pinned():
    # Saved world counts are keyed on table_crc: a change to the table that
    # moved it would make every saved count unreachable.
    assert default_tagger("fr").table_crc == 635405100
    assert default_tagger("en").table_crc == 1466190223
    tagger = LexiconTagger.from_file(io.StringIO(PINNED_ROWS))
    assert tagger.table_crc == 4286498446
    assert tagger.tag("CAISSE caisses Étude musicale") == [
        ("caisse", "ADJ"), ("caisse", "NOUN"), ("étude", "NOUN"), ("musical", "ADJ"),
    ]


def test_table_entries_share_their_strings():
    entries = [("Caisse", "NOUN", "caisse"), ("Étude", "NOUN", "ÉTUDE"), ("musicale", "ADJ", "musical")]
    table = LexiconTagger(entries)._table
    assert [lemma is key for key, (lemma, _) in table.items()] == [True, True, False]
    assert all(pos is sys.intern(pos) for _, pos in table.values())


def lexicon_file(tmp_path, text=PINNED_ROWS):
    path = tmp_path / "lexicon.tsv"
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return path


def assert_same_tagger(tagger, parsed):
    assert tagger._table == parsed._table and len(tagger) == len(parsed)
    assert tagger.table_crc == parsed.table_crc
    text = "CAISSE caisses Étude musicale inconnue ΟΔΟΣ"
    assert tagger.tag(text) == parsed.tag(text) and tagger.count([text]) == parsed.count([text])


def test_a_lexicon_file_loads_the_parse_saved_beside_it(tmp_path, monkeypatch):
    path = lexicon_file(tmp_path)
    parsed = LexiconTagger.from_file(io.StringIO(PINNED_ROWS))
    first = LexiconTagger.from_file(path)
    assert Path(f"{path}.parsed").is_file()
    monkeypatch.setattr(tagging, "read_rows", lambda *args: pytest.fail("parsed again"))
    loaded = LexiconTagger.from_file(path)
    for tagger in (first, loaded):
        assert_same_tagger(tagger, parsed)
        assert tagger.table_crc == 4286498446  # as pinned: saved world counts still match
    # A loaded table shares its strings as a parsed one does.
    def shared(tagger):
        return [lemma is key for key, (lemma, _) in tagger._table.items()]

    assert shared(loaded) == shared(parsed) and any(shared(parsed))
    assert all(pos is sys.intern(pos) for _, pos in loaded._table.values())
    # A surface listed twice keeps the first row's key, which a later row's
    # equal lemma shares too.
    for tagger in (parsed, first, loaded):
        assert [key for key, (lemma, _) in tagger._table.items() if lemma == key] == ["caisse", "étude", "οδος"]
        assert all(lemma is key for key, (lemma, _) in tagger._table.items() if lemma == key)


def test_an_edit_that_keeps_the_file_size_is_parsed_again(tmp_path):
    path = lexicon_file(tmp_path)
    LexiconTagger.from_file(path)
    saved = Path(f"{path}.parsed").read_bytes()
    edited = PINNED_ROWS.replace("Musicale\tADJ\tMusical", "Musicale\tADJ\tMusicam")
    path.write_text(edited, encoding="utf-8")
    tagger = LexiconTagger.from_file(path)
    assert tagger.tag("musicale") == [("musicam", "ADJ")]
    assert_same_tagger(tagger, LexiconTagger.from_file(io.StringIO(edited)))
    assert Path(f"{path}.parsed").read_bytes() != saved
    assert_same_tagger(LexiconTagger.from_file(path), tagger)


@pytest.mark.parametrize("damage", ["torn", "corrupt", "empty"])
def test_a_damaged_saved_parse_is_ignored_and_rewritten(tmp_path, damage):
    path = lexicon_file(tmp_path)
    LexiconTagger.from_file(path)
    saved = Path(f"{path}.parsed")
    good = saved.read_bytes()
    saved.write_bytes({"torn": good[: len(good) // 2], "corrupt": good[:-1] + bytes([good[-1] ^ 1]), "empty": b""}[damage])
    assert_same_tagger(LexiconTagger.from_file(path), LexiconTagger.from_file(io.StringIO(PINNED_ROWS)))
    assert saved.read_bytes() == good


@pytest.mark.parametrize("text, message", [
    (b"caisse\tNOUN\tcaisse\nonly two\tfields\n", "2: expected 3 tab-separated fields, got 2"),
    (b"caisse\tNOUN\tcaisse\n\xff\tNOUN\tx\n", "2: not valid UTF-8"),
])
def test_a_malformed_lexicon_file_raises_its_line_and_saves_no_parse(tmp_path, text, message):
    path = lexicon_file(tmp_path, text)
    with pytest.raises(InputError, match=re.escape(f"{path}:{message}")):
        LexiconTagger.from_file(path)
    assert not Path(f"{path}.parsed").exists()
    # Nor does a parse saved from the file before it went bad stand in for it.
    path.write_text(PINNED_ROWS, encoding="utf-8")
    LexiconTagger.from_file(path)
    path.write_bytes(text)
    with pytest.raises(InputError, match=re.escape(f"{path}:{message}")):
        LexiconTagger.from_file(str(path))


@pytest.mark.parametrize("refused", ["create", "replace"])
def test_no_parse_is_saved_from_a_refusing_directory_a_stream_or_the_shipped_lexicons(tmp_path, monkeypatch, refused):
    path = lexicon_file(tmp_path)
    with refusing_saved_files(monkeypatch, tmp_path, refused):
        assert LexiconTagger.from_file(path).table_crc == 4286498446
    assert list(tmp_path.iterdir()) == [path]
    with open(path, encoding="utf-8") as fh:
        assert LexiconTagger.from_file(fh).table_crc == 4286498446
    assert list(tmp_path.iterdir()) == [path]
    shipped = resources.files("lexiforge.data")
    before = sorted(entry.name for entry in shipped.iterdir())
    default_tagger("fr"), default_tagger("en")
    assert sorted(entry.name for entry in shipped.iterdir()) == before
    assert not any(name.endswith(".parsed") for name in before)


def test_stopword_lists_load():
    fr = load_stopwords("fr")
    en = load_stopwords("en")
    assert {"le", "de", "et"} <= fr
    assert {"the", "of", "and"} <= en
    assert "fund" not in en
