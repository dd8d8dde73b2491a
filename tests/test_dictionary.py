import io
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import lexiforge.dictionary as dictionary_module
from lexiforge.config import InputError
from lexiforge.dictionary import (
    BilingualDictionary,
    Route,
    load_dictionary,
    route_ulc,
)
from lexiforge.extraction import UlcPattern

from conftest import make_dictionary, make_ulc, refusing_saved_files

SAMPLE_FILE = """\
ambiance\tNOUN\tatmosphere
musical\tADJ\tmusical
caisse\tNOUN\tdrum|fund|case
clair\tADJ\tclear|light
appareil\tNOUN\tdevice|camera
caisse_clair\tNOUN\tsnare drum
pomme_de_terre\tNOUN\tpotato
"""


def test_single_translation_entry():
    d = load_dictionary(io.StringIO("ambiance\tNOUN\tatmosphere\n"))
    assert d.lookup("ambiance", "NOUN") == ("atmosphere",)


def test_multi_translation_entry():
    d = load_dictionary(io.StringIO(SAMPLE_FILE))
    assert d.lookup("caisse", "NOUN") == ("drum", "fund", "case")


def test_empty_file_every_lookup_misses():
    d = load_dictionary(io.StringIO(""))
    assert len(d) == 0
    assert d.lookup("anything", "NOUN") == ()


def test_duplicate_entries_merge_with_union():
    text = "caisse\tNOUN\tdrum|fund\ncaisse\tNOUN\tfund|case\n"
    d = load_dictionary(io.StringIO(text))
    assert d.lookup("caisse", "NOUN") == ("drum", "fund", "case")


def test_malformed_line_reports_number():
    with pytest.raises(InputError, match=":2: "):
        load_dictionary(io.StringIO("a\tNOUN\tx\nbad line\n"))


def test_multiword_entries_kept_separately():
    d = load_dictionary(io.StringIO(SAMPLE_FILE))
    assert d.multiword_lookup("caisse", "clair") == ("snare drum",)
    assert d.multiword_lookup("pomme", "terre") == ("potato",)
    # multiword lemmas do not shadow single-word lookups
    assert d.lookup("caisse_clair", "NOUN") == ()


def test_entry_invariants():
    # An entry lists at least one translation, and each translation once.
    with pytest.raises(InputError, match=":1: empty field$"):
        load_dictionary(io.StringIO("x\tNOUN\t | \n"))
    assert load_dictionary(io.StringIO("x\tNOUN\ta|a\n")).lookup("x", "NOUN") == ("a",)
    assert BilingualDictionary([("x", "NOUN", ("a", "a"))]).lookup("x", "NOUN") == ("a",)


def test_multiword_translation_listed_twice_is_kept_once():
    # The underscore form is the same translation as the spaced one.
    d = load_dictionary(io.StringIO("caisse_claire\tNOUN\tsnare_drum|snare drum\n"))
    assert d.multiword_lookup("caisse", "claire") == ("snare drum",)


def dictionary_file(tmp_path, text=SAMPLE_FILE):
    path = tmp_path / "dictionary.tsv"
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return path


def assert_same_dictionary(d, parsed):
    assert d._entries == parsed._entries and d._multiword == parsed._multiword and len(d) == len(parsed)
    for lemma, pos in [("caisse", "NOUN"), ("clair", "ADJ"), ("ambiance", "NOUN"), ("absent", "NOUN")]:
        assert d.lookup(lemma, pos) == parsed.lookup(lemma, pos)
    for pair in [("caisse", "clair"), ("pomme", "terre"), ("caisse", "absent")]:
        assert d.multiword_lookup(*pair) == parsed.multiword_lookup(*pair)


def test_a_dictionary_file_loads_the_parse_saved_beside_it(tmp_path, monkeypatch):
    path = dictionary_file(tmp_path)
    parsed = load_dictionary(io.StringIO(SAMPLE_FILE))
    first = load_dictionary(path)
    assert Path(f"{path}.parsed").is_file()
    monkeypatch.setattr(dictionary_module, "read_rows", lambda *args: pytest.fail("parsed again"))
    for d in (first, load_dictionary(path), load_dictionary(str(path))):
        assert_same_dictionary(d, parsed)
    assert len(parsed) == 7 and parsed.multiword_lookup("caisse", "clair") == ("snare drum",)


def test_a_dictionary_edit_that_keeps_the_file_size_is_parsed_again(tmp_path):
    path = dictionary_file(tmp_path)
    load_dictionary(path)
    saved = Path(f"{path}.parsed").read_bytes()
    edited = SAMPLE_FILE.replace("atmosphere", "atmosphera")
    path.write_text(edited, encoding="utf-8")
    d = load_dictionary(path)
    assert d.lookup("ambiance", "NOUN") == ("atmosphera",)
    assert_same_dictionary(d, load_dictionary(io.StringIO(edited)))
    assert Path(f"{path}.parsed").read_bytes() != saved
    assert_same_dictionary(load_dictionary(path), d)


@pytest.mark.parametrize("damage", ["torn", "corrupt", "empty"])
def test_a_damaged_saved_dictionary_parse_is_ignored_and_rewritten(tmp_path, damage):
    path = dictionary_file(tmp_path)
    load_dictionary(path)
    saved = Path(f"{path}.parsed")
    good = saved.read_bytes()
    saved.write_bytes({"torn": good[: len(good) // 2], "corrupt": good[:-1] + bytes([good[-1] ^ 1]), "empty": b""}[damage])
    assert_same_dictionary(load_dictionary(path), load_dictionary(io.StringIO(SAMPLE_FILE)))
    assert saved.read_bytes() == good


@pytest.mark.parametrize("text, message", [
    (b"a\tNOUN\tx\nbad line\n", "2: expected 3 tab-separated fields, got 1"),
    (b"a\tNOUN\tx\na_de\tNOUN\ty\n", "2: multiword lemma 'a_de' does not reduce to a (head, modifier) pair"),
    (b"a\tNOUN\tx\n\xe9\tNOUN\ty\n", "2: not valid UTF-8"),
])
def test_a_malformed_dictionary_file_raises_its_line_and_saves_no_parse(tmp_path, text, message):
    path = dictionary_file(tmp_path, text)
    with pytest.raises(InputError, match=re.escape(f"{path}:{message}")):
        load_dictionary(path)
    assert not Path(f"{path}.parsed").exists()
    # Nor does a parse saved from the file before it went bad stand in for it.
    path.write_text(SAMPLE_FILE, encoding="utf-8")
    load_dictionary(path)
    path.write_bytes(text)
    with pytest.raises(InputError, match=re.escape(f"{path}:{message}")):
        load_dictionary(str(path))


@pytest.mark.parametrize("refused", ["create", "replace"])
def test_no_dictionary_parse_is_saved_from_a_refusing_directory_or_a_stream(tmp_path, monkeypatch, refused):
    path = dictionary_file(tmp_path)
    with refusing_saved_files(monkeypatch, tmp_path, refused):
        assert_same_dictionary(load_dictionary(path), load_dictionary(io.StringIO(SAMPLE_FILE)))
    assert list(tmp_path.iterdir()) == [path]
    with open(path, encoding="utf-8") as fh:
        assert len(load_dictionary(fh)) == 7
    assert list(tmp_path.iterdir()) == [path]


def test_classify_non_polysemous():
    d = load_dictionary(io.StringIO(SAMPLE_FILE))
    ulc = make_ulc("ambiance", "musical", UlcPattern.NOUN_ADJ, "ambiance musicale")
    assert route_ulc(ulc, d) == (Route.PHASE1, None)


def test_classify_polysemous():
    d = load_dictionary(io.StringIO(SAMPLE_FILE))
    ulc = make_ulc("caisse", "musical", UlcPattern.NOUN_ADJ, "caisse musicale")
    assert route_ulc(ulc, d) == (Route.PHASE2, None)


def test_classify_stored_multiword_entry():
    # both constituents are polysemous, but the stored translation wins
    d = load_dictionary(io.StringIO(SAMPLE_FILE))
    ulc = make_ulc("caisse", "clair", UlcPattern.NOUN_ADJ, "caisse claire")
    assert route_ulc(ulc, d) == (Route.DICTIONARY, "snare drum")


def test_classify_unknown_modifier():
    d = load_dictionary(io.StringIO(SAMPLE_FILE))
    ulc = make_ulc("appareil", "circulaire", UlcPattern.NOUN_ADJ, "appareil circulaire")
    assert route_ulc(ulc, d) == (Route.PHASE3, None)


def test_modifier_of_noun_adj_looked_up_as_adjective():
    # "musical" exists only as a noun here, so the NOUN_ADJ unit misses.
    d = make_dictionary([("ambiance", "NOUN", ["atmosphere"]), ("musical", "NOUN", ["musical"])])
    ulc = make_ulc("ambiance", "musical", UlcPattern.NOUN_ADJ, "ambiance musicale")
    assert route_ulc(ulc, d)[0] is Route.PHASE3


def test_modifier_of_de_pattern_looked_up_as_noun():
    d = make_dictionary([("messe", "NOUN", ["mass"]), ("minuit", "NOUN", ["midnight"])])
    ulc = make_ulc("messe", "minuit", UlcPattern.NOUN_DE_NOUN)
    assert route_ulc(ulc, d)[0] is Route.PHASE1


TRANSLATION_LISTS = st.lists(
    st.sampled_from(["t1", "t2", "t3", "t4"]), min_size=1, max_size=4, unique=True
)


@given(TRANSLATION_LISTS, TRANSLATION_LISTS)
def test_classes_partition_all_inputs(head_tr, mod_tr):
    d = make_dictionary([("head", "NOUN", head_tr), ("mod", "NOUN", mod_tr)])
    ulc = make_ulc("head", "mod", UlcPattern.NOUN_DE_NOUN)
    route = route_ulc(ulc, d)[0]
    if len(head_tr) == 1 and len(mod_tr) == 1:
        assert route is Route.PHASE1
    else:
        assert route is Route.PHASE2


@given(TRANSLATION_LISTS, TRANSLATION_LISTS, st.sampled_from(["t5", "t6"]))
def test_adding_translations_never_depolysemizes(head_tr, mod_tr, extra):
    ulc = make_ulc("head", "mod", UlcPattern.NOUN_DE_NOUN)
    before = route_ulc(
        ulc, make_dictionary([("head", "NOUN", head_tr), ("mod", "NOUN", mod_tr)])
    )[0]
    after = route_ulc(
        ulc, make_dictionary([("head", "NOUN", head_tr + [extra]), ("mod", "NOUN", mod_tr)])
    )[0]
    if before is Route.PHASE2:
        assert after is Route.PHASE2


def test_classification_is_total_even_for_empty_dictionary():
    ulc = make_ulc("x", "y", UlcPattern.NOUN_ADJ, "x y")
    assert route_ulc(ulc, BilingualDictionary()) == (Route.PHASE3, None)
