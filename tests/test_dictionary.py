import io

import pytest
from hypothesis import given, strategies as st

from lexiforge.config import InputError
from lexiforge.dictionary import (
    BilingualDictionary,
    DictEntry,
    UlcClassKind,
    classify_ulc,
    load_dictionary,
)
from lexiforge.extraction import UlcPattern

from conftest import make_dictionary, make_ulc

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
    with pytest.raises(ValueError):
        DictEntry("x", "NOUN", ())
    with pytest.raises(ValueError):
        DictEntry("x", "NOUN", ("a", "a"))


def test_classify_non_polysemous():
    d = load_dictionary(io.StringIO(SAMPLE_FILE))
    ulc = make_ulc("ambiance", "musical", UlcPattern.NOUN_ADJ, "ambiance musicale")
    assert classify_ulc(ulc, d).kind is UlcClassKind.NON_POLYSEMOUS


def test_classify_polysemous():
    d = load_dictionary(io.StringIO(SAMPLE_FILE))
    ulc = make_ulc("caisse", "clair", UlcPattern.NOUN_ADJ, "caisse claire")
    cls = classify_ulc(ulc, d)
    assert cls.kind is UlcClassKind.POLYSEMOUS
    assert cls.dictionary_translation == "snare drum"


def test_classify_unknown_modifier():
    d = load_dictionary(io.StringIO(SAMPLE_FILE))
    ulc = make_ulc("appareil", "circulaire", UlcPattern.NOUN_ADJ, "appareil circulaire")
    cls = classify_ulc(ulc, d)
    assert cls.kind is UlcClassKind.UNKNOWN
    assert cls.unknown_constituents == frozenset({"modifier"})


def test_modifier_of_noun_adj_looked_up_as_adjective():
    # "musical" exists only as a noun here, so the NOUN_ADJ unit misses.
    d = make_dictionary([("ambiance", "NOUN", ["atmosphere"]), ("musical", "NOUN", ["musical"])])
    ulc = make_ulc("ambiance", "musical", UlcPattern.NOUN_ADJ, "ambiance musicale")
    assert classify_ulc(ulc, d).kind is UlcClassKind.UNKNOWN


def test_modifier_of_de_pattern_looked_up_as_noun():
    d = make_dictionary([("messe", "NOUN", ["mass"]), ("minuit", "NOUN", ["midnight"])])
    ulc = make_ulc("messe", "minuit", UlcPattern.NOUN_DE_NOUN)
    assert classify_ulc(ulc, d).kind is UlcClassKind.NON_POLYSEMOUS


WORDS = st.sampled_from(["head", "mod"])
TRANSLATION_LISTS = st.lists(
    st.sampled_from(["t1", "t2", "t3", "t4"]), min_size=1, max_size=4, unique=True
)


@given(TRANSLATION_LISTS, TRANSLATION_LISTS)
def test_classes_partition_all_inputs(head_tr, mod_tr):
    d = make_dictionary([("head", "NOUN", head_tr), ("mod", "NOUN", mod_tr)])
    ulc = make_ulc("head", "mod", UlcPattern.NOUN_DE_NOUN)
    kind = classify_ulc(ulc, d).kind
    if len(head_tr) == 1 and len(mod_tr) == 1:
        assert kind is UlcClassKind.NON_POLYSEMOUS
    else:
        assert kind is UlcClassKind.POLYSEMOUS


@given(TRANSLATION_LISTS, TRANSLATION_LISTS, st.sampled_from(["t5", "t6"]))
def test_adding_translations_never_depolysemizes(head_tr, mod_tr, extra):
    ulc = make_ulc("head", "mod", UlcPattern.NOUN_DE_NOUN)
    before = classify_ulc(
        ulc, make_dictionary([("head", "NOUN", head_tr), ("mod", "NOUN", mod_tr)])
    ).kind
    after = classify_ulc(
        ulc, make_dictionary([("head", "NOUN", head_tr + [extra]), ("mod", "NOUN", mod_tr)])
    ).kind
    if before is UlcClassKind.POLYSEMOUS:
        assert after is UlcClassKind.POLYSEMOUS


def test_classification_is_total_even_for_empty_dictionary():
    ulc = make_ulc("x", "y", UlcPattern.NOUN_ADJ, "x y")
    cls = classify_ulc(ulc, BilingualDictionary())
    assert cls.kind is UlcClassKind.UNKNOWN
    assert cls.unknown_constituents == frozenset({"head", "modifier"})
