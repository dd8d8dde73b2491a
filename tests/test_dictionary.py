import io

import pytest
from hypothesis import given, strategies as st

from lexiforge.config import InputError
from lexiforge.dictionary import (
    BilingualDictionary,
    DictEntry,
    Route,
    load_dictionary,
    route_ulc,
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
