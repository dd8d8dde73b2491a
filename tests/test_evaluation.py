import io

import pytest
from hypothesis import given, strategies as st

from lexiforge.config import InputError
from lexiforge.evaluation import (
    GoldError,
    compute_metrics,
    format_metrics,
    load_gold,
    metrics_from_grades,
)
from lexiforge.extraction import UlcPattern
from lexiforge.pipeline import Phase, TranslationRecord, TranslationReport

from conftest import make_ulc

# Published full-scale figures: 887 graded translations out of 1075 source
# units, 89.29% A / 5.07% B / 5.64% C, precision 94.36%, recall 77.86%.
TOTAL_TRANSLATED = 887
TOTAL_SOURCES = 1075
GRADE_COUNTS = {"A": 792, "B": 45, "C": 50}  # nearest integers to the shares


def record(i, phase=Phase.PHASE2, translation=None):
    ulc = make_ulc(f"tête{i}", f"mot{i}", UlcPattern.NOUN_ADJ, f"tête{i} mot{i}")
    return TranslationRecord(ulc, translation, phase)


def synthetic_report_and_gold():
    records = []
    gold = {}
    i = 0
    for grade, count in GRADE_COUNTS.items():
        for _ in range(count):
            r = record(i, translation=f"word{i}")
            records.append(r)
            gold[(r.source.surface, r.translation)] = grade
            i += 1
    while i < TOTAL_SOURCES:
        records.append(record(i, Phase.UNTRANSLATED))
        i += 1
    return TranslationReport(records), gold


def test_grade_integers_reproduce_published_shares():
    assert sum(GRADE_COUNTS.values()) == TOTAL_TRANSLATED
    assert GRADE_COUNTS["A"] / TOTAL_TRANSLATED == pytest.approx(0.8929, abs=0.0005)
    assert GRADE_COUNTS["B"] / TOTAL_TRANSLATED == pytest.approx(0.0507, abs=0.0005)
    assert GRADE_COUNTS["C"] / TOTAL_TRANSLATED == pytest.approx(0.0564, abs=0.0005)


def test_published_precision_and_recall():
    report, gold = synthetic_report_and_gold()
    metrics = compute_metrics(report, gold)
    assert metrics.translated == TOTAL_TRANSLATED
    assert metrics.total_sources == TOTAL_SOURCES
    assert 100 * metrics.precision == pytest.approx(94.36, abs=0.02)
    assert 100 * metrics.recall == pytest.approx(77.86, abs=0.02)


def test_recall_definition_cross_check():
    # recall = precision * (#translated / total sources), exactly
    report, gold = synthetic_report_and_gold()
    m = compute_metrics(report, gold)
    assert m.recall == pytest.approx(m.precision * m.translated / m.total_sources)


def test_all_a_toy_report():
    records = [record(i, translation=f"w{i}") for i in range(10)]
    gold = {(r.source.surface, r.translation): "A" for r in records}
    m = compute_metrics(TranslationReport(records), gold)
    assert m.precision == 1.0
    assert m.recall == 1.0


def test_hand_scored_toy_mixture():
    # 10 records: 6 A, 2 B, 2 C from 12 sources -> p=0.8, r=8/12
    records = [record(i, translation=f"w{i}") for i in range(10)]
    records += [record(10, Phase.UNTRANSLATED), record(11, Phase.UNTRANSLATED)]
    grades = ["A"] * 6 + ["B"] * 2 + ["C"] * 2
    gold = {
        (r.source.surface, r.translation): g
        for r, g in zip(records[:10], grades)
    }
    m = compute_metrics(TranslationReport(records), gold)
    assert m.precision == pytest.approx(0.8)
    assert m.recall == pytest.approx(8 / 12)
    assert m.grade_counts == {"A": 6, "B": 2, "C": 2}


def test_missing_grades_listed():
    records = [record(0, translation="w0"), record(1, translation="w1")]
    gold = {(records[0].source.surface, "w0"): "A"}
    with pytest.raises(GoldError, match="w1"):
        compute_metrics(TranslationReport(records), gold)


def test_gold_file_roundtrip(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("tête0 mot0\tw0\tA\ntête1 mot1\tw1\tC\n", encoding="utf-8")
    gold = load_gold(path)
    assert gold == {("tête0 mot0", "w0"): "A", ("tête1 mot1", "w1"): "C"}


def test_gold_rejects_bad_grade():
    with pytest.raises(InputError, match="^<input>:1: bad grade 'D'$"):
        load_gold(io.StringIO("a\tb\tD\n"))


@given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(1, 2000))
def test_recall_identity_property(a, b, c, extra_sources):
    translated = a + b + c
    total = translated + extra_sources
    precision, recall = metrics_from_grades({"A": a, "B": b, "C": c}, total)
    coverage = translated / total
    assert recall == pytest.approx(precision * coverage)
    assert 0.0 <= recall <= 1.0


@given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
def test_grade_shares_sum_to_one(a, b, c):
    records = []
    gold = {}
    grades = [("A", a), ("B", b), ("C", c)]
    i = 0
    for grade, count in grades:
        for _ in range(count):
            r = record(i, translation=f"w{i}")
            records.append(r)
            gold[(r.source.surface, r.translation)] = grade
            i += 1
    if not records:
        return
    m = compute_metrics(TranslationReport(records), gold)
    assert sum(m.grade_share(g) for g in "ABC") == pytest.approx(1.0)


def test_format_metrics_has_machine_readable_lines():
    report, gold = synthetic_report_and_gold()
    text = format_metrics(compute_metrics(report, gold))
    assert "precision=0.943630" in text  # 837/887
    assert "recall=0.778605" in text  # 837/1075
    assert "grade_A=792" in text
