import io

import pytest
from hypothesis import given, strategies as st

from lexiforge.cli import main
from lexiforge.config import InputError
from lexiforge.evaluation import (
    GoldError,
    compute_metrics,
    format_metrics,
    load_gold,
    metrics_from_grades,
)
from lexiforge.pipeline import Phase

# Published full-scale figures: 887 graded translations out of 1075 source
# units, 89.29% A / 5.07% B / 5.64% C, precision 94.36%, recall 77.86%.
TOTAL_TRANSLATED = 887
TOTAL_SOURCES = 1075
GRADE_COUNTS = {"A": 792, "B": 45, "C": 50}  # nearest integers to the shares


def row(i, phase=Phase.PHASE2, translation=None):
    """A lexicon row as ``read_lexicon`` returns it."""
    return (f"tête{i} mot{i}", translation, phase)


def synthetic_rows_and_gold():
    rows = []
    gold = {}
    i = 0
    for grade, count in GRADE_COUNTS.items():
        for _ in range(count):
            r = row(i, translation=f"word{i}")
            rows.append(r)
            gold[r[:2]] = grade
            i += 1
    while i < TOTAL_SOURCES:
        rows.append(row(i, Phase.UNTRANSLATED))
        i += 1
    return rows, gold


def test_grade_integers_reproduce_published_shares():
    assert sum(GRADE_COUNTS.values()) == TOTAL_TRANSLATED
    assert GRADE_COUNTS["A"] / TOTAL_TRANSLATED == pytest.approx(0.8929, abs=0.0005)
    assert GRADE_COUNTS["B"] / TOTAL_TRANSLATED == pytest.approx(0.0507, abs=0.0005)
    assert GRADE_COUNTS["C"] / TOTAL_TRANSLATED == pytest.approx(0.0564, abs=0.0005)


def test_published_precision_and_recall():
    rows, gold = synthetic_rows_and_gold()
    metrics = compute_metrics(rows, gold)
    assert metrics.translated == TOTAL_TRANSLATED
    assert metrics.total_sources == TOTAL_SOURCES
    assert 100 * metrics.precision == pytest.approx(94.36, abs=0.02)
    assert 100 * metrics.recall == pytest.approx(77.86, abs=0.02)


def test_recall_definition_cross_check():
    # recall = precision * (#translated / total sources), exactly
    rows, gold = synthetic_rows_and_gold()
    m = compute_metrics(rows, gold)
    assert m.recall == pytest.approx(m.precision * m.translated / m.total_sources)


def test_all_a_toy_report():
    rows = [row(i, translation=f"w{i}") for i in range(10)]
    gold = {r[:2]: "A" for r in rows}
    m = compute_metrics(rows, gold)
    assert m.precision == 1.0
    assert m.recall == 1.0


def test_hand_scored_toy_mixture():
    # 10 rows: 6 A, 2 B, 2 C from 12 sources -> p=0.8, r=8/12
    rows = [row(i, translation=f"w{i}") for i in range(10)]
    rows += [row(10, Phase.UNTRANSLATED), row(11, Phase.UNTRANSLATED)]
    grades = ["A"] * 6 + ["B"] * 2 + ["C"] * 2
    gold = {r[:2]: g for r, g in zip(rows[:10], grades)}
    m = compute_metrics(rows, gold)
    assert m.precision == pytest.approx(0.8)
    assert m.recall == pytest.approx(8 / 12)
    assert m.grade_counts == {"A": 6, "B": 2, "C": 2}


def test_missing_grades_listed():
    rows = [row(0, translation="w0"), row(1, translation="w1")]
    gold = {rows[0][:2]: "A"}
    with pytest.raises(GoldError, match="w1"):
        compute_metrics(rows, gold)


def test_gold_file_roundtrip(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("tête0 mot0\tw0\tA\ntête1 mot1\tw1\tC\n", encoding="utf-8")
    gold = load_gold(path)
    assert gold == {("tête0 mot0", "w0"): "A", ("tête1 mot1", "w1"): "C"}


def test_gold_rejects_bad_grade():
    with pytest.raises(InputError, match="^<input>:1: bad grade 'D'$"):
        load_gold(io.StringIO("a\tb\tD\n"))


def test_gold_rejects_a_second_grade_for_one_pair(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("a b\tx\tPHASE1\t-\n", encoding="utf-8")
    argv = ["evaluate", "--lexicon", str(lexicon), "--gold", str(gold)]

    gold.write_text("a b\tx\tA\na b\tx\tA\n", encoding="utf-8")  # a repeat changes nothing
    assert main(argv) == 0
    assert "grade_A=1\n" in capsys.readouterr().out

    gold.write_text("a b\tx\tA\n# re-graded\na b\tx\tC\n", encoding="utf-8")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {gold}:3: grade 'C' conflicts with an earlier 'A'\n"


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
    rows = []
    gold = {}
    grades = [("A", a), ("B", b), ("C", c)]
    i = 0
    for grade, count in grades:
        for _ in range(count):
            r = row(i, translation=f"w{i}")
            rows.append(r)
            gold[r[:2]] = grade
            i += 1
    if not rows:
        return
    m = compute_metrics(rows, gold)
    assert sum(m.grade_share(g) for g in "ABC") == pytest.approx(1.0)


def test_format_metrics_has_machine_readable_lines():
    rows, gold = synthetic_rows_and_gold()
    text = format_metrics(compute_metrics(rows, gold))
    assert "precision=0.943630" in text  # 837/887
    assert "recall=0.778605" in text  # 837/1075
    assert "grade_A=792" in text
