"""Score a translation run against graded gold annotations.

Gold files carry one ``source<TAB>translation<TAB>grade`` line per judged
pair, grades A (good), B (acceptable) or C (wrong). Precision is the share
of emitted translations graded A or B; recall divides the same numerator by
the full number of source units, translated or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, TextIO

from .config import InputError, read_rows
from .pipeline import Phase

GRADES = ("A", "B", "C")


class GoldError(ValueError):
    """A gold file that does not cover a lexicon, or a bad source total."""


@dataclass(frozen=True)
class Metrics:
    translated: int
    total_sources: int
    grade_counts: Mapping[str, int]
    precision: float
    recall: float
    per_phase: Mapping[str, int]

    def grade_share(self, grade: str) -> float:
        return self.grade_counts[grade] / self.translated if self.translated else 0.0


def load_gold(source: TextIO | str | Path) -> dict[tuple[str, str], str]:
    gold: dict[tuple[str, str], str] = {}
    for path, lineno, (source_surface, translation, grade) in read_rows(source, 3):
        if grade not in GRADES:
            raise InputError(path, lineno, f"bad grade {grade!r}")
        earlier = gold.setdefault((source_surface, translation), grade)
        if earlier != grade:
            raise InputError(path, lineno, f"grade {grade!r} conflicts with an earlier {earlier!r}")
    return gold


def compute_metrics(
    rows: Sequence[tuple[str, str | None, Phase]],
    gold: Mapping[tuple[str, str], str],
    total_sources: int | None = None,
) -> Metrics:
    """Precision/recall plus per-grade and per-phase breakdowns of a
    lexicon's ``(surface, translation, phase)`` rows (``read_lexicon``).

    Every translated row must have a grade for its exact (source,
    translation) pair; missing pairs raise GoldError listing them all. A
    given ``total_sources`` must be at least the number of acceptable
    translations, so that recall stays within [0, 1].
    """
    translated = [row for row in rows if row[1] is not None]
    missing = [(s, t) for s, t, _ in translated if (s, t) not in gold]
    if missing:
        listed = ", ".join(f"{s!r}/{t!r}" for s, t in missing[:20])
        more = "" if len(missing) <= 20 else f" (+{len(missing) - 20} more)"
        raise GoldError(f"{len(missing)} translations lack a gold grade: {listed}{more}")

    grade_counts = {g: 0 for g in GRADES}
    per_phase: dict[str, int] = {}
    for surface, translation, phase in translated:
        grade = gold[(surface, translation)]
        grade_counts[grade] += 1
        if grade in ("A", "B"):
            per_phase[phase.value] = per_phase.get(phase.value, 0) + 1

    acceptable = grade_counts["A"] + grade_counts["B"]
    if total_sources is None:
        total_sources = len(rows)
    elif total_sources < acceptable:  # also every negative total
        raise GoldError(
            f"total sources {total_sources} is below the {acceptable} acceptable translations"
        )
    precision, recall = metrics_from_grades(grade_counts, total_sources)
    return Metrics(len(translated), total_sources, grade_counts, precision, recall, per_phase)


def metrics_from_grades(
    grade_counts: Mapping[str, int], total_sources: int
) -> tuple[float, float]:
    """Precision and recall straight from grade counts (no lexicon needed)."""
    translated = sum(grade_counts.get(g, 0) for g in GRADES)
    acceptable = grade_counts.get("A", 0) + grade_counts.get("B", 0)
    precision = acceptable / translated if translated else 0.0
    recall = acceptable / total_sources if total_sources else 0.0
    return precision, recall


def format_metrics(metrics: Metrics) -> str:
    """Human-readable table followed by machine-readable key=value lines."""
    lines = [
        f"translated units      {metrics.translated}",
        f"source units          {metrics.total_sources}",
    ]
    for grade in GRADES:
        share = 100.0 * metrics.grade_share(grade)
        lines.append(f"grade {grade}               {metrics.grade_counts[grade]:>6}  {share:6.2f}%")
    lines.append(f"precision             {100.0 * metrics.precision:6.2f}%")
    lines.append(f"recall                {100.0 * metrics.recall:6.2f}%")
    lines.append("")
    lines.append(f"translated={metrics.translated}")
    lines.append(f"total_sources={metrics.total_sources}")
    for grade in GRADES:
        lines.append(f"grade_{grade}={metrics.grade_counts[grade]}")
    lines.append(f"precision={metrics.precision:.6f}")
    lines.append(f"recall={metrics.recall:.6f}")
    for phase in sorted(metrics.per_phase):
        lines.append(f"acceptable_{phase}={metrics.per_phase[phase]}")
    return "\n".join(lines) + "\n"
