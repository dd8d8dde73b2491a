"""Linear three-phase translation cascade with full provenance.

The dictionary decides each unit's route (``route_ulc``): units already
present as multiword dictionary entries keep that translation outright;
units whose constituents are unambiguous go to the frequency phase;
ambiguous ones to the lexical-world phase; units with unknown constituents
straight to snippet mining. A phase that produces nothing hands the unit to
the next one, so every unit ends in exactly one terminal state. The phases
share one ``WorldContext`` and read every setting from its ``cfg``, a
``RunConfig``.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .config import InputError, read_rows
from .dictionary import Route, route_ulc
from .extraction import SourceUlc, UlcPattern
from .generation import CandidateOrigin, CandidateTranslation, generate_candidates
from .oracle import OracleError
from .phase1 import validate_by_frequency
from .phase2 import WorldContext, run_phase2
from .phase3 import run_phase3


class Phase(enum.Enum):
    DICTIONARY = "DICTIONARY"
    PHASE1 = "PHASE1"
    PHASE2 = "PHASE2"
    PHASE3_COGNATE = "PHASE3_COGNATE"
    PHASE3_PAIR = "PHASE3_PAIR"
    UNTRANSLATED = "UNTRANSLATED"
    UNRESOLVED_ORACLE = "UNRESOLVED_ORACLE"


TERMINAL_WITHOUT_TRANSLATION = {Phase.UNTRANSLATED, Phase.UNRESOLVED_ORACLE}


@dataclass(frozen=True)
class TranslationRecord:
    source: SourceUlc
    translation: str | None
    phase: Phase
    scores: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        has_translation = self.translation is not None
        if has_translation == (self.phase in TERMINAL_WITHOUT_TRANSLATION):
            raise ValueError(f"translation/phase mismatch for {self.source.surface!r}")


@dataclass
class TranslationReport:
    records: list[TranslationRecord]

    def phase_counts(self) -> dict[Phase, int]:
        counts = {phase: 0 for phase in Phase}
        for record in self.records:
            counts[record.phase] += 1
        return counts

    def pattern_counts(self) -> dict[UlcPattern, int]:
        counts = {pattern: 0 for pattern in UlcPattern}
        for record in self.records:
            counts[record.source.pattern] += 1
        return counts

    def translated(self) -> list[TranslationRecord]:
        return [r for r in self.records if r.translation is not None]

    def unresolved_count(self) -> int:
        return sum(1 for r in self.records if r.phase is Phase.UNRESOLVED_ORACLE)

    def summary_phase_counts(self) -> dict[str, int]:
        """Per-phase translation counts with dictionary hits folded into
        phase 1 and the two mining sub-steps folded into phase 3."""
        counts = self.phase_counts()
        return {
            "phase1": counts[Phase.DICTIONARY] + counts[Phase.PHASE1],
            "phase2": counts[Phase.PHASE2],
            "phase3": counts[Phase.PHASE3_COGNATE] + counts[Phase.PHASE3_PAIR],
            "untranslated": counts[Phase.UNTRANSLATED],
            "unresolved": counts[Phase.UNRESOLVED_ORACLE],
        }


def _record_for_winner(
    ulc: SourceUlc, winner: CandidateTranslation, phase: Phase
) -> TranslationRecord:
    return TranslationRecord(ulc, winner.target_surface, phase, dict(winner.scores))


def translate_ulc(ulc: SourceUlc, ctx: WorldContext) -> TranslationRecord:
    """Route one unit through the cascade to its terminal state. A unit is
    decided on all of its evidence: an ``OracleError`` from any of its
    queries ends it ``UNRESOLVED_ORACLE``, never a translation chosen from
    the candidates whose queries succeeded."""
    route, stored = route_ulc(ulc, ctx.dictionary)
    if route is Route.DICTIONARY:
        return TranslationRecord(ulc, stored, Phase.DICTIONARY)

    try:
        if route is not Route.PHASE3:
            candidates = generate_candidates(ulc, ctx.dictionary)

            if route is Route.PHASE1:
                winner, _verdicts = validate_by_frequency(
                    candidates, ctx.oracle, ctx.cfg.use_an
                )
                if winner is not None:
                    return _record_for_winner(ulc, winner, Phase.PHASE1)

            result = run_phase2(ulc, candidates, ctx)
            if result.winner is not None:
                return _record_for_winner(ulc, result.winner, Phase.PHASE2)

        phase3 = run_phase3(ulc, ctx)
        if phase3.winner is not None:
            phase = (
                Phase.PHASE3_COGNATE
                if phase3.winner.origin is CandidateOrigin.COGNATE
                else Phase.PHASE3_PAIR
            )
            return _record_for_winner(ulc, phase3.winner, phase)
        return TranslationRecord(ulc, None, Phase.UNTRANSLATED)
    except OracleError:
        return TranslationRecord(ulc, None, Phase.UNRESOLVED_ORACLE)


def run_pipeline(ulcs: Sequence[SourceUlc], ctx: WorldContext) -> TranslationReport:
    """Translate every unit, ``pipeline.workers`` at a time; records come
    back ordered by source surface regardless of scheduling, so warm-cache
    runs are reproducible."""
    workers = ctx.cfg.workers
    if workers > 1 and len(ulcs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda u: translate_ulc(u, ctx), ulcs))
    else:
        records = [translate_ulc(u, ctx) for u in ulcs]
    records.sort(key=lambda r: (r.source.surface, r.source.pattern.value))
    return TranslationReport(records)


def _format_score(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.6g}"


def _score_summary(scores: dict[str, float]) -> str:
    if not scores:
        return "-"
    return ";".join(f"{key}={_format_score(scores[key])}" for key in sorted(scores))


def write_report(report: TranslationReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write the lexicon and summary files; returns their paths.

    Output is fully deterministic for a given report, so re-runs against a
    warm cache produce byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lexicon_path = out_dir / "lexicon.tsv"
    summary_path = out_dir / "summary.tsv"

    with open(lexicon_path, "w", encoding="utf-8") as fh:
        for record in report.records:
            fh.write(
                "\t".join(
                    [
                        record.source.surface,
                        record.translation or "",
                        record.phase.value,
                        _score_summary(record.scores),
                    ]
                )
                + "\n"
            )

    translated = len(report.translated())
    summary = report.summary_phase_counts()
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(f"total_units\t{len(report.records)}\n")
        fh.write(f"translated\t{translated}\n")
        for phase_name in ("phase1", "phase2", "phase3"):
            count = summary[phase_name]
            share = (100.0 * count / translated) if translated else 0.0
            fh.write(f"phase\t{phase_name}\t{count}\t{share:.2f}%\n")
        fh.write(f"untranslated\t{summary['untranslated']}\n")
        fh.write(f"unresolved_oracle\t{summary['unresolved']}\n")
        pattern_counts = report.pattern_counts()
        for pattern in UlcPattern:
            fh.write(f"pattern\t{pattern.value}\t{pattern_counts[pattern]}\n")
    return lexicon_path, summary_path


def _ulc_from_surface(surface: str) -> SourceUlc:
    if " de " in surface:
        head, _, modifier = surface.partition(" de ")
        pattern = UlcPattern.NOUN_DE_NOUN
    elif "d'" in surface or "d’" in surface:
        head, _, modifier = surface.replace("d’", "d'").partition(" d'")
        pattern = UlcPattern.NOUN_D_NOUN
    else:
        head, _, modifier = surface.partition(" ")
        pattern = UlcPattern.NOUN_ADJ
    return SourceUlc(head or surface, modifier or surface, pattern, surface)


def read_lexicon(path: str | Path) -> TranslationReport:
    """Load a written lexicon back into a report, e.g. for evaluation."""
    records = []
    for path, lineno, (surface, translation, phase, _scores) in read_rows(path, 4):
        try:
            record = TranslationRecord(_ulc_from_surface(surface), translation or None, Phase(phase))
        except ValueError as exc:
            raise InputError(path, lineno, str(exc)) from None
        records.append(record)
    return TranslationReport(records)
