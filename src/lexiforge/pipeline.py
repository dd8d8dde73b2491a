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
from collections import Counter
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


# The paper phase ``summary.tsv`` counts each translating state under:
# dictionary hits where ``translate --phase`` puts them, both mining steps
# under phase 3. UNTRANSLATED and UNRESOLVED_ORACLE carry no translation.
PAPER_PHASE = {
    Phase.DICTIONARY: Route.DICTIONARY.phase,
    Phase.PHASE1: 1,
    Phase.PHASE2: 2,
    Phase.PHASE3_COGNATE: 3,
    Phase.PHASE3_PAIR: 3,
}


def check_translation(surface: str, translation: str | None, phase: Phase) -> None:
    """Raise ValueError unless exactly the translating states carry a translation."""
    if (translation is not None) != (phase in PAPER_PHASE):
        raise ValueError(f"translation/phase mismatch for {surface!r}")


@dataclass(frozen=True)
class TranslationRecord:
    source: SourceUlc
    translation: str | None
    phase: Phase
    scores: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        check_translation(self.source.surface, self.translation, self.phase)


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


def run_pipeline(ulcs: Sequence[SourceUlc], ctx: WorldContext) -> list[TranslationRecord]:
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
    return records


def _format_score(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.6g}"


def _score_summary(scores: dict[str, float]) -> str:
    if not scores:
        return "-"
    return ";".join(f"{key}={_format_score(scores[key])}" for key in sorted(scores))


def summarize(records: Sequence[TranslationRecord]) -> dict[str, int]:
    """The counts of ``summary.tsv`` in file order, keyed by the fields
    before the count on each row."""
    phases = Counter(r.phase for r in records)
    paper = Counter(PAPER_PHASE[r.phase] for r in records if r.translation is not None)
    patterns = Counter(r.source.pattern for r in records)
    return {
        "total_units": len(records),
        "translated": sum(paper.values()),
        **{f"phase\tphase{n}": paper[n] for n in (1, 2, 3)},
        "untranslated": phases[Phase.UNTRANSLATED],
        "unresolved_oracle": phases[Phase.UNRESOLVED_ORACLE],
        **{f"pattern\t{pattern.value}": patterns[pattern] for pattern in UlcPattern},
    }


def write_report(records: Sequence[TranslationRecord], out_dir: str | Path) -> tuple[Path, Path]:
    """Write the lexicon and summary files; returns their paths.

    Output is fully deterministic for given records, so re-runs against a
    warm cache produce byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lexicon_path = out_dir / "lexicon.tsv"
    summary_path = out_dir / "summary.tsv"

    with open(lexicon_path, "w", encoding="utf-8") as fh:
        for record in records:
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

    summary = summarize(records)
    translated = summary["translated"]
    with open(summary_path, "w", encoding="utf-8") as fh:
        for label, count in summary.items():
            if label.startswith("phase\t"):
                share = (100.0 * count / translated) if translated else 0.0
                fh.write(f"{label}\t{count}\t{share:.2f}%\n")
            else:
                fh.write(f"{label}\t{count}\n")
    return lexicon_path, summary_path


def read_lexicon(path: str | Path) -> list[tuple[str, str | None, Phase]]:
    """The ``(surface, translation, phase)`` rows of a written lexicon, e.g.
    for evaluation; the score column is not read."""
    rows = []
    for path, lineno, (surface, translation, state, _scores) in read_rows(path, 4):
        try:
            row = (surface, translation or None, Phase(state))
            check_translation(*row)
        except ValueError as exc:
            raise InputError(path, lineno, str(exc)) from None
        rows.append(row)
    return rows
