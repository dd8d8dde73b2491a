"""Running the program the way a user does, and checking what it wrote.

Every command goes through ``lexiforge.cli.main`` in-process, with the
command's own console output discarded.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data"


def use_source_tree() -> None:
    """Import the package from ``src/`` of this checkout."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def run_cli(argv: list[str]) -> int:
    from lexiforge.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


def write_config(path: Path, values: dict[str, str]) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def read_lexicon(out_dir: Path) -> list[tuple[str, str, str]]:
    """(surface, terminal state, translation) for every lexicon line."""
    records = []
    for line in (out_dir / "lexicon.tsv").read_text(encoding="utf-8").splitlines():
        surface, translation, state = line.split("\t")[:3]
        records.append((surface, state, translation))
    return records


def count_failures(records: list[tuple[str, str, str]], expected: dict[str, tuple[str, str]]) -> int:
    """Units whose outcome differs from the expected one, or that do not
    have exactly one record; records of units nobody expected count too."""
    seen: dict[str, int] = {}
    failed = 0
    for surface, state, translation in records:
        seen[surface] = seen.get(surface, 0) + 1
        if expected.get(surface) != (state, translation):
            failed += 1
    failed += sum(1 for surface in expected if seen.get(surface, 0) == 0)
    failed += sum(n - 1 for n in seen.values() if n > 1)
    return failed


def golden_replay_matches(work: Path) -> bool:
    """Offline extract + translate of the bundled fixture from its recorded
    cache must reproduce ``golden_lexicon.tsv`` byte for byte."""
    common = ["--config", FIXTURE / "run.config", "--offline", "--cache", FIXTURE / "e2e.cache"]
    ulcs = work / "golden-ulcs.tsv"
    out = work / "golden-out"
    if run_cli(["extract", "--corpus", FIXTURE / "corpus.tsv", "--out", ulcs, *common]) != 0:
        return False
    if run_cli(["translate", "--ulcs", ulcs, "--dictionary", FIXTURE / "dictionary.tsv", "--out-dir", out, *common]) != 0:
        return False
    produced = "".join(
        "\t".join(line.split("\t")[:3]) + "\n"
        for line in (out / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
    )
    return produced.encode("utf-8") == (FIXTURE / "golden_lexicon.tsv").read_bytes()


def bypass_proxies() -> None:
    # The stub engine listens on the loopback interface; never route it
    # through a proxy configured in the environment.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
