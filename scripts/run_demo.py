#!/usr/bin/env python3
"""Run the full cascade on the bundled fixtures and print what happened.

Runs the CLI's own commands: ``extract`` over the local document
collection, a stand-in for a web search engine, then ``translate``,
recording every oracle answer into a throwaway cache, then ``translate
--offline`` from that cache to show that the run replays byte for byte.

Usage:  python3 scripts/run_demo.py [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from lexiforge.cli import main as lexiforge

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
REPORT = ("lexicon.tsv", "summary.tsv")


def main():
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="lexiforge-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = out_dir / "demo.cache"
    cache.unlink(missing_ok=True)
    # the fixture's desk-scale web thresholds, over the local collection
    common = ["--config", DATA / "run.config", "--cache", cache]
    live = [*common, "--backend", "local", "--docs", DATA / "docs.jsonl"]
    translate = ["translate", "--ulcs", out_dir / "ulcs.tsv", "--dictionary", DATA / "dictionary.tsv"]
    for argv in (
        ["extract", *live, "--corpus", DATA / "corpus.tsv", "--out", out_dir / "ulcs.tsv"],
        [*translate, *live, "--out-dir", out_dir],
        [*translate, *common, "--offline", "--out-dir", out_dir / "replay"],
    ):
        code = lexiforge([str(arg) for arg in argv])
        if code != 0:
            sys.exit(f"lexiforge {argv[0]} exited {code}")

    for name in REPORT:
        print(f"\n{out_dir / name}:\n" + (out_dir / name).read_text(encoding="utf-8"), end="")
    identical = all((out_dir / name).read_bytes() == (out_dir / "replay" / name).read_bytes() for name in REPORT)
    print(f"\noffline cache replay identical: {identical}")


if __name__ == "__main__":
    main()
