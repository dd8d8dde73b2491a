#!/usr/bin/env python3
"""Run the full cascade on the bundled fixtures and print what happened.

Uses the local document collection as a stand-in for a web search engine,
records every oracle response into a throwaway cache, then re-runs offline
from that cache to demonstrate reproducibility.

Usage:  python3 scripts/run_demo.py [output_dir]
"""

import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from lexiforge.cli import build_oracle, build_world_context
from lexiforge.config import load_config
from lexiforge.corpus import parse_tagged_corpus
from lexiforge.dictionary import load_dictionary
from lexiforge.extraction import extract_ulcs, filter_ulcs
from lexiforge.pipeline import run_pipeline, summarize, write_report

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def main():
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="lexiforge-"))
    corpus = parse_tagged_corpus((DATA / "corpus.tsv").read_text(encoding="utf-8"))
    dictionary = load_dictionary(DATA / "dictionary.tsv")
    cache_path = out_dir / "demo.cache"
    out_dir.mkdir(parents=True, exist_ok=True)
    if cache_path.exists():
        cache_path.unlink()

    # the fixture's desk-scale web thresholds, over the local collection
    cfg = load_config(
        DATA / "run.config", {"docs_path": str(DATA / "docs.jsonl"), "cache_path": str(cache_path)}
    )
    oracle = build_oracle(cfg)

    print(f"corpus: {corpus.doc_count} documents, {corpus.token_count()} tokens")
    units = extract_ulcs(corpus, cfg.corpus_freq_min)
    print(f"pattern extraction: {len(units)} recurrent units")
    try:
        verdicts = filter_ulcs(
            units, oracle, cfg.literal_freq_min, cfg.article_freq_min, cfg.max_ulcs
        )
        kept = [v.ulc for v in verdicts if v.accepted]
        print(f"web frequency filter: {len(kept)} kept, {len(units) - len(kept)} rejected")

        start = time.perf_counter()
        records = run_pipeline(kept, build_world_context(cfg, oracle, dictionary))
        elapsed = time.perf_counter() - start
    finally:
        oracle.close()
    print(f"\ncascade finished in {elapsed:.2f}s ({oracle.backend_calls} backend calls)\n")

    for record in records:
        translation = record.translation or "-"
        print(f"  {record.source.surface:28s} {record.phase.value:15s} {translation}")

    print()
    for label, count in summarize(records).items():
        print(" ", *label.split("\t"), count)

    lexicon, summary_file = write_report(records, out_dir)
    print(f"\nlexicon -> {lexicon}\nsummary -> {summary_file}")

    # offline replay from the cache written above
    replay_oracle = build_oracle(replace(cfg, backend="cache"))
    try:
        replay = run_pipeline(kept, build_world_context(cfg, replay_oracle, dictionary))
    finally:
        replay_oracle.close()
    identical = replay == records
    print(f"offline cache replay identical: {identical} (0 backend calls: {replay_oracle.backend_calls == 0})")


if __name__ == "__main__":
    main()
