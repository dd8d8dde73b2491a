"""Benchmark preparation, run in its own process so that its memory and time
stay out of the measured run.

It writes the seeded inputs, checks the offline replay of the bundled
fixture against its golden lexicon, and, depending on the workload:

* warm-replay: extracts and translates cold against the local index,
  recording the response cache, then drops the cache entries of the
  held-back units and keeps the unit file;
* live-http: extracts against the local index and keeps the unit file, so
  the measured translate starts from a cold cache.

Prints one JSON object describing what it prepared.

Usage: python3 perfbench/prepare.py --workload NAME --seed N --dir DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import harness
from generate import generate, write_inputs
from workloads import WORKLOADS, Workload


def local_config(workload: Workload, work: Path) -> Path:
    values = workload.config_lines()
    values.update({"oracle.backend": "local", "oracle.docs": str(work / "inputs" / "docs.jsonl")})
    return harness.write_config(work / "local.config", values)


def drop_held_back(cache: Path, held_back: set[str]) -> int:
    """Remove every record that queries a held-back surface; returns how many."""
    kept, dropped = [], 0
    for line in cache.read_text(encoding="utf-8").splitlines(keepends=True):
        phrases = line.split("\t")[1:3]
        if held_back.intersection(phrases):
            dropped += 1
        else:
            kept.append(line)
    cache.write_text("".join(kept), encoding="utf-8")
    return dropped


def reuse_indexes() -> None:
    """Build each document index once in this process: extraction and the
    recording translate read the same collection. Preparation only."""
    from lexiforge.backends import LocalIndexBackend

    build = LocalIndexBackend.from_jsonl
    built = {}

    def from_jsonl(path):
        if str(path) not in built:
            built[str(path)] = build(path)
        return built[str(path)]

    LocalIndexBackend.from_jsonl = from_jsonl


def prepare(workload: Workload, seed: int, work: Path) -> dict:
    inputs = generate(workload.spec, seed)
    write_inputs(inputs, work / "inputs")
    report = {
        "units": len(inputs.expected),
        "docs": len(inputs.docs),
        "states": inputs.state_counts(),
        "golden_ok": harness.golden_replay_matches(work),
        "ready": True,
    }
    if workload.name == "cold-local":
        return report

    config = local_config(workload, work)
    cache = work / "record.cache"
    extract = ["extract", "--config", config, "--corpus", work / "inputs" / "corpus.tsv",
               "--cache", cache, "--out", work / "ulcs.tsv"]
    report["ready"] = harness.run_cli(extract) == 0
    if workload.name == "warm-replay" and report["ready"]:
        translate = ["translate", "--config", config, "--ulcs", work / "ulcs.tsv",
                     "--dictionary", work / "inputs" / "dictionary.tsv", "--cache", cache,
                     "--out-dir", work / "record-out",
                     "--source-tagger", work / "inputs" / "tagger_fr.tsv",
                     "--target-tagger", work / "inputs" / "tagger_en.tsv",
                     "--workers", 1]  # the cache records the same either way, and one worker is faster
        report["ready"] = harness.run_cli(translate) == 0
        report["held_back_records"] = drop_held_back(cache, set(inputs.held_back))
        cache.rename(work / "warm.cache")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description="prepare one benchmark run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()
    harness.use_source_tree()
    reuse_indexes()
    print(json.dumps(prepare(WORKLOADS[args.workload], args.seed, args.dir)))


if __name__ == "__main__":
    main()
