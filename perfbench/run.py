#!/usr/bin/env python3
"""The lexiforge benchmark: one seeded workload, timed end to end, or traced
layer by layer.

    python3 perfbench/run.py --workload cold-local --seed 1 --seconds 20 --trace 0

Preparation (input generation, the golden-fixture replay check, recording
the warm cache) runs in a child process and is not measured. The measured
part repeats passes of the workload through ``lexiforge.cli.main`` until
``--seconds`` have passed (at least MIN_PASSES passes), checks every pass's
lexicon against the generator's expected outcomes, and reports medians over
passes. With ``--trace 1`` each cycle runs an untraced pass, a pass at the
other worker count and a traced pass, and the per-layer metrics come from
the traced passes. Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits 2 without a result when the checkout lacks the program or its
fixture.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import harness
from generate import read_expected
import tracing
from workloads import NPROC, WORKLOADS, Workload

ROOT = harness.ROOT
WORK_ROOT = ROOT / ".perfbench-work"
MIN_PASSES = 3
PREPARE_TIMEOUT_S = 600
PASS_TIMEOUT_S = 120

END_TO_END = {
    "units_per_s": "units/s",
    "queries_per_unit": "queries/unit",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class PassResult:
    wall_s: float
    setup_s: float
    work_s: float  # wall time outside set-up
    translate_work_s: float  # the translate command's share of work_s
    cpu_s: float  # CPU of the pass's process outside set-up
    peak_rss_mb: float
    units: int
    failed: int
    exit_ok: bool
    backend_calls: int
    lookups: int
    stub_requests: int
    layers: dict | None = None
    absent: dict = field(default_factory=dict)


class Runner:
    def __init__(self, workload: Workload, work: Path, stub=None):
        self.workload = workload
        self.work = work
        self.inputs = work / "inputs"
        self.stub = stub
        self.expected = read_expected(self.inputs / "expected.tsv")
        unresolved = any(state == "UNRESOLVED_ORACLE" for state, _ in self.expected.values())
        self.translate_exit = 3 if unresolved else 0
        values = workload.config_lines()
        if workload.name == "live-http":
            values.update({"oracle.backend": "http", "oracle.endpoint": stub.url})
        else:
            values.update({"oracle.backend": "local", "oracle.docs": str(self.inputs / "docs.jsonl")})
        self.config = harness.write_config(work / "run.config", values)
        self.passes = 0

    def commands(self, pass_dir: Path, workers: int | None) -> list[tuple[list, int]]:
        common = ["--config", self.config]
        translate = ["translate", *common, "--dictionary", self.inputs / "dictionary.tsv",
                     "--out-dir", pass_dir / "out",
                     "--source-tagger", self.inputs / "tagger_fr.tsv",
                     "--target-tagger", self.inputs / "tagger_en.tsv"]
        if workers is not None:
            translate += ["--workers", workers]
        name = self.workload.name
        if name == "cold-local":
            cache, ulcs = pass_dir / "run.cache", pass_dir / "ulcs.tsv"
            extract = ["extract", *common, "--corpus", self.inputs / "corpus.tsv", "--cache", cache, "--out", ulcs]
            return [(extract, 0), (translate + ["--cache", cache, "--ulcs", ulcs], self.translate_exit)]
        if name == "warm-replay":
            return [(translate + ["--offline", "--cache", self.work / "warm.cache", "--ulcs", self.work / "ulcs.tsv"],
                     self.translate_exit)]
        return [(translate + ["--cache", pass_dir / "run.cache", "--ulcs", self.work / "ulcs.tsv"], self.translate_exit)]

    def run_pass(self, workers: int | None = None, trace: Path | None = None) -> PassResult:
        """Run one pass in a fresh interpreter and check what it wrote."""
        self.passes += 1
        pass_dir = self.work / f"pass-{self.passes}"
        pass_dir.mkdir()
        commands = self.commands(pass_dir, workers)
        spec = pass_dir / "spec.json"
        spec.write_text(json.dumps({
            "commands": [[str(a) for a in argv] for argv, _ in commands],
            "trace": str(trace) if trace else None,
        }), encoding="utf-8")
        requests = self.stub.requests if self.stub else 0
        child = subprocess.run([sys.executable, str(Path(__file__).with_name("run_pass.py")), str(spec)],
                               capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        sys.stderr.write(child.stderr)
        measured = json.loads(child.stdout.strip().splitlines()[-1]) if child.returncode == 0 else None
        out = pass_dir / "out"
        records = harness.read_lexicon(out) if (out / "lexicon.tsv").exists() else []
        failed = harness.count_failures(records, self.expected)
        shutil.rmtree(pass_dir)
        if measured is None:
            print(f"pass {self.passes} exited with {child.returncode}", file=sys.stderr)
            return PassResult(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, len(records), max(failed, 1), False, 0, 0, 0)
        timings = measured["commands"]
        wall = sum(c["wall_s"] for c in timings)
        setup = sum(c["setup_s"] for c in timings)
        translate = [c for c in timings if c["command"] == "translate"][-1]
        return PassResult(
            wall_s=wall,
            setup_s=setup,
            work_s=wall - setup,
            translate_work_s=translate["wall_s"] - translate["setup_s"],
            cpu_s=sum(c["cpu_s"] for c in timings),
            peak_rss_mb=measured["peak_rss_mb"],
            units=len(records),
            failed=failed,
            exit_ok=[c["exit"] for c in timings] == [code for _, code in commands],
            backend_calls=measured["backend_calls"],
            lookups=measured["lookups"],
            stub_requests=(self.stub.requests - requests) if self.stub else 0,
            layers=measured.get("layers"),
            absent=measured.get("absent", {}),
        )


def queries_sent(workload: Workload, result: PassResult) -> int:
    """Backend queries sent; the offline replay may send none, so there it
    is the oracle lookups, which the recorded cache answers in the engine's
    place."""
    return result.lookups if workload.name == "warm-replay" else result.backend_calls


def end_to_end(workload: Workload, passes: list[PassResult]) -> dict[str, float]:
    return {
        "units_per_s": statistics.median(p.units / p.work_s if p.work_s else 0.0 for p in passes),
        "queries_per_unit": statistics.median(queries_sent(workload, p) / max(1, p.units) for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(p.setup_s for p in passes),
    }


def timed_run(runner: Runner, seconds: float) -> tuple[list[PassResult], dict[str, float]]:
    deadline = time.perf_counter() + seconds
    passes = []
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(runner.run_pass())
        if passes[-1].failed or not passes[-1].exit_ok:
            break  # the run is incorrect; more passes would not change that
    return passes, end_to_end(runner.workload, passes)


def traced_run(runner: Runner, seconds: float, trace_path: Path) -> tuple[list[PassResult], dict[str, float]]:
    """Cycles of an untraced pass, a pass at the other worker count (one
    worker, or NPROC where the workload runs one) and a traced pass; layer
    metrics come from the last traced pass."""
    deadline = time.perf_counter() + seconds
    pooled_workload = runner.workload.workers > 1
    plain, other, traced = [], [], []
    while not traced or time.perf_counter() < deadline:
        plain.append(runner.run_pass())
        other.append(runner.run_pass(workers=1 if pooled_workload else NPROC))
        traced.append(runner.run_pass(trace=trace_path))
    single, pooled = (other, plain) if pooled_workload else (plain, other)
    last = traced[-1]
    metrics = dict.fromkeys(tracing.LAYER_METRICS, 0.0)
    metrics.update(last.layers or {})
    metrics["backends.http.requests"] = last.stub_requests
    metrics["pipeline.pool_gain"] = _median_ratio([p.translate_work_s for p in single], [p.translate_work_s for p in pooled])
    metrics["trace.overhead_ratio"] = _median_ratio([p.wall_s for p in traced], [p.wall_s for p in plain]) - 1.0
    for target, reason in sorted(last.absent.items()):
        print(f"absent: {target}: {reason}")
    print(f"trace: {metrics['trace.spans']:.0f} spans -> {trace_path.relative_to(ROOT)}")
    return plain + other + traced, metrics


def _median_ratio(numerators: list[float], denominators: list[float]) -> float:
    denominator = statistics.median(denominators)
    return statistics.median(numerators) / denominator if denominator else 0.0


def prepare(workload: Workload, seed: int, work: Path) -> dict | None:
    command = [sys.executable, str(Path(__file__).with_name("prepare.py")),
               "--workload", workload.name, "--seed", str(seed), "--dir", str(work)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=PREPARE_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def checkout_complete() -> bool:
    needed = [ROOT / "src" / "lexiforge" / "cli.py", harness.FIXTURE / "golden_lexicon.tsv", harness.FIXTURE / "e2e.cache"]
    return all(path.is_file() for path in needed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not checkout_complete():
        print("error: run from a lexiforge checkout (needs src/lexiforge and tests/data)", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        prepared = prepare(workload, args.seed, work)
        if prepared is None or not prepared["ready"]:
            print("error: preparation failed", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        if workload.name != "live-http":
            return measure(workload, args, prepared, Runner(workload, work))
        harness.use_source_tree()
        from lexiforge.backends import LocalIndexBackend
        from stub import StubSearchServer

        index = LocalIndexBackend.from_jsonl(work / "inputs" / "docs.jsonl")
        with StubSearchServer(index, workload.stub_latency_s, NPROC) as stub:
            return measure(workload, args, prepared, Runner(workload, work, stub))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload: Workload, args, prepared: dict, runner: Runner) -> int:
    if args.trace:
        trace_path = WORK_ROOT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        passes, metrics = traced_run(runner, args.seconds, trace_path)
        units = tracing.LAYER_METRICS
    else:
        passes, metrics = timed_run(runner, args.seconds)
        units = END_TO_END

    attempted = len(runner.expected) * len(passes)
    failed = sum(p.failed for p in passes)
    exits_ok = all(p.exit_ok for p in passes)
    no_backend = workload.name != "warm-replay" or all(p.backend_calls == 0 for p in passes)
    correct = failed == 0 and exits_ok and no_backend and prepared["golden_ok"]

    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes of {len(runner.expected)} units")
    for i, p in enumerate(passes, start=1):
        print(f"  pass {i}: wall {p.wall_s:.3f} s, setup {p.setup_s:.3f} s, cpu {p.cpu_s:.3f} s, "
              f"rss {p.peak_rss_mb:.1f} MB, {p.units} units, {p.failed} failed, "
              f"{p.backend_calls} backend calls, {p.lookups} oracle lookups")
    print("expected states: " + " ".join(f"{k}={v}" for k, v in prepared["states"].items()))
    print(f"checks: golden fixture replay {'ok' if prepared['golden_ok'] else 'DIFFERS'}, "
          f"exit codes {'ok' if exits_ok else 'WRONG'}, "
          f"backend calls {'ok' if no_backend else 'SENT DURING OFFLINE REPLAY'}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"failed_share {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
