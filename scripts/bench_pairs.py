#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs, write both BENCH
files and print how each metric moved.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload warm-replay --seeds 901-910 --label lean-index --claim peak_rss_mb
    python3 scripts/bench_pairs.py --aa . --workload warm-replay --seeds 1-20 --label aa

Each seed is one pair: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace T`` runs once in each checkout, the parent first in pairs
0, 2, 4, ... and the change first in pairs 1, 3, 5, ..., so that drift of the
host does not favour one side. Every ``__pycache__`` under both checkouts is
deleted before the first pair. ``--aa`` runs one checkout against a fresh copy
of itself, which shows the spread of a pair set with no difference in code.

The result line of every run goes to ``BENCH_<label>-parent.json`` and
``BENCH_<label>-change.json`` in ``--out-dir``, with the keys ``label``,
``code``, ``src_lexiforge_loc``, ``command``, ``host``, ``pairing`` and
``runs``; both files are rewritten after every pair. A file that exists
already keeps its runs, and the new ones join it as the next ``set``, so one
file can hold the pair sets of several workloads.

Last, for each metric: each side's median and quartiles, the change's median
relative to the parent's, and the pairs the change won (by the direction in
the change's BENCHMARK.json; ties count for neither side). Then, for each
end-to-end metric, the no-regression verdict against its bound in that
file: ``within bound``, ``worse beyond bound`` when the change's median is
worse than the parent's by more than the bound, or ``unresolved`` when the
parent's runs spread from first to third quartile wider than the bound,
unless every run of the change reads better than every run of the parent.
With ``--claim METRIC`` it prints, last, the gain verdict on that metric:
``met`` when the change won at least nine tenths of the pairs run (ties
count for neither side) and its median beats the parent's by more than the
parent's spread from first to third quartile, ``not met`` otherwise. A
checkout without BENCHMARK.json, or a claimed metric it does not list,
stops the script before the first pair, with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

SIDES = ("parent", "change")
# A run whose output holds no result line counts as incorrect.
NO_RESULT = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

Runner = Callable[[Path, str, int, float, int], dict]


def parse_seeds(text: str) -> list[int]:
    """``"901-905,910"`` -> ``[901, 902, 903, 904, 905, 910]``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def order(pair_index: int) -> tuple[str, str]:
    """The sides of one pair in the order they run."""
    return SIDES if pair_index % 2 == 0 else SIDES[::-1]


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        return dict(NO_RESULT)


def read_metrics(checkout: Path) -> tuple[dict[str, str], dict[str, float]]:
    """From BENCHMARK.json: metric name -> ``"lower"`` or ``"higher"``, and
    end-to-end metric name -> its bound, a share of the parent's median."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = spec.get("end_to_end", [])
    better = {m["name"]: m["better"] for m in end_to_end + spec.get("per_layer", [])}
    return better, {m["name"]: m["bound"] for m in end_to_end}


def source_loc(checkout: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (checkout / "src" / "lexiforge").glob("*.py"))


def git_code(checkout: Path) -> str:
    """Short commit of a git checkout, marked when it has uncommitted
    changes; the directory's name otherwise."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return checkout.resolve().name
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + (" with uncommitted changes" if dirty else "")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(runs: dict[str, list[dict]], better: dict[str, str]) -> list[dict]:
    """Per metric of the paired runs: both sides' quartiles, the change's
    wins, whether every change run beats every parent run, and the number
    of pairs that report the metric."""
    values: dict[str, dict[str, dict]] = {}  # metric -> side -> pair key -> value
    for side, side_runs in runs.items():
        for run in side_runs:
            key = (run["workload"], run["seed"], run["trace"])
            for name, metric in run["result"].get("metrics", {}).items():
                values.setdefault(name, {s: {} for s in SIDES})[side][key] = metric["value"]
    rows = []
    for name, sides in values.items():
        keys = [k for k in sides["parent"] if k in sides["change"]]
        if not keys:
            continue
        parent = [sides["parent"][k] for k in keys]
        change = [sides["change"][k] for k in keys]
        direction = better.get(name, "lower")
        sign = -1 if direction == "lower" else 1
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        rows.append({"metric": name, "better": direction, "pairs": len(keys),
                     "wins": wins, "parent": quartiles(parent), "change": quartiles(change),
                     "all_better": min(sign * c for c in change) > max(sign * p for p in parent)})
    return rows


def verdict(row: dict | None, bound: float) -> str:
    """The no-regression verdict on one end-to-end metric's ``compare`` row."""
    if row is None:
        return "unresolved: no pair reports it"
    (q1, p, q3), c = row["parent"], row["change"][1]
    if row["all_better"]:
        return "within bound"
    if q3 - q1 > bound * abs(p):
        return "unresolved"
    worse = c - p if row["better"] == "lower" else p - c
    return "worse beyond bound" if worse > bound * abs(p) else "within bound"


def format_rows(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        (p1, p, p3), (c1, c, c3) = row["parent"], row["change"]
        ratio = f"{c / p:.3f}" if p else "-"
        lines.append(f"{row['metric']}: parent {p:.6g} [{p1:.6g}, {p3:.6g}], change {c:.6g} [{c1:.6g}, {c3:.6g}], "
                     f"change/parent {ratio}, change better in {row['wins']}/{row['pairs']} ({row['better']} is better)")
    return "\n".join(lines)


def format_verdicts(rows: list[dict], bounds: dict[str, float]) -> str:
    by_name = {row["metric"]: row for row in rows}
    lines = []
    for name, bound in bounds.items():
        row = by_name.get(name)
        detail = f"bound {bound:g}"
        if row and row["parent"][1]:
            q1, p, q3 = row["parent"]
            detail += f", parent spread (q3 - q1) / median {(q3 - q1) / p:.3f}"
        lines.append(f"{name} verdict: {verdict(row, bound)} ({detail})")
    return "\n".join(lines)


def format_claim(name: str, row: dict | None, pairs_run: int) -> str:
    """The gain verdict on the claimed metric's ``compare`` row."""
    if row is None:
        return f"{name} claim: not met (no pair reports it)"
    (q1, p, q3), c = row["parent"], row["change"][1]
    gain = p - c if row["better"] == "lower" else c - p
    met = 10 * row["wins"] >= 9 * pairs_run and gain > q3 - q1
    detail = f"change better in {row['wins']}/{pairs_run} pairs"
    if p:
        detail += (f", median gain / parent median {gain / abs(p):.3f}, "
                   f"parent spread (q3 - q1) / median {(q3 - q1) / abs(p):.3f}")
    return f"{name} claim: {'met' if met else 'not met'} ({detail})"


def load_or_start(path: Path, label: str, code: str, loc: int, seconds: float, pairing: str) -> dict:
    if path.exists():
        bench = json.loads(path.read_text(encoding="utf-8"))
        bench["pairing"] += " " + pairing
        bench.update(code=code, src_lexiforge_loc=loc)
        return bench
    return {
        "label": label,
        "code": code,
        "src_lexiforge_loc": loc,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace T",
        "host": f"{os.cpu_count()} CPUs, {platform.system()} {platform.release()}, Python {platform.python_version()}",
        "pairing": "parent and change alternate per seed; even pair index runs the parent first, "
                   "odd the change first. " + pairing,
        "runs": [],
    }


def run_pairs(checkouts: dict[str, Path], benches: dict[str, dict], out: dict[str, Path], args,
              run: Runner) -> dict[str, list[dict]]:
    """Run every pair, rewriting both BENCH files after each; the new runs
    of each side."""
    new = {side: [] for side in SIDES}
    set_id = 1 + max((r.get("set", 0) for r in benches["parent"]["runs"]), default=0)
    for index, seed in enumerate(args.seeds):
        for side in order(index):
            print(f"pair {index}: {side} seed {seed}", file=sys.stderr, flush=True)
            result = run(checkouts[side], args.workload, seed, args.seconds, args.trace)
            entry = {"set": set_id, "workload": args.workload, "seed": seed, "trace": args.trace, "result": result}
            new[side].append(entry)
            benches[side]["runs"].append(entry)
        for side in SIDES:
            out[side].write_text(json.dumps(benches[side], indent=1) + "\n", encoding="utf-8")
    return new


def main(argv: list[str] | None = None, run: Runner = run_benchmark) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--aa", type=Path, help="run this checkout against a copy of itself")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 901-910 or 1,3,5-7")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent-code", help="commit named in the parent's BENCH file")
    parser.add_argument("--change-code", help="commit named in the change's BENCH file")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--claim", metavar="METRIC", help="give the gain verdict on this metric")
    args = parser.parse_args(argv)
    paired = args.parent is not None and args.change is not None
    neither = args.parent is None and args.change is None
    if not (neither if args.aa else paired):
        parser.error("give either --parent and --change, or --aa")
    # Read from both checkouts before the first pair, so that a missing file stops the run at once.
    checked = [args.aa] if args.aa else [args.parent, args.change]
    try:
        better, bounds = [read_metrics(checkout) for checkout in checked][-1]
    except FileNotFoundError as exc:
        print(f"error: {exc.filename} not found", file=sys.stderr)
        return 2
    if args.claim and args.claim not in better:
        print(f"error: --claim {args.claim}: BENCHMARK.json lists no such metric", file=sys.stderr)
        return 2

    # Made before the first pair, so that no pair's runs are lost to it.
    args.out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bench-aa-") as scratch:
        if args.aa:
            copy = Path(scratch) / args.aa.resolve().name
            shutil.copytree(args.aa, copy, ignore=shutil.ignore_patterns(
                ".git", ".perfbench-work", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"))
            checkouts = {"parent": args.aa, "change": copy}
        else:
            checkouts = {"parent": args.parent, "change": args.change}
        # Bytecode left in one checkout and not the other skews every pair.
        for checkout in checkouts.values():
            for bytecode in list(checkout.rglob("__pycache__")):
                shutil.rmtree(bytecode)
        parent_code = args.parent_code or git_code(checkouts["parent"])
        codes = {"parent": parent_code,
                 "change": f"copy of {parent_code}" if args.aa else args.change_code or git_code(checkouts["change"])}
        pairing = (f"{args.workload} seeds {','.join(map(str, args.seeds))} ({len(args.seeds)} pairs), "
                   f"--seconds {args.seconds:g} --trace {args.trace}"
                   f"{', change side a copy of the parent checkout' if args.aa else ''}.")
        out = {side: args.out_dir / f"BENCH_{args.label}-{side}.json" for side in SIDES}
        benches = {side: load_or_start(out[side], f"{args.label}-{side}", codes[side],
                                       source_loc(checkouts[side]), args.seconds, pairing) for side in SIDES}
        new = run_pairs(checkouts, benches, out, args, run)

    incorrect = {side: sum(1 for r in new[side] if not r["result"].get("correct")) for side in SIDES}
    print(f"{args.workload}, {len(args.seeds)} pairs, median [q1, q3] per side; incorrect runs: "
          + ", ".join(f"{side} {n}" for side, n in incorrect.items()))
    rows = compare(new, better)
    print(format_rows(rows))
    print(format_verdicts(rows, bounds))
    if args.claim:
        print(format_claim(args.claim, next((r for r in rows if r["metric"] == args.claim), None), len(args.seeds)))
    return 1 if any(incorrect.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
