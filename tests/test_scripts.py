"""Smoke tests for the scripts: the demo replays its own run offline, the
fixture builder and the reference lexicon regenerate ``tests/data`` byte for
byte, and the pair runner alternates its sides and sums up their runs (with a
stub for the benchmark)."""

import importlib.util
import json
import runpy
import shutil
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DATA = Path(__file__).parent / "data"


def test_run_demo_replays_identically_offline(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_demo.py", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "run_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "offline cache replay identical: True\n" in out
    assert "phase\tphase1\t7\t" in out
    assert (tmp_path / "lexicon.tsv").exists() and (tmp_path / "summary.tsv").exists()


def test_build_fixtures_regenerates_the_bundled_fixtures(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("build_fixtures", SCRIPTS / "build_fixtures.py")
    build_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_fixtures)
    monkeypatch.setattr(build_fixtures, "DATA_DIR", tmp_path)
    build_fixtures.main()
    capsys.readouterr()

    for name in ("corpus.tsv", "dictionary.tsv", "docs.jsonl", "run.config", "ulcs.tsv", "gold.tsv", "e2e.cache"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_reference_lexicon_regenerates_the_golden_files(tmp_path, monkeypatch, capsys):
    data = shutil.copytree(DATA, tmp_path / "data", ignore=shutil.ignore_patterns("golden_*"))
    spec = importlib.util.spec_from_file_location("reference_lexicon", SCRIPTS / "reference_lexicon.py")
    reference_lexicon = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference_lexicon)
    monkeypatch.setattr(reference_lexicon, "DATA", data)
    reference_lexicon.main()
    capsys.readouterr()
    for name in ("golden_ulcs.tsv", "golden_lexicon.tsv"):
        assert (data / name).read_bytes() == (DATA / name).read_bytes(), name


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_flips_the_order_and_reports_quartiles_and_wins(tmp_path, capsys):
    bench_pairs = load_bench_pairs()
    checkout = tmp_path / "checkout"
    (checkout / "src" / "lexiforge").mkdir(parents=True)
    (checkout / "src" / "lexiforge" / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    shutil.copy(SCRIPTS.parent / "BENCHMARK.json", checkout)
    calls, paths = [], set()

    def leave_bytecode():
        (checkout / "src" / "lexiforge" / "__pycache__").mkdir()
        (checkout / "src" / "lexiforge" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"stale")

    def stub_run(path, workload, seed, seconds, trace):
        # The change reads 10 MB less except at seed 3 (a tie), and fewer
        # units/s at seed 2 only.
        side = "parent" if path == checkout else "change"
        assert (path / "src" / "lexiforge" / "a.py").read_text(encoding="utf-8") == "x = 1\ny = 2\n"
        assert not list(path.rglob("__pycache__"))  # deleted before the first pair
        calls.append((side, seed, workload, seconds, trace))
        paths.add(path)
        rss = 40.0 + seed - (10 if side == "change" and seed != 3 else 0)
        ups = 100.0 + (0 if side == "parent" else -1 if seed == 2 else 1)
        metrics = {"peak_rss_mb": {"value": rss, "unit": "MB"}, "units_per_s": {"value": ups, "unit": "units/s"}}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    argv = ["--workload", "cold-local", "--seeds", "1-3,4", "--seconds", "5", "--label", "t", "--out-dir", str(tmp_path)]
    leave_bytecode()
    assert bench_pairs.main(["--aa", str(checkout), *argv], run=stub_run) == 0
    assert [call[:2] for call in calls] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
        ("parent", 3), ("change", 3), ("change", 4), ("parent", 4),
    ]
    assert {call[2:] for call in calls} == {("cold-local", 5.0, 0)}
    assert [path.exists() for path in paths - {checkout}] == [False]  # the copy is removed
    out = capsys.readouterr().out
    assert "incorrect runs: parent 0, change 0" in out
    rows = {line.split(":")[0]: line for line in out.splitlines()[1:]}
    # parent 41..44, change 31, 32, 43, 34: inclusive quartiles, 3 wins and a tie
    assert rows["peak_rss_mb"] == (
        "peak_rss_mb: parent 42.5 [41.75, 43.25], change 33 [31.75, 36.25], "
        "change/parent 0.776, change better in 3/4 (lower is better)"
    )
    assert rows["units_per_s"].endswith("change better in 3/4 (higher is better)")

    # A second set joins the same files; both sides get the layout's keys.
    leave_bytecode()
    assert bench_pairs.main(["--parent", str(checkout), "--change", str(checkout),
                             "--change-code", "def5678", *argv], run=stub_run) == 0
    for side in ("parent", "change"):
        bench = json.loads((tmp_path / f"BENCH_t-{side}.json").read_text(encoding="utf-8"))
        assert list(bench) == ["label", "code", "src_lexiforge_loc", "command", "host", "pairing", "runs"]
        assert bench["label"] == f"t-{side}" and bench["src_lexiforge_loc"] == 2
        assert [(r["set"], r["seed"]) for r in bench["runs"]] == [(1, 1), (1, 2), (1, 3), (1, 4)] + [(2, 1), (2, 2), (2, 3), (2, 4)]
    assert bench["code"] == "def5678"


def test_bench_pairs_gives_each_end_to_end_metric_a_no_regression_verdict(tmp_path, capsys):
    bench_pairs = load_bench_pairs()
    checkout = tmp_path / "checkout"
    (checkout / "src" / "lexiforge").mkdir(parents=True)
    shutil.copy(SCRIPTS.parent / "BENCHMARK.json", checkout)

    def stub_run(path, workload, seed, seconds, trace):
        change = path != checkout
        values = {
            "units_per_s": (100 + seed) * (0.9 if change else 1),  # 10% worse, bound 25%
            "cpu_s": (1 + seed / 100) * (1.5 if change else 1),  # 50% worse, bound 25%
            "peak_rss_mb": 10.0 * seed - (1 if change else 0),  # parent spread 60%, bound 10%
            "setup_s": 0.5 if change else float(seed),  # spread 60%, but every change run is better
        }  # queries_per_unit: no run reports it
        metrics = {name: {"value": value} for name, value in values.items()}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    argv = ["--aa", str(checkout), "--workload", "cold-local", "--seeds", "1-4", "--label", "t",
            "--out-dir", str(tmp_path)]
    assert bench_pairs.main(argv, run=stub_run) == 0
    assert capsys.readouterr().out.splitlines()[-5:] == [
        "units_per_s verdict: within bound (bound 0.25, parent spread (q3 - q1) / median 0.015)",
        "queries_per_unit verdict: unresolved: no pair reports it (bound 0.05)",
        "cpu_s verdict: worse beyond bound (bound 0.25, parent spread (q3 - q1) / median 0.015)",
        "peak_rss_mb verdict: unresolved (bound 0.1, parent spread (q3 - q1) / median 0.600)",
        "setup_s verdict: within bound (bound 0.25, parent spread (q3 - q1) / median 0.600)",
    ]


def test_bench_pairs_makes_a_missing_out_dir_before_the_first_pair(tmp_path, capsys):
    bench_pairs = load_bench_pairs()
    checkout = tmp_path / "checkout"
    (checkout / "src" / "lexiforge").mkdir(parents=True)
    shutil.copy(SCRIPTS.parent / "BENCHMARK.json", checkout)
    out_dir = tmp_path / "runs" / "nested"

    def stub_run(path, workload, seed, seconds, trace):
        assert out_dir.is_dir()
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"units_per_s": {"value": 1.0, "unit": "units/s"}}}

    argv = ["--aa", str(checkout), "--workload", "cold-local", "--seeds", "1",
            "--label", "t", "--out-dir", str(out_dir)]
    assert bench_pairs.main(argv, run=stub_run) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["BENCH_t-change.json", "BENCH_t-parent.json"]


@pytest.mark.parametrize("missing", ["parent", "change"])
def test_bench_pairs_stops_before_the_first_pair_without_benchmark_json(tmp_path, capsys, missing):
    bench_pairs = load_bench_pairs()
    checkouts = {}
    for side in ("parent", "change"):
        checkout = checkouts[side] = tmp_path / side
        (checkout / "src" / "lexiforge").mkdir(parents=True)
        if side != missing:
            shutil.copy(SCRIPTS.parent / "BENCHMARK.json", checkout)
    runs = []

    def stub_run(path, workload, seed, seconds, trace):
        runs.append(path)
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}

    argv = ["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]), "--workload", "cold-local",
            "--seeds", "1-10", "--label", "t", "--out-dir", str(tmp_path / "out")]
    assert bench_pairs.main(argv, run=stub_run) == 2
    assert runs == [] and not (tmp_path / "out").exists()
    assert capsys.readouterr().err == f"error: {checkouts[missing] / 'BENCHMARK.json'} not found\n"


@pytest.mark.parametrize("claim", ["peak_rss_mb", "units_per_s", "cpu_s", "queries_per_unit"])
def test_bench_pairs_gives_a_claimed_metric_a_gain_verdict(tmp_path, capsys, claim):
    bench_pairs = load_bench_pairs()
    checkout = tmp_path / "checkout"
    (checkout / "src" / "lexiforge").mkdir(parents=True)
    shutil.copy(SCRIPTS.parent / "BENCHMARK.json", checkout)

    def stub_run(path, workload, seed, seconds, trace):
        change = path != checkout
        values = {
            # 2 MB less in 9 of 10 pairs, 1 MB more at seed 5; parent spread 0.045 MB
            "peak_rss_mb": 30 + seed / 100 + (0 if not change else 1 if seed == 5 else -2),
            "units_per_s": 100 + seed + change,  # better in 10/10, by less than the spread of 4.5
            "cpu_s": (1 + seed / 100) * (1 if not change else 0.5 if seed <= 8 else 1.1),  # better in 8/10
        }  # queries_per_unit: no run reports it
        metrics = {name: {"value": value} for name, value in values.items()}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    argv = ["--aa", str(checkout), "--workload", "warm-replay", "--seeds", "1-10", "--label", "t",
            "--out-dir", str(tmp_path), "--claim", claim]
    assert bench_pairs.main(argv, run=stub_run) == 0
    assert capsys.readouterr().out.splitlines()[-1] == {
        "peak_rss_mb": "peak_rss_mb claim: met (change better in 9/10 pairs, "
                       "median gain / parent median 0.066, parent spread (q3 - q1) / median 0.001)",
        "units_per_s": "units_per_s claim: not met (change better in 10/10 pairs, "
                       "median gain / parent median 0.009, parent spread (q3 - q1) / median 0.043)",
        "cpu_s": "cpu_s claim: not met (change better in 8/10 pairs, "
                 "median gain / parent median 0.500, parent spread (q3 - q1) / median 0.043)",
        "queries_per_unit": "queries_per_unit claim: not met (no pair reports it)",
    }[claim]


def test_bench_pairs_stops_before_the_first_pair_on_a_claim_of_an_unlisted_metric(tmp_path, capsys):
    bench_pairs = load_bench_pairs()
    checkout = tmp_path / "checkout"
    (checkout / "src" / "lexiforge").mkdir(parents=True)
    shutil.copy(SCRIPTS.parent / "BENCHMARK.json", checkout)
    runs = []

    def stub_run(path, workload, seed, seconds, trace):
        runs.append(path)
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}

    argv = ["--aa", str(checkout), "--workload", "warm-replay", "--seeds", "1-10", "--label", "t",
            "--out-dir", str(tmp_path / "out"), "--claim", "peak_rss"]
    assert bench_pairs.main(argv, run=stub_run) == 2
    assert runs == [] and not (tmp_path / "out").exists()
    assert capsys.readouterr().err == "error: --claim peak_rss: BENCHMARK.json lists no such metric\n"
