"""The benchmark (``perfbench/``) measures the program from outside, by
wrapping the names the program looks up. A renamed or bypassed name does not
fail the benchmark: its metric silently reads 0. This test fails instead."""

from pathlib import Path

import lexiforge.cli as cli

from test_cli import run, translate_args

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_hooks_resolve_and_fire(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run_pass
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code, _, _ = run(translate_args(tmp_path / "run"), capsys)
    finally:
        tracer.restore()

    assert code == 0
    assert tracer.absent == {}
    assert all(hasattr(cli, name) for name in run_pass.SETUP_NAMES)
    metrics = tracing.layer_metrics(tracer)
    for name in ("phase1.units", "phase2.worlds_built", "phase3.validate_runs", "generation.candidates"):
        assert metrics[name] > 0, name
