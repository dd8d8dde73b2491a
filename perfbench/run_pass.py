"""One measured pass, in a fresh interpreter, as a user's command-line runs
would be: the workload's ``lexiforge`` commands run in-process one after
the other, each timed, with set-up time and CPU split off.

Reads a JSON spec (``commands``: list of argv lists; ``trace``: path for
the span file, or null) and prints one JSON object with the measurements.

Usage: python3 perfbench/run_pass.py SPEC.json
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
from pathlib import Path

import harness

# Where the program sets up a run: dictionary, oracle (index or cache) and
# the context holding taggers and stopwords.
SETUP_NAMES = ("load_dictionary", "build_oracle", "build_world_context")


class Probe:
    """Always-on, cheap instrumentation: time and CPU spent in set-up, calls
    sent to any backend, and lookups made through the oracle."""

    def __init__(self):
        import lexiforge.backends as backends
        import lexiforge.cli as cli
        from lexiforge.oracle import SearchOracle

        self.setup_s = self.setup_cpu_s = 0.0
        self.backend_calls = self.lookups = 0
        self._lock = threading.Lock()
        self._depth = threading.local()
        for name in SETUP_NAMES:
            if not hasattr(cli, name):
                raise SystemExit(f"benchmark needs lexiforge.cli.{name}, which this version lacks")
            setattr(cli, name, self._timed_setup(getattr(cli, name)))
        for cls in [c for c in vars(backends).values() if isinstance(c, type) and "execute" in vars(c)]:
            cls.execute = self._counted(cls.execute, "backend_calls")
        SearchOracle.execute = self._counted(SearchOracle.execute, "lookups")

    def _timed_setup(self, fn):
        def timed(*args, **kwargs):
            depth = getattr(self._depth, "n", 0)
            self._depth.n = depth + 1
            started, cpu_started = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth.n = depth
                if depth == 0:
                    self.setup_s += time.perf_counter() - started
                    self.setup_cpu_s += time.process_time() - cpu_started

        return timed

    def _counted(self, fn, counter):
        def counted(*args, **kwargs):
            with self._lock:
                setattr(self, counter, getattr(self, counter) + 1)
            return fn(*args, **kwargs)

        return counted


def run(spec: dict) -> dict:
    harness.use_source_tree()
    harness.bypass_proxies()
    probe = Probe()
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    commands = []
    for argv in spec["commands"]:
        setup0, setup_cpu0 = probe.setup_s, probe.setup_cpu_s
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            code = harness.run_cli(argv)
        except Exception as exc:  # a crash fails every unit of the pass
            print(f"{argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            code = None
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        commands.append({
            "command": argv[0],
            "exit": code,
            "wall_s": wall,
            "setup_s": probe.setup_s - setup0,
            "cpu_s": cpu - (probe.setup_cpu_s - setup_cpu0),
        })
    result = {
        "commands": commands,
        "backend_calls": probe.backend_calls,
        "lookups": probe.lookups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracing.layer_metrics(tracer)
        result["absent"] = tracer.absent
        tracer.write(Path(spec["trace"]))
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")))))
