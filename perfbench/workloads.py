"""Workload definitions: generator inputs and program settings per workload.

Every workload runs the program with ``oracle.parallelism`` at NPROC and
every other setting at its default, except two. The extraction thresholds
take the desk-scale values of the bundled fixture's
``tests/data/run.config`` (the defaults are sized for the open web and
would reject every generated unit). ``pipeline.workers`` is NPROC where
queries wait on the network (live-http) and 1 on the CPU-bound workloads:
there two workers only contend for the interpreter lock, and the wall time
of that contention follows the host's scheduling rather than the program,
so it cannot be measured steadily. Traced runs time the other worker count
too (``pipeline.pool_gain``), so the pool's cost stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from generate import GenSpec

# Cores of the reference machine; fixed so that runs on other machines use
# the same program settings.
NPROC = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: GenSpec
    workers: int = 1
    stub_latency_s: float = 0.0
    rate_per_sec: float | None = None

    def config_lines(self) -> dict[str, str]:
        lines = {
            "extract.corpus_freq_min": "10",
            "extract.literal_freq_min": "2",
            "extract.article_freq_min": "1",
            "lang.source": "fr",
            "lang.target": "en",
            "pipeline.workers": str(self.workers),
            "oracle.parallelism": str(NPROC),
        }
        if self.rate_per_sec is not None:
            lines["oracle.rate_per_sec"] = str(self.rate_per_sec)
        return lines


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cold-local",
            why="extract then translate 1,000 units against the in-process local index from an empty"
            " cache: parsing, extraction, web filter, index lookups and cache writes do the work",
            spec=GenSpec(copies=50, family=5, depth=8),
        ),
        Workload(
            name="warm-replay",
            why="offline translate of 1,000 units with deep worlds from a recorded cache: tagging,"
            " world building, Jaccard, mining and cache reads do the work, backends none",
            spec=GenSpec(copies=50, family=5, depth=100, function_words=False, held_back=0.03),
        ),
        Workload(
            name="live-http",
            why="translate 100 units through the HTTP backend against a stub engine with fixed"
            " latency from a cold cache: wall time is queries x latency / overlap",
            spec=GenSpec(copies=5, family=5, depth=8),
            workers=NPROC,
            stub_latency_s=0.020,
            rate_per_sec=1000.0,
        ),
    )
}
