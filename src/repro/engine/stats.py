"""Per-batch execution statistics for the verification engine.

Counters answer the operational questions a batch run raises — how much
work was real vs. replayed from cache, how often workers had to be
retried or timed out, and what the job latency distribution looks like.
``alive-repro verify-batch --stats`` prints the summary table after the
verdicts; tests use the counters to assert cache behavior (a warm run
must execute zero refinement checks).
"""

from __future__ import annotations

import math
from typing import List, Optional


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(math.ceil(fraction * len(ordered))) - 1))
    return ordered[rank]


class EngineStats:
    """Counters and timings collected over one batch run.

    Attributes:
        transformations: transformations in the batch.
        jobs_total: refinement jobs after decomposition (pre-dedup).
        jobs_deduped: jobs folded into an identical job in the same batch.
        cache_hits: jobs answered from the persistent cache.
        jobs_executed: refinement checks actually run (cold work).
        retries: worker attempts beyond the first, across all jobs.
        timeouts: jobs whose outcome was a wall-clock budget expiry.
        crashes: worker processes that died mid-job (segfault, OOM
            kill, ``os._exit``) — distinct from raised errors.
        errors: jobs abandoned after exhausting their retry budget.
        latencies: per-executed-job wall-clock seconds.
        scheduler: structured snapshot of the last scheduler dispatch
            (:class:`~repro.engine.scheduler.SchedulerStats` as a dict),
            or None when nothing was dispatched.
    """

    def __init__(self):
        self.transformations = 0
        self.jobs_total = 0
        self.jobs_deduped = 0
        self.cache_hits = 0
        self.jobs_executed = 0
        self.retries = 0
        self.timeouts = 0
        self.crashes = 0
        self.errors = 0
        self.latencies: List[float] = []
        self.wall_time = 0.0
        self.scheduler: Optional[dict] = None

    def record_latency(self, seconds: float) -> None:
        self.latencies.append(seconds)

    @property
    def p50(self) -> float:
        return percentile(self.latencies, 0.50)

    @property
    def p95(self) -> float:
        return percentile(self.latencies, 0.95)

    @property
    def p99(self) -> float:
        return percentile(self.latencies, 0.99)

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Fold *other*'s counters into this one; returns self.

        Used to combine stats from independent runs — per-worker or
        per-micro-batch — into one aggregate.  Counters and latency
        samples add; ``wall_time`` takes the maximum because merged
        runs are assumed to have overlapped in time (the serving layer
        merges per-dispatch stats gathered concurrently).
        """
        self.transformations += other.transformations
        self.jobs_total += other.jobs_total
        self.jobs_deduped += other.jobs_deduped
        self.cache_hits += other.cache_hits
        self.jobs_executed += other.jobs_executed
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.crashes += other.crashes
        self.errors += other.errors
        self.latencies.extend(other.latencies)
        self.wall_time = max(self.wall_time, other.wall_time)
        if other.scheduler is not None:
            self.scheduler = other.scheduler
        return self

    def to_dict(self) -> dict:
        """Plain-data form for JSON artifacts (benchmarks, CI)."""
        return {
            "transformations": self.transformations,
            "jobs_total": self.jobs_total,
            "jobs_deduped": self.jobs_deduped,
            "cache_hits": self.cache_hits,
            "jobs_executed": self.jobs_executed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "errors": self.errors,
            "p50_latency": self.p50,
            "p95_latency": self.p95,
            "p99_latency": self.p99,
            "wall_time": self.wall_time,
            "scheduler": self.scheduler,
        }

    def format_table(self) -> str:
        """The ``--stats`` summary table."""
        rows = [
            ("transformations", "%d" % self.transformations),
            ("jobs (total)", "%d" % self.jobs_total),
            ("jobs deduplicated", "%d" % self.jobs_deduped),
            ("cache hits", "%d" % self.cache_hits),
            ("jobs executed", "%d" % self.jobs_executed),
            ("retries", "%d" % self.retries),
            ("timeouts", "%d" % self.timeouts),
            ("worker crashes", "%d" % self.crashes),
            ("errors", "%d" % self.errors),
            ("p50 job latency", "%.3fs" % self.p50),
            ("p95 job latency", "%.3fs" % self.p95),
            ("wall time", "%.2fs" % self.wall_time),
        ]
        width = max(len(label) for label, _ in rows)
        lines = ["batch statistics", "-" * (width + 12)]
        for label, value in rows:
            lines.append("%-*s %10s" % (width, label, value))
        return "\n".join(lines)
