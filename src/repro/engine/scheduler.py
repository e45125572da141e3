"""Job scheduling across a ``multiprocessing`` worker pool.

The worker entry point :func:`run_job` is deliberately self-contained:
it receives only plain data (transformation text, assignment index,
config knobs), re-plans the rule in the worker process with the
planner's own :func:`~repro.core.verifier.decompose`, and returns a
plain-data outcome dict.  Re-deriving the type assignment from its
enumeration index is sound because enumeration is deterministic in the
(text, knobs) pair — the same determinism the content-addressed job
keys rely on — and it is cheap next to the SMT work the job exists to
parallelize.

The scheduler layers four robustness mechanisms on top of the pool
(:mod:`repro.engine.pool`, which manages worker processes directly so
failures are attributable):

* **per-job timeouts** — the solver stack honours a cooperative
  wall-clock deadline (``Config.time_limit``), and the scheduler adds a
  hard deadline as a backstop for jobs stuck outside the solver loop: a
  worker past it is SIGKILLed and the job reported ``timed_out``;
* **crash classification** — a worker that *dies* (segfault, OOM kill,
  ``os._exit``) is distinguished from one that raises and from one
  that times out; the pool is recycled and the crashed job re-dispatched
  within the retry budget;
* **bounded retries** — a job whose worker raises or dies is
  resubmitted up to ``max_retries`` times, then degraded to an
  ``unknown`` outcome rather than failing the batch;
* **graceful degradation** — with ``jobs <= 1`` everything runs
  in-process through the very same code path (worker crashes become
  :class:`~repro.chaos.WorkerCrash` so the driver survives them), so
  batch verification works identically where fork/spawn is unavailable.

Every resolved outcome is reported through an optional ``on_outcome``
callback *as it completes*, which is how ``submit_jobs`` checkpoints
progress into the persistent cache: a batch killed mid-run resumes from
the cache instead of re-verifying finished jobs.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from .. import chaos
from .pool import WORKER_SITE, run_pool
from .stats import EngineStats

#: grace factor applied to Config.time_limit for the hard pool timeout
_HARD_TIMEOUT_SLACK = 3.0
_HARD_TIMEOUT_FLOOR = 30.0


# ----------------------------------------------------------------------
# Resident worker state.  A long-lived worker process keeps the most
# recently dispatched rules, parsed/typechecked/enumerated once per
# rule instead of once per job.  Solver state is never resident:
# every refinement query gets its own solver (a CEGIS loop its own
# session, dropped on return), so a job's outcome is a function of its
# payload alone, never of worker history — that is what makes the
# content-addressed cache and warm/cold worker parity sound.  What
# stays warm across jobs is the rule plan cache, the hash-consed term
# table, and the process itself.  See DESIGN.md, "Incremental solving".
# ----------------------------------------------------------------------

#: (text, knobs_json) -> {"t", "config", "checker", "mappings"}
_RESIDENT_RULES: "OrderedDict" = OrderedDict()
_RESIDENT_RULE_LIMIT = 4


def _resident_plan(text: str, knobs: dict) -> dict:
    """Plan a rule once, with the planner's own
    :func:`~repro.core.verifier.decompose`; serve repeats from cache."""
    from ..core.config import Config
    from ..core.verifier import decompose
    from ..ir import parse_transformations

    key = (text, json.dumps(knobs, sort_keys=True))
    plan = _RESIDENT_RULES.get(key)
    if plan is not None:
        _RESIDENT_RULES.move_to_end(key)
        return plan
    t = parse_transformations(text)[0]
    config = Config.from_dict(knobs)
    early, checker, mappings = decompose(t, config)
    if early is not None:
        # the planner emitted jobs for this rule, so it decomposed there
        raise RuntimeError("rule %s no longer decomposes into jobs: %s"
                           % (t.name, early.detail))
    plan = {"t": t, "config": config, "checker": checker,
            "mappings": mappings}
    _RESIDENT_RULES[key] = plan
    while len(_RESIDENT_RULES) > _RESIDENT_RULE_LIMIT:
        _RESIDENT_RULES.popitem(last=False)
    return plan


def run_job(payload: dict) -> dict:
    """Execute one refinement job; the worker-process entry point.

    *payload* is ``JobSpec.payload()``.  Returns the job's
    :class:`~repro.core.refinement.CheckOutcome` as a dict, augmented
    with the job key and its wall-clock time.  Never raises for
    verification-level failures (those are outcomes); programming
    errors propagate so the scheduler can retry.

    Re-deriving the type assignment from its enumeration index is
    sound because the worker plans the rule with the planner's own
    ``decompose``, which is deterministic in the (text, knobs) pair —
    the same determinism the content-addressed job keys rely on — and
    with the resident rule cache it costs one parse/enumerate per rule
    per worker, not per job.
    """
    from ..core.refinement import check_assignment
    from ..core.semantics import Unsupported
    from ..core.typecheck import TypeAssignment

    start = time.monotonic()
    plan = _resident_plan(payload["text"], payload["knobs"])
    mappings = plan["mappings"]
    if payload["index"] >= len(mappings):
        raise RuntimeError(
            "job %s: type assignment %d no longer enumerable"
            % (payload["key"][:12], payload["index"])
        )
    try:
        outcome = check_assignment(
            plan["t"], TypeAssignment(plan["checker"], mappings[payload["index"]]),
            plan["config"],
        )
        result = outcome.to_dict()
    except Unsupported as e:
        result = {"status": "unsupported", "counterexample": None,
                  "kind": None, "queries": 0, "detail": str(e),
                  "timed_out": False}
    result["key"] = payload["key"]
    result["elapsed"] = time.monotonic() - start
    return result


class SchedulerStats:
    """Structured snapshot of scheduler-level dispatch activity.

    Distinct from :class:`EngineStats` (which also counts planning,
    dedup and cache activity the scheduler never sees): this is the
    machine-readable record of what one or more ``Scheduler.run``
    calls actually dispatched — consumed by ``--stats-json``, the
    serving layer's ``/metrics`` endpoint, and the benchmarks.
    """

    __slots__ = ("dispatches", "jobs_dispatched", "retries", "timeouts",
                 "crashes", "errors", "wall_time")

    def __init__(self, dispatches: int = 0, jobs_dispatched: int = 0,
                 retries: int = 0, timeouts: int = 0, crashes: int = 0,
                 errors: int = 0, wall_time: float = 0.0):
        self.dispatches = dispatches
        self.jobs_dispatched = jobs_dispatched
        self.retries = retries
        self.timeouts = timeouts
        self.crashes = crashes
        self.errors = errors
        self.wall_time = wall_time

    def merge(self, other: "SchedulerStats") -> "SchedulerStats":
        """Accumulate *other* (a later run) into this snapshot."""
        self.dispatches += other.dispatches
        self.jobs_dispatched += other.jobs_dispatched
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.crashes += other.crashes
        self.errors += other.errors
        self.wall_time += other.wall_time
        return self

    def to_dict(self) -> dict:
        return {
            "dispatches": self.dispatches,
            "jobs_dispatched": self.jobs_dispatched,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "errors": self.errors,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SchedulerStats":
        return cls(**data)


def _error_outcome(key: str, message: str, timed_out: bool = False) -> dict:
    """The outcome recorded for a job the scheduler gave up on.

    Reported as "unknown": the verdict is genuinely undecided, which
    aggregates conservatively (never claims "valid" for unchecked
    work).  Error outcomes are not written to the persistent cache.
    """
    return {"status": "unknown", "counterexample": None, "kind": None,
            "queries": 0, "detail": message, "timed_out": timed_out,
            "key": key, "elapsed": 0.0, "transient": True}


class Scheduler:
    """Run a list of job payloads, in-process or across a pool.

    ``worker`` is the per-payload entry point, defaulting to the
    refinement :func:`run_job`.  Other subsystems (the fuzz campaign
    driver) reuse the scheduler's pool/retry/timeout machinery by
    passing their own module-level worker function — it must be
    picklable, take one payload dict and return one outcome dict
    containing at least ``"key"``.  Every payload crosses the process
    boundary as one message and comes back as one outcome.
    """

    def __init__(self, jobs: int = 1, max_retries: int = 1, worker=None):
        self.jobs = max(1, jobs)
        self.max_retries = max(0, max_retries)
        self.worker = worker if worker is not None else run_job
        #: snapshot of the most recent run() call
        self.last_stats: Optional[SchedulerStats] = None
        #: accumulated snapshot across every run() on this scheduler
        self.total_stats = SchedulerStats()

    def _hard_timeout(self, payload: dict) -> Optional[float]:
        limit = payload.get("knobs", {}).get("time_limit")
        if limit is None:
            return None
        return max(_HARD_TIMEOUT_FLOOR, limit * _HARD_TIMEOUT_SLACK)

    def run(self, payloads: List[dict],
            stats: Optional[EngineStats] = None,
            on_outcome: Optional[Callable[[str, dict], None]] = None,
            ) -> Dict[str, dict]:
        """Execute *payloads*; returns a key → outcome-dict map.

        *on_outcome* is invoked with ``(key, outcome)`` the moment each
        job resolves — before the batch finishes — so callers can
        checkpoint partial progress (``submit_jobs`` writes the cache
        through it).  The snapshot bookkeeping runs even when the batch
        is interrupted mid-flight, so a killed run still reports what
        it dispatched.
        """
        stats = stats if stats is not None else EngineStats()
        before = (stats.retries, stats.timeouts, stats.crashes, stats.errors)
        start = time.monotonic()
        try:
            if self.jobs <= 1 or len(payloads) <= 1:
                outcomes = self._run_inline(payloads, stats, on_outcome)
            else:
                outcomes = self._run_pool(payloads, stats, on_outcome)
        finally:
            snapshot = SchedulerStats(
                dispatches=1,
                jobs_dispatched=len(payloads),
                retries=stats.retries - before[0],
                timeouts=stats.timeouts - before[1],
                crashes=stats.crashes - before[2],
                errors=stats.errors - before[3],
                wall_time=time.monotonic() - start,
            )
            self.last_stats = snapshot
            self.total_stats.merge(snapshot)
        return outcomes

    # ------------------------------------------------------------------

    def _record(self, stats: EngineStats, outcome: dict) -> None:
        stats.jobs_executed += 1
        stats.record_latency(outcome.get("elapsed", 0.0))
        if outcome.get("timed_out"):
            stats.timeouts += 1

    def _run_inline(self, payloads: List[dict], stats: EngineStats,
                    on_outcome: Optional[Callable[[str, dict], None]],
                    ) -> Dict[str, dict]:
        """Sequential in-process execution (``--jobs 1``).

        Chaos faults fire at the same site as the pool's, but a crash
        is acted out as :class:`~repro.chaos.WorkerCrash` (there is no
        worker process to die) and classified identically.
        """
        outcomes: Dict[str, dict] = {}
        for payload in payloads:
            attempts = 0
            while True:
                spec = chaos.fire(WORKER_SITE, key=payload["key"],
                                  attempt=attempts)
                try:
                    if spec is not None:
                        chaos.execute_worker_fault(
                            chaos.payload_fault(spec), inline=True)
                    outcome = self.worker(payload)
                    break
                except chaos.WorkerCrash as e:
                    stats.crashes += 1
                    if attempts >= self.max_retries:
                        stats.errors += 1
                        outcome = _error_outcome(
                            payload["key"], "worker crashed: %s" % e
                        )
                        break
                    attempts += 1
                    stats.retries += 1
                except Exception as e:
                    if attempts >= self.max_retries:
                        stats.errors += 1
                        outcome = _error_outcome(
                            payload["key"], "job failed: %s" % e
                        )
                        break
                    attempts += 1
                    stats.retries += 1
            self._record(stats, outcome)
            outcomes[payload["key"]] = outcome
            if on_outcome is not None:
                on_outcome(payload["key"], outcome)
        return outcomes

    def _run_pool(self, payloads: List[dict], stats: EngineStats,
                  on_outcome: Optional[Callable[[str, dict], None]],
                  ) -> Dict[str, dict]:
        """Parallel execution across the crash-safe worker pool."""
        return run_pool(
            self.worker,
            payloads,
            processes=min(self.jobs, len(payloads)),
            stats=stats,
            record=lambda outcome: self._record(stats, outcome),
            error_outcome=_error_outcome,
            max_retries=self.max_retries,
            hard_timeout=self._hard_timeout,
            on_outcome=on_outcome,
        )
