"""``repro.engine`` — parallel batch verification with a persistent cache.

The paper's workflow is batch-shaped: Alive verified 334 InstCombine
transformations, each fanned out over many feasible type assignments
(§3.2, §6).  This subsystem decomposes such a corpus into independent
per-type-assignment refinement jobs (:mod:`.jobs`), runs them across a
``multiprocessing`` worker pool with timeouts and bounded retries
(:mod:`.scheduler`), replays previously-computed verdicts from a
persistent content-addressed cache (:mod:`.cache`), and reassembles the
per-job outcomes into the exact :class:`~repro.core.verifier.
VerificationResult` values the sequential driver would have produced.

Equivalence with :func:`repro.core.verifier.verify` is by construction:
decomposition and aggregation share the driver's own hooks
(:func:`~repro.core.verifier.decompose` and
:class:`~repro.core.verifier.ResultBuilder`), and outcomes are fed to
the aggregator in type-enumeration order, so the first terminal
outcome — the one the sequential loop would have stopped at — decides
the verdict and the counterexample text byte-for-byte.

Entry point::

    from repro.engine import run_batch
    results = run_batch(transformations, config, jobs=4)
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from .. import chaos
from ..core.config import Config, DEFAULT_CONFIG
from ..core.refinement import CheckOutcome
from ..core.verifier import ResultBuilder, VerificationResult
from ..ir import ast
from .cache import ResultCache, semantics_fingerprint
from .jobs import JobSpec, TransformationPlan, plan_transformation
from .scheduler import Scheduler, SchedulerStats
from .stats import EngineStats

__all__ = [
    "EngineStats",
    "aggregate_plan",
    "JobSpec",
    "ResultCache",
    "Scheduler",
    "SchedulerStats",
    "TransformationPlan",
    "plan_transformation",
    "run_batch",
    "semantics_fingerprint",
    "submit_jobs",
]


def aggregate_plan(plan: TransformationPlan,
                   outcomes: dict) -> VerificationResult:
    """Reassemble one transformation's result from its job outcomes.

    Shared by :func:`run_batch` and the serving layer: outcomes are fed
    in type-enumeration order so the verdict (and counterexample text)
    is byte-identical to the sequential driver's.

    The result's ``elapsed`` is the sum of the ``elapsed`` times of the
    jobs fed up to the verdict, i.e. the time the sequential driver
    would have spent checking them.  A cache hit carries no job time
    and contributes 0, so a fully cached rule reports 0 s.
    """
    if plan.early is not None:
        return plan.early
    builder = ResultBuilder(plan.transformation.name)
    elapsed = 0.0
    for job in plan.jobs:  # enumeration order == sequential check order
        outcome = outcomes[job.key]
        elapsed += outcome.get("elapsed", 0.0)
        result = builder.add(CheckOutcome.from_dict(outcome))
        if result is not None:
            break
    else:
        result = builder.finish()
    result.elapsed = elapsed
    return result


def submit_jobs(
    payloads: Sequence[dict],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[EngineStats] = None,
    max_retries: int = 1,
    scheduler: Optional[Scheduler] = None,
) -> dict:
    """Resolve raw job payloads; returns a key → outcome-dict map.

    The payload-level core of the engine, shared by :func:`run_batch`
    and the serving layer (:mod:`repro.serve`), which calls it from a
    worker thread so an asyncio event loop never blocks on SMT work.
    Each unique key is resolved exactly once, in cost order:

    1. **dedup** — later payloads with an already-seen key are folded
       into the first (``stats.jobs_deduped``);
    2. **cache fast path** — a persistent-cache hit short-circuits
       before any scheduler dispatch (``stats.cache_hits``);
    3. **one scheduler dispatch** for everything left; non-transient
       outcomes are *checkpointed* into the cache the moment each job
       resolves (not after the batch), so a run killed mid-flight
       resumes from the cache without re-verifying finished jobs.

    Pass a long-lived *scheduler* to accumulate dispatch statistics
    across calls (its snapshot lands in ``stats.scheduler``); otherwise
    a throwaway ``Scheduler(jobs, max_retries)`` is used.
    """
    stats = stats if stats is not None else EngineStats()
    outcomes: dict = {}
    to_run: List[dict] = []
    seen_keys = set()
    for payload in payloads:
        key = payload["key"]
        if key in seen_keys:
            stats.jobs_deduped += 1
            continue
        seen_keys.add(key)
        entry = cache.get(key) if cache is not None else None
        if entry is not None:
            stats.cache_hits += 1
            outcomes[key] = entry["outcome"]
        else:
            to_run.append(payload)

    if to_run:
        if scheduler is None:
            scheduler = Scheduler(jobs=jobs, max_retries=max_retries)

        def checkpoint(key: str, outcome: dict) -> None:
            """Persist one resolved outcome immediately (crash safety)."""
            if cache is not None and not outcome.get("transient"):
                # transient = scheduler gave up; do not poison the cache
                record = {
                    k: v for k, v in outcome.items()
                    if k not in ("key", "elapsed")
                }
                cache.put(key, record,
                          elapsed=outcome.get("elapsed", 0.0))
            spec = chaos.fire("engine.batch.abort", key=key)
            if spec is not None and spec.kind == chaos.KIND_KILL:
                raise chaos.InjectedKill(
                    "chaos: batch driver killed after checkpoint")

        try:
            fresh = scheduler.run(to_run, stats=stats,
                                  on_outcome=checkpoint)
        finally:
            stats.scheduler = scheduler.total_stats.to_dict()
        outcomes.update(fresh)
    return outcomes


def run_batch(
    transformations: Sequence[ast.Transformation],
    config: Config = DEFAULT_CONFIG,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[EngineStats] = None,
    max_retries: int = 1,
) -> List[VerificationResult]:
    """Verify a corpus of transformations as a parallel cached batch.

    Args:
        transformations: the corpus, in reporting order.
        config: verification knobs (hashed into every job key).
        jobs: worker processes; ``1`` runs in-process (no pool).
        cache: persistent verdict cache, or None to disable caching.
        stats: an :class:`EngineStats` to fill in (optional).
        max_retries: bounded resubmissions for crashed workers.

    Returns one :class:`VerificationResult` per transformation, in
    input order, identical to ``[verify(t, config) for t in ...]``.
    """
    stats = stats if stats is not None else EngineStats()
    start = time.monotonic()
    fingerprint = cache.fingerprint if cache is not None \
        else semantics_fingerprint()

    # counters accumulate so one EngineStats can span several batches
    plans = [plan_transformation(t, config, fingerprint)
             for t in transformations]
    stats.transformations += len(plans)

    payloads: List[dict] = []
    for plan in plans:
        stats.jobs_total += len(plan.jobs)
        payloads.extend(job.payload() for job in plan.jobs)

    outcomes = submit_jobs(payloads, jobs=jobs, cache=cache, stats=stats,
                           max_retries=max_retries)
    results = [aggregate_plan(plan, outcomes) for plan in plans]
    stats.wall_time += time.monotonic() - start
    return results
