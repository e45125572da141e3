"""Chaos against fused dispatch.

Fusion moves many jobs across the process boundary in one message, so
the failure model gains a hazard the plain path never had: a worker
dying *mid-batch* (some sub-jobs finished, some not).  These tests
inject exactly that fault and pin the recovery contract: only
unfinished sub-jobs are re-dispatched, and no verdict is ever lost or
double-reported.
"""

from repro import chaos
from repro.core import Config
from repro.engine import EngineStats, Scheduler
from repro.engine.jobs import plan_transformation
from repro.ir import parse_transformation

#: 4 type assignments -> 4 sub-jobs, all of one rule: fuses into a
#: single batch, which a single pool worker then streams
CONFIG = Config(max_width=8, prefer_widths=(4, 8),
                max_type_assignments=4)

GOOD = parse_transformation("%r = add %x, 0\n=>\n%r = %x\n", "good")


def fused_payloads():
    plan = plan_transformation(GOOD, CONFIG, "chaos-fp")
    payloads = [job.payload() for job in plan.jobs]
    assert len(payloads) == 4
    return payloads


def run_fused(plan, jobs=2, fuse=8):
    """One fused batch through the pool; returns (outcomes, stats,
    per-key on_outcome counts)."""
    payloads = fused_payloads()
    stats = EngineStats()
    reports = {}

    def count(key, outcome):
        reports[key] = reports.get(key, 0) + 1

    scheduler = Scheduler(jobs=jobs, max_retries=2, fuse=fuse)
    with chaos.active_plan(plan):
        outcomes = scheduler.run(payloads, stats=stats, on_outcome=count)
    return payloads, outcomes, stats, reports


class TestCrashMidFusedBatch:
    def test_only_unfinished_subjobs_redispatch(self):
        # sub-job #1 of the batch is marked to crash the worker: sub 0
        # has already streamed its outcome back when the process dies
        plan = chaos.FaultPlan([chaos.FaultSpec(
            "engine.worker.run", chaos.KIND_CRASH, times=[1])], seed=7)
        payloads, outcomes, stats, reports = run_fused(plan)

        assert plan.fired_total() == 1
        assert stats.crashes == 1
        assert stats.retries == 1  # the sub that was running, only
        assert stats.errors == 0
        # every verdict present and correct, none double-reported
        assert sorted(outcomes) == sorted(p["key"] for p in payloads)
        assert all(o["status"] == "valid" for o in outcomes.values())
        assert reports == {p["key"]: 1 for p in payloads}
        # the finished sub-job was NOT re-executed after the crash:
        # every job ran exactly once except the crashed dispatch itself
        assert stats.jobs_executed == len(payloads)

    def test_persistent_crash_degrades_only_the_poisoned_tail(self):
        # invocations 0-3 are the batch dispatch (sub 1 crashes the
        # worker mid-batch); 4-8 crash the plain re-dispatches too, so
        # subs 1 and 2 exhaust their retry budget and degrade
        plan = chaos.FaultPlan([chaos.FaultSpec(
            "engine.worker.run", chaos.KIND_CRASH,
            times=[1, 4, 5, 6, 7, 8])], seed=7)
        payloads = fused_payloads()
        stats = EngineStats()
        scheduler = Scheduler(jobs=2, max_retries=2, fuse=8)
        with chaos.active_plan(plan):
            outcomes = scheduler.run(payloads, stats=stats)
        assert sorted(outcomes) == sorted(p["key"] for p in payloads)
        statuses = [outcomes[p["key"]]["status"] for p in payloads]
        # at least the batch's pre-crash prefix verified; nothing is
        # ever reported with a verdict that was not actually computed
        assert statuses[0] == "valid"
        assert all(s in ("valid", "unknown") for s in statuses)
        assert stats.crashes >= 1
        assert stats.crashes == stats.retries + stats.errors
