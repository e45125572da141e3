"""End-to-end chaos: injected faults against the real batch engine.

Every robustness promise in the failure model is exercised with real
verification jobs (tiny widths keep them fast): crashed workers retry
and still produce the right verdicts, persistent crashes degrade to
``unknown`` (never a wrong verdict), torn cache writes lose exactly
the torn record, and a killed batch resumes from its checkpoints.
"""

import pytest

from repro import chaos
from repro.core import Config
from repro.engine import EngineStats, ResultCache, run_batch
from repro.engine import scheduler as scheduler_mod
from repro.ir import parse_transformation

CONFIG = Config(max_width=4, prefer_widths=(4,), ptr_width=16,
                max_type_assignments=2)

GOOD = parse_transformation("%r = add %x, 0\n=>\n%r = %x\n", "good")
BAD = parse_transformation("%r = add %x, 1\n=>\n%r = add %x, 2\n", "bad")
GOOD2 = parse_transformation("%r = sub %x, 0\n=>\n%r = %x\n", "good2")
GOOD3 = parse_transformation("%r = mul %x, 1\n=>\n%r = %x\n", "good3")


def plan_of(*specs, seed=7):
    return chaos.FaultPlan(list(specs), seed=seed)


class TestWorkerCrashes:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_single_crash_retries_to_correct_verdicts(self, jobs,
                                                      monkeypatch):
        # count the on_outcome reports submit_jobs receives per key
        reports = {}
        real_run = scheduler_mod.Scheduler.run

        def counting_run(self, payloads, stats=None, on_outcome=None):
            def count(key, outcome):
                reports[key] = reports.get(key, 0) + 1
                if on_outcome is not None:
                    on_outcome(key, outcome)
            return real_run(self, payloads, stats=stats, on_outcome=count)

        monkeypatch.setattr(scheduler_mod.Scheduler, "run", counting_run)
        plan = plan_of(chaos.FaultSpec("engine.worker.run",
                                       chaos.KIND_CRASH, times=[0]))
        stats = EngineStats()
        with chaos.active_plan(plan):
            results = run_batch([GOOD, BAD], CONFIG, jobs=jobs,
                                stats=stats)
        assert [r.status for r in results] == ["valid", "invalid"]
        assert stats.crashes == 1
        assert stats.scheduler["retries"] == 1
        assert plan.fired_total() == 1
        # the crashed job is retried, yet no key is reported twice
        assert len(reports) == stats.jobs_total
        assert set(reports.values()) == {1}

    def test_persistent_crash_degrades_to_unknown_never_flips(self):
        plan = plan_of(chaos.FaultSpec("engine.worker.run",
                                       chaos.KIND_CRASH, every=1))
        stats = EngineStats()
        with chaos.active_plan(plan):
            results = run_batch([GOOD], CONFIG, stats=stats)
        # the verdict must degrade, not lie: never "valid", never
        # "invalid" for work that was never actually checked
        assert results[0].status == "unknown"
        assert stats.errors > 0
        # every attempt (first try + each retry) crashed
        assert stats.crashes == stats.scheduler["retries"] + stats.errors

    def test_injected_error_is_retried_like_a_raise(self):
        plan = plan_of(chaos.FaultSpec("engine.worker.run",
                                       chaos.KIND_ERROR, times=[0]))
        with chaos.active_plan(plan):
            results = run_batch([GOOD], CONFIG)
        assert results[0].status == "valid"


class TestHangs:
    def test_hung_worker_times_out_and_siblings_survive(
            self, monkeypatch):
        monkeypatch.setattr(scheduler_mod, "_HARD_TIMEOUT_FLOOR", 0.3)
        monkeypatch.setattr(scheduler_mod, "_HARD_TIMEOUT_SLACK", 1.0)
        config = Config(max_width=4, prefer_widths=(4,), ptr_width=16,
                        max_type_assignments=2, time_limit=0.05)
        plan = plan_of(chaos.FaultSpec(
            "engine.worker.run", chaos.KIND_HANG, times=[0],
            args={"seconds": 60.0}))
        stats = EngineStats()
        with chaos.active_plan(plan):
            results = run_batch([GOOD, GOOD2], config, jobs=2,
                                stats=stats)
        statuses = sorted(r.status for r in results)
        assert statuses == ["unknown", "valid"]
        assert stats.scheduler["timeouts"] == 1


class TestTornCacheWrites:
    def test_torn_write_loses_only_the_torn_record(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        plan = plan_of(chaos.FaultSpec("cache.append", chaos.KIND_TORN,
                                       times=[1]))
        stats = EngineStats()
        with chaos.active_plan(plan):
            run_batch([GOOD, GOOD2, GOOD3], CONFIG,
                      cache=ResultCache(path, fingerprint="fp"),
                      stats=stats)
        total = stats.jobs_total
        assert total >= 3

        reloaded = ResultCache(path, fingerprint="fp")
        assert reloaded.skipped_corrupt == 1
        assert len(reloaded) == total - 1  # every intact record loads

        # re-running heals: the lost job re-verifies and re-appends
        # (the torn fragment gets its terminator repaired first)
        heal_stats = EngineStats()
        results = run_batch([GOOD, GOOD2, GOOD3], CONFIG, cache=reloaded,
                            stats=heal_stats)
        assert [r.status for r in results] == ["valid"] * 3
        assert heal_stats.cache_hits == total - 1
        assert heal_stats.jobs_executed == 1

        healed = ResultCache(path, fingerprint="fp")
        assert len(healed) == total
        assert healed.skipped_corrupt == 1  # the fragment is still there
        healed.compact()
        assert ResultCache(path, fingerprint="fp").skipped_corrupt == 0

    def test_corrupt_write_is_caught_by_crc(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        plan = plan_of(chaos.FaultSpec("cache.append", chaos.KIND_CORRUPT,
                                       times=[0]))
        stats = EngineStats()
        with chaos.active_plan(plan):
            run_batch([GOOD, GOOD2], CONFIG,
                      cache=ResultCache(path, fingerprint="fp"),
                      stats=stats)
        reloaded = ResultCache(path, fingerprint="fp")
        assert reloaded.skipped_corrupt == 1
        assert len(reloaded) == stats.jobs_total - 1


class TestCheckpointResume:
    def test_killed_batch_resumes_from_the_cache(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        corpus = [GOOD, GOOD2, GOOD3]

        cold_stats = EngineStats()
        run_batch(corpus, CONFIG, stats=cold_stats)
        total = cold_stats.jobs_total
        assert total > 2  # the kill must strike mid-batch

        # kill the driver right after the second checkpoint lands
        plan = plan_of(chaos.FaultSpec("engine.batch.abort",
                                       chaos.KIND_KILL, times=[1]))
        with chaos.active_plan(plan):
            with pytest.raises(KeyboardInterrupt):
                run_batch(corpus, CONFIG,
                          cache=ResultCache(path, fingerprint="fp"))

        checkpointed = ResultCache(path, fingerprint="fp")
        assert len(checkpointed) == 2
        assert checkpointed.skipped_corrupt == 0

        resume_stats = EngineStats()
        results = run_batch(corpus, CONFIG, cache=checkpointed,
                            stats=resume_stats)
        assert [r.status for r in results] == ["valid"] * 3
        assert resume_stats.cache_hits == 2
        assert resume_stats.jobs_executed == total - 2
