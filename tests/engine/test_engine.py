"""End-to-end engine behavior: equivalence, scheduling, stats."""

import pytest

from repro.core import Config, verify
from repro.engine import (
    EngineStats, ResultCache, Scheduler, aggregate_plan, run_batch,
)
from repro.engine import scheduler as scheduler_mod
from repro.engine.jobs import plan_transformation
from repro.ir import parse_transformation
from repro.suite import load_bugs, load_category

CONFIG = Config(max_width=4, prefer_widths=(4,), ptr_width=16,
                max_type_assignments=2)

GOOD = "%r = add %x, 0\n=>\n%r = %x\n"
BAD = "%r = add %x, 1\n=>\n%r = add %x, 2\n"

#: refuted at every format (-0.0 + 0.0 is +0.0); under a double-only
#: Config the counterexample must name double on every dispatch path
FADD_ZERO = "%r = fadd %x, 0.0\n=>\n%r = %x\n"
DOUBLE_CONFIG = Config(max_width=4, prefer_widths=(4,), ptr_width=16,
                       max_type_assignments=2, fp_formats=("double",))


def mixed_corpus():
    """A small batch covering valid, invalid and memory transformations."""
    ts = load_category("AddSub")[:8] + load_bugs()[:4]
    ts += load_category("LoadStoreAlloca")[:2]
    return ts


class TestEquivalence:
    """run_batch must be observationally identical to sequential verify."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_matches_sequential_verify(self, jobs):
        ts = mixed_corpus()
        sequential = [verify(t, CONFIG) for t in ts]
        batch = run_batch(ts, CONFIG, jobs=jobs)
        fadd_zero = parse_transformation(FADD_ZERO, "fadd-zero")
        sequential.append(verify(fadd_zero, DOUBLE_CONFIG))
        batch += run_batch([fadd_zero], DOUBLE_CONFIG, jobs=jobs)
        assert sequential[-1].status == "invalid"
        assert len(batch) == len(sequential)
        for seq, par in zip(sequential, batch):
            assert par.name == seq.name
            assert par.status == seq.status
            assert par.assignments_checked == seq.assignments_checked
            assert par.queries == seq.queries
            assert par.detail == seq.detail
            if seq.counterexample is None:
                assert par.counterexample is None
            else:
                # byte-identical Figure 5 text
                assert (par.counterexample.format()
                        == seq.counterexample.format())

    def test_untypeable_and_unsupported_aggregate(self):
        scope_error = parse_transformation(
            "%a = add %x, 1\n%r = add %x, 2\n=>\n%r = %x\n", "scoped")
        results = run_batch([scope_error], CONFIG)
        assert results[0].status == "unsupported"


class TestAggregateElapsed:
    """A result reports the time its jobs took, not its aggregation's."""

    def _plan(self, text):
        plan = plan_transformation(parse_transformation(text, "t"),
                                   CONFIG, "fp")
        assert len(plan.jobs) == 2
        return plan

    def test_sums_job_times_and_cache_hits_add_nothing(self):
        plan = self._plan(GOOD)
        first, second = (job.key for job in plan.jobs)
        outcomes = {first: {"status": "valid", "queries": 1,
                            "elapsed": 0.25},
                    second: {"status": "valid", "queries": 1}}  # cached
        result = aggregate_plan(plan, outcomes)
        assert result.status == "valid"
        assert result.elapsed == 0.25

    def test_jobs_after_the_verdict_are_not_counted(self):
        plan = self._plan(BAD)
        first, second = (job.key for job in plan.jobs)
        outcomes = {first: {"status": "unknown", "queries": 1,
                            "elapsed": 0.5},
                    second: {"status": "unsupported", "detail": "x",
                             "elapsed": 0.25}}
        result = aggregate_plan(plan, outcomes)
        assert result.status == "unsupported"
        assert result.elapsed == 0.75
        outcomes[first]["status"] = "unsupported"
        assert aggregate_plan(plan, outcomes).elapsed == 0.5


class TestWarmCache:
    def test_second_run_executes_zero_checks(self, tmp_path):
        ts = mixed_corpus()
        path = str(tmp_path / "cache.jsonl")
        cold_stats = EngineStats()
        cold = run_batch(ts, CONFIG, jobs=4,
                         cache=ResultCache(path, fingerprint="fp"),
                         stats=cold_stats)
        assert cold_stats.jobs_executed == cold_stats.jobs_total > 0

        warm_stats = EngineStats()
        warm = run_batch(ts, CONFIG, jobs=4,
                         cache=ResultCache(path, fingerprint="fp"),
                         stats=warm_stats)
        assert warm_stats.jobs_executed == 0
        assert warm_stats.cache_hits == cold_stats.jobs_total
        assert [r.status for r in warm] == [r.status for r in cold]

    def test_identical_bodies_deduplicate_within_batch(self):
        twins = [parse_transformation(GOOD, "a"),
                 parse_transformation(GOOD, "b")]
        stats = EngineStats()
        results = run_batch(twins, CONFIG, stats=stats)
        assert stats.jobs_deduped > 0
        assert stats.jobs_executed == stats.jobs_total - stats.jobs_deduped
        assert [r.status for r in results] == ["valid", "valid"]
        assert [r.name for r in results] == ["a", "b"]


class TestScheduler:
    def _payloads(self, text="t"):
        t = parse_transformation(GOOD, text)
        return [j.payload() for j in
                plan_transformation(t, CONFIG, "fp").jobs]

    def test_inline_retry_then_error(self, monkeypatch):
        calls = {"n": 0}

        def explode(payload):
            calls["n"] += 1
            raise RuntimeError("boom")

        monkeypatch.setattr(scheduler_mod, "run_job", explode)
        stats = EngineStats()
        outcomes = Scheduler(jobs=1, max_retries=1).run(
            self._payloads(), stats=stats)
        payload_count = len(self._payloads())
        assert calls["n"] == 2 * payload_count  # initial + one retry each
        assert stats.retries == payload_count
        assert stats.errors == payload_count
        for outcome in outcomes.values():
            assert outcome["status"] == "unknown"
            assert outcome["transient"]

    def test_error_outcomes_do_not_poison_cache(self, monkeypatch, tmp_path):
        def explode(payload):
            raise RuntimeError("boom")

        monkeypatch.setattr(scheduler_mod, "run_job", explode)
        cache = ResultCache(str(tmp_path / "c.jsonl"), fingerprint="fp")
        t = parse_transformation(GOOD, "t")
        stats = EngineStats()
        results = run_batch([t], CONFIG, cache=cache, stats=stats,
                            max_retries=0)
        assert results[0].status == "unknown"
        assert len(cache) == 0  # transient failures never cached

    def test_pool_path_runs_jobs(self):
        stats = EngineStats()
        outcomes = Scheduler(jobs=2).run(self._payloads(), stats=stats)
        assert stats.jobs_executed == len(outcomes) > 0
        assert all(o["status"] == "valid" for o in outcomes.values())


class TestTimeouts:
    def test_expired_deadline_reports_unknown_timeout(self):
        config = Config(max_width=4, prefer_widths=(4,),
                        max_type_assignments=1, time_limit=0.0)
        t = parse_transformation(BAD, "slow")
        stats = EngineStats()
        results = run_batch([t], config, stats=stats)
        assert results[0].status == "unknown"
        assert stats.timeouts > 0


class TestStatsTable:
    def test_format_table_mentions_all_counters(self):
        stats = EngineStats()
        stats.transformations = 3
        stats.jobs_total = 10
        stats.cache_hits = 4
        stats.jobs_executed = 6
        stats.record_latency(0.5)
        table = stats.format_table()
        for needle in ("cache hits", "jobs executed", "p50", "p95",
                       "retries", "timeouts"):
            assert needle in table

    def test_percentiles(self):
        from repro.engine.stats import percentile

        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile([], 0.95) == 0.0
