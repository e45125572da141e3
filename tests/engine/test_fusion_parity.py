"""Pool dispatch must be observationally identical to inline dispatch.

The worker pool (:mod:`repro.engine.pool`) and the warm-worker resident
state are pure transport/locality optimizations: for every job key the
verdict, the counterexample bytes and the cache record must be exactly
what the inline, cold path produces.  This suite runs one corpus
through the pool at ``--jobs 2`` and the inline ``--jobs 1`` path and
diffs the outcome maps, plus cold/warm cache determinism.

By default a representative slice of the corpus keeps the tier-1 run
fast; the CI ``incremental-parity`` job sets
``ALIVE_REPRO_PARITY_FULL=1`` to sweep the full alive suite, the FP
corpus and the lint bad-rule corpus.
"""

import os

import pytest

from repro.core import Config
from repro.engine import EngineStats, ResultCache, Scheduler, submit_jobs
from repro.engine.jobs import plan_transformation
from repro.ir import parse_transformation, parse_transformations
from repro.suite import CATEGORIES, load_bugs, load_category, load_fp

CONFIG = Config(max_width=4, prefer_widths=(4,), ptr_width=16,
                max_type_assignments=2)

#: the seeded bad-rule corpus the linter tests use: rules that are
#: wrong in interesting ways (refuted, vacuous, attribute-dropping)
BAD_RULES = """Name: general-sub
%r = sub %x, C
=>
%r = add %x, -C

Name: vacuous
Pre: isPowerOf2(C) && C == 0
%r = udiv %x, C
=>
%r = lshr %x, log2(C)

Name: droppable
%r = add nsw %x, %y
=>
%r = add %y, %x

Name: bad-shift
%r = shl %x, 1
=>
%r = add %x, 1
"""

FULL = os.environ.get("ALIVE_REPRO_PARITY_FULL") == "1"


def parity_corpus():
    """Alive suite + FP corpus + lint bad-corpus (sliced unless FULL)."""
    per_cat = None if FULL else 2
    ts = []
    for cat in CATEGORIES:
        ts.extend(load_category(cat)[:per_cat])
    ts.extend(load_bugs()[:None if FULL else 2])
    ts.extend(load_fp()[:None if FULL else 4])
    ts.extend(parse_transformations(BAD_RULES))
    return ts


def strip_elapsed(outcomes):
    """Outcome maps with wall-clock noise removed (all that may differ)."""
    return {
        key: {k: v for k, v in outcome.items() if k != "elapsed"}
        for key, outcome in outcomes.items()
    }


@pytest.fixture(scope="module")
def corpus_payloads():
    plans = [plan_transformation(t, CONFIG, "parity-fp")
             for t in parity_corpus()]
    payloads = []
    seen = set()
    for plan in plans:
        for job in plan.jobs:
            if job.key not in seen:  # engine dedups; do the same here
                seen.add(job.key)
                payloads.append(job.payload())
    assert len(payloads) >= 20
    return payloads


def assert_no_transients(outcomes):
    """Environmental degradation (a crashed worker out of retries) is
    not a parity violation; fail it distinctly so a flaky machine does
    not read as a dispatch bug."""
    transient = [k for k, o in outcomes.items() if o.get("transient")]
    assert not transient, \
        "jobs degraded to transient unknown (environment, not parity): " \
        + ", ".join(o["detail"] for k, o in outcomes.items()
                    if o.get("transient"))


@pytest.fixture(scope="module")
def reference(corpus_payloads, tmp_path_factory):
    """Pool run at ``--jobs 2`` through ``submit_jobs``, checkpointed
    into a cache."""
    path = str(tmp_path_factory.mktemp("parity") / "cache.jsonl")
    stats = EngineStats()
    outcomes = submit_jobs(corpus_payloads, jobs=2, max_retries=3,
                           cache=ResultCache(path, fingerprint="parity-fp"),
                           stats=stats)
    assert stats.jobs_executed == len(corpus_payloads)
    assert_no_transients(outcomes)
    return {"outcomes": outcomes, "cache_path": path, "stats": stats}


@pytest.fixture(scope="module")
def inline_outcomes(corpus_payloads):
    """The ``--jobs 1`` in-process ground truth, run once per module."""
    inline = Scheduler(jobs=1, max_retries=3)
    return inline.run(list(corpus_payloads), stats=EngineStats())


class TestDispatchParity:
    """Pool (cached and uncached) vs inline: identical outcome maps."""

    def test_perjob_pool_matches_fused(self, corpus_payloads, reference):
        pool = Scheduler(jobs=2, max_retries=3)
        outcomes = pool.run(list(corpus_payloads), stats=EngineStats())
        assert_no_transients(outcomes)
        assert strip_elapsed(outcomes) \
            == strip_elapsed(reference["outcomes"])

    def test_inline_matches_fused(self, inline_outcomes, reference):
        assert_no_transients(inline_outcomes)
        assert strip_elapsed(inline_outcomes) \
            == strip_elapsed(reference["outcomes"])

    def test_counterexamples_byte_identical(self, inline_outcomes,
                                            reference):
        """The refuted rules' cex fields must match the inline path
        byte for byte (Figure 5 text is rendered from these)."""
        refuted = [k for k, o in inline_outcomes.items()
                   if o["status"] == "invalid"]
        assert refuted  # bugs + bad rules guarantee some
        for key in refuted:
            assert inline_outcomes[key]["counterexample"] \
                == reference["outcomes"][key]["counterexample"]


class TestCacheParity:
    """Pool dispatch must not change what lands in the persistent cache."""

    def test_cache_keys_byte_identical_to_plan(self, corpus_payloads,
                                               reference):
        cache = ResultCache(reference["cache_path"],
                            fingerprint="parity-fp")
        assert sorted(cache.keys()) \
            == sorted(p["key"] for p in corpus_payloads)

    def test_warm_run_is_pure_cache_and_identical(self, corpus_payloads,
                                                  reference):
        stats = EngineStats()
        warm = submit_jobs(corpus_payloads, jobs=2,
                           cache=ResultCache(reference["cache_path"],
                                             fingerprint="parity-fp"),
                           stats=stats)
        assert stats.jobs_executed == 0
        assert stats.cache_hits == len(corpus_payloads)

        def verdict_only(outcome):
            # cache records strip key/elapsed; ignore bookkeeping fields
            return {k: v for k, v in outcome.items()
                    if k not in ("key", "elapsed", "cached")}

        ref = reference["outcomes"]
        assert set(warm) == set(ref)
        for key, outcome in warm.items():
            assert verdict_only(outcome) == verdict_only(ref[key])

    def test_cold_rerun_is_deterministic(self, corpus_payloads,
                                         reference, tmp_path):
        """A second cold pool run (fresh cache, fresh workers) must
        reproduce the reference outcome map exactly."""
        stats = EngineStats()
        path = str(tmp_path / "cache2.jsonl")
        again = submit_jobs(list(corpus_payloads), jobs=2, max_retries=3,
                            cache=ResultCache(path,
                                              fingerprint="parity-fp"),
                            stats=stats)
        assert_no_transients(again)
        assert strip_elapsed(again) \
            == strip_elapsed(reference["outcomes"])
