"""Persistent cache behavior: hits, invalidation, corruption recovery."""

import ast
import json
import os

import pytest

from repro.core import Config
from repro.engine import EngineStats, ResultCache, run_batch
from repro.ir import parse_transformation

CONFIG = Config(max_width=4, prefer_widths=(4,), max_type_assignments=2)

MUL_PRE = """Pre: isPowerOf2(C)
%r = mul %x, C
=>
%r = shl %x, log2(C)
"""


def batch(texts, cache, jobs=1):
    ts = [parse_transformation(text, "t%d" % i)
          for i, text in enumerate(texts)]
    stats = EngineStats()
    results = run_batch(ts, CONFIG, jobs=jobs, cache=cache, stats=stats)
    return results, stats


@pytest.fixture
def cache_path(tmp_path):
    return str(tmp_path / "results.jsonl")


class TestCacheHits:
    def test_hit_after_identical_reverify(self, cache_path):
        _, cold = batch([MUL_PRE], ResultCache(cache_path, fingerprint="fp"))
        assert cold.jobs_executed > 0 and cold.cache_hits == 0

        results, warm = batch([MUL_PRE],
                              ResultCache(cache_path, fingerprint="fp"))
        assert warm.jobs_executed == 0
        assert warm.cache_hits == cold.jobs_executed
        assert results[0].status == "valid"

    def test_miss_after_editing_precondition(self, cache_path):
        _, cold = batch([MUL_PRE], ResultCache(cache_path, fingerprint="fp"))
        edited = MUL_PRE.replace("Pre: isPowerOf2(C)", "Pre: C == 2")
        _, second = batch([edited],
                          ResultCache(cache_path, fingerprint="fp"))
        assert second.cache_hits == 0
        assert second.jobs_executed > 0

    def test_miss_after_fingerprint_bump(self, cache_path):
        _, cold = batch([MUL_PRE], ResultCache(cache_path, fingerprint="v1"))
        _, second = batch([MUL_PRE], ResultCache(cache_path, fingerprint="v2"))
        assert second.cache_hits == 0
        assert second.jobs_executed == cold.jobs_executed

    def test_verdicts_identical_from_cache(self, cache_path):
        bad = "%r = add %x, 1\n=>\n%r = add %x, 2\n"
        cold_results, _ = batch([bad],
                                ResultCache(cache_path, fingerprint="fp"))
        warm_results, warm = batch([bad],
                                   ResultCache(cache_path, fingerprint="fp"))
        assert warm.jobs_executed == 0
        assert cold_results[0].status == warm_results[0].status == "invalid"
        assert (cold_results[0].counterexample.format()
                == warm_results[0].counterexample.format())


class TestCorruptionRecovery:
    def test_corrupt_lines_are_skipped(self, cache_path):
        cache = ResultCache(cache_path, fingerprint="fp")
        _, cold = batch([MUL_PRE], cache)
        with open(cache_path, "a") as handle:
            handle.write("{not json at all\n")
            handle.write('{"key": "missing-outcome"}\n')
            handle.write('{"key": "bad-outcome", "outcome": 42, '
                         '"fingerprint": "fp"}\n')
        results, warm = batch([MUL_PRE],
                              ResultCache(cache_path, fingerprint="fp"))
        assert warm.jobs_executed == 0  # good entries still served
        assert results[0].status == "valid"

    def test_binary_garbage_file_recovers(self, cache_path):
        with open(cache_path, "wb") as handle:
            handle.write(os.urandom(256))
        results, stats = batch([MUL_PRE],
                               ResultCache(cache_path, fingerprint="fp"))
        assert results[0].status == "valid"  # recomputed, not crashed
        assert stats.jobs_executed > 0

    def test_missing_file_is_empty_cache(self, cache_path):
        cache = ResultCache(cache_path, fingerprint="fp")
        assert len(cache) == 0
        assert cache.get("nope") is None

    def test_unwritable_path_degrades_to_memory(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("file, not a directory")
        cache = ResultCache(str(target / "sub" / "results.jsonl"),
                            fingerprint="fp")
        cache.put("k", {"status": "valid"}, elapsed=0.1)
        assert cache.get("k")["outcome"]["status"] == "valid"


class TestCacheFile:
    def test_entries_are_jsonl(self, cache_path):
        cache = ResultCache(cache_path, fingerprint="fp")
        cache.put("k1", {"status": "valid"}, elapsed=0.5, name="t")
        with open(cache_path) as handle:
            entries = [json.loads(line) for line in handle]
        assert entries[0]["key"] == "k1"
        assert entries[0]["fingerprint"] == "fp"

    def test_directory_path_appends_filename(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="fp")
        assert cache.path == str(tmp_path / "results.jsonl")

    def test_compact_drops_stale_entries(self, cache_path):
        old = ResultCache(cache_path, fingerprint="v1")
        old.put("k-old", {"status": "valid"})
        new = ResultCache(cache_path, fingerprint="v2")
        new.put("k-new", {"status": "valid"})
        new.compact()
        reloaded = ResultCache(cache_path, fingerprint="v2")
        assert reloaded.get("k-new") is not None
        assert reloaded.get("k-old") is None
        with open(cache_path) as handle:
            assert len(handle.readlines()) == 1

    def test_env_fingerprint_override(self, monkeypatch, cache_path):
        from repro.engine.cache import semantics_fingerprint

        monkeypatch.setenv("ALIVE_REPRO_FINGERPRINT", "forced")
        assert semantics_fingerprint() == "forced"
        assert ResultCache(cache_path).fingerprint == "forced"


def _imported_packages(path):
    """Top-level ``repro`` subpackages that the module at *path* imports."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names, level = [alias.name for alias in node.names], 0
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + ["%s.%s" % (base, alias.name)
                              for alias in node.names]
            level = node.level
        else:
            continue
        if level == 0:
            names = [n[len("repro."):] for n in names
                     if n.startswith("repro.")]
        found.update(n.strip(".").split(".")[0] for n in names)
    return found


class TestSemanticPackages:
    """The fingerprint hashes exactly the packages a verdict can see."""

    def test_no_semantic_package_imports_absint(self):
        # the verifier never consults the abstract tier, which is why
        # its source can stay out of the verdict-cache fingerprint
        import repro
        from repro.engine.cache import _SEMANTIC_PACKAGES

        root = os.path.dirname(repro.__file__)
        offenders = []
        for package in _SEMANTIC_PACKAGES:
            for dirpath, _, files in os.walk(os.path.join(root, package)):
                for name in files:
                    path = os.path.join(dirpath, name)
                    if (name.endswith(".py")
                            and "absint" in _imported_packages(path)):
                        offenders.append(os.path.relpath(path, root))
        assert offenders == []


def file_lines(path):
    with open(path) as handle:
        return [line for line in handle if line.strip()]


class TestAutoCompaction:
    """The append-only file self-compacts when mostly dead on load."""

    def test_majority_stale_triggers_compaction(self, cache_path):
        old = ResultCache(cache_path, fingerprint="v1")
        for i in range(10):
            old.put("stale-%d" % i, {"status": "valid"})
        assert len(file_lines(cache_path)) == 10

        live = ResultCache(cache_path, fingerprint="v2")
        assert live.auto_compacted  # every loaded line was dead
        assert len(file_lines(cache_path)) == 0  # rewritten on load
        live.put("live", {"status": "valid"})

        reloaded = ResultCache(cache_path, fingerprint="v2")
        assert not reloaded.auto_compacted  # now fully live again
        assert len(reloaded) == 1

    def test_majority_duplicates_triggers_compaction(self, cache_path):
        cache = ResultCache(cache_path, fingerprint="fp")
        for round_number in range(4):
            cache.put("k", {"status": "valid", "round": round_number})
        assert len(file_lines(cache_path)) == 4  # append-only history

        reloaded = ResultCache(cache_path, fingerprint="fp")
        assert reloaded.auto_compacted
        assert len(file_lines(cache_path)) == 1
        # the survivor is the last write
        assert reloaded.get("k")["outcome"]["round"] == 3

    def test_mostly_live_file_is_left_alone(self, cache_path):
        cache = ResultCache(cache_path, fingerprint="fp")
        for i in range(10):
            cache.put("k%d" % i, {"status": "valid"})
        cache.put("k0", {"status": "valid"})  # one dead line of eleven

        reloaded = ResultCache(cache_path, fingerprint="fp")
        assert not reloaded.auto_compacted
        assert len(file_lines(cache_path)) == 11  # untouched
        assert len(reloaded) == 10

    def test_exactly_half_dead_is_not_compacted(self, cache_path):
        cache = ResultCache(cache_path, fingerprint="fp")
        cache.put("a", {"status": "valid"})
        cache.put("b", {"status": "valid"})
        cache.put("a", {"status": "valid"})
        cache.put("b", {"status": "valid"})  # 4 lines, 2 dead: not > 0.5

        reloaded = ResultCache(cache_path, fingerprint="fp")
        assert not reloaded.auto_compacted
        assert len(file_lines(cache_path)) == 4

    def test_compacted_cache_still_serves(self, cache_path):
        batch([MUL_PRE], ResultCache(cache_path, fingerprint="v1"))
        v2_cache = ResultCache(cache_path, fingerprint="v2")
        assert v2_cache.auto_compacted  # every v1 line was dead
        batch([MUL_PRE], v2_cache)  # recompute under v2

        warm_cache = ResultCache(cache_path, fingerprint="v2")
        assert not warm_cache.auto_compacted
        results, warm = batch([MUL_PRE], warm_cache)
        assert warm.jobs_executed == 0
        assert results[0].status == "valid"

    def test_empty_file_is_not_compacted(self, cache_path):
        open(cache_path, "w").close()
        assert not ResultCache(cache_path, fingerprint="fp").auto_compacted


class TestMaxEntries:
    """--cache-max-entries: bounded cache, oldest writes evicted first."""

    def test_put_evicts_oldest(self, cache_path):
        cache = ResultCache(cache_path, fingerprint="fp", max_entries=3)
        for i in range(5):
            cache.put("k%d" % i, {"status": "valid"})
        assert len(cache) == 3
        assert cache.get("k0") is None and cache.get("k1") is None
        assert all(cache.get("k%d" % i) for i in (2, 3, 4))

    def test_rewrite_refreshes_age(self, cache_path):
        cache = ResultCache(cache_path, fingerprint="fp", max_entries=2)
        cache.put("a", {"status": "valid"})
        cache.put("b", {"status": "valid"})
        cache.put("a", {"status": "valid"})  # "a" is now the newest
        cache.put("c", {"status": "valid"})  # evicts "b", not "a"
        assert cache.get("a") is not None
        assert cache.get("b") is None
        assert cache.get("c") is not None

    def test_load_applies_limit_oldest_first(self, cache_path):
        unbounded = ResultCache(cache_path, fingerprint="fp")
        for i in range(10):
            unbounded.put("k%d" % i, {"status": "valid"})

        bounded = ResultCache(cache_path, fingerprint="fp", max_entries=4)
        assert len(bounded) == 4
        assert all(bounded.get("k%d" % i) for i in (6, 7, 8, 9))
        assert bounded.get("k5") is None

    def test_load_time_eviction_counts_as_dead(self, cache_path):
        # evicting most of the file on load also triggers compaction
        unbounded = ResultCache(cache_path, fingerprint="fp")
        for i in range(10):
            unbounded.put("k%d" % i, {"status": "valid"})
        bounded = ResultCache(cache_path, fingerprint="fp", max_entries=2)
        assert bounded.auto_compacted
        assert len(file_lines(cache_path)) == 2

    def test_zero_or_negative_means_unbounded(self, cache_path):
        for limit in (0, -5, None):
            cache = ResultCache(cache_path, fingerprint="fp",
                                max_entries=limit)
            assert cache.max_entries is None

    def test_bounded_batch_run_still_correct(self, cache_path):
        cache = ResultCache(cache_path, fingerprint="fp", max_entries=1)
        results, _ = batch([MUL_PRE], cache)
        assert results[0].status == "valid"
        assert len(cache) == 1
