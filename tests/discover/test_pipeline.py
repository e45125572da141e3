"""End-to-end discovery pipeline: determinism, round-trip, integration.

The determinism contract is the load-bearing one (ISSUE 8): for a
fixed seed the entire run — candidate stream, verdicts, ranking,
emitted ``.opt`` — must be byte-identical across repeats, across a
cold vs warm verdict cache, and across 1 vs 2 worker processes.
"""

import os

import pytest

from repro.core import Config
from repro.discover import DiscoverOptions, run_discovery
from repro.engine import ResultCache, run_batch
from repro.ir import parse_transformations

CFG = Config()

#: small but real: enumeration + mining on, a couple of salvage slots
OPTIONS = dict(seed=0, max_insts=2, max_candidates=48, max_salvage=2,
               workload_functions=12, workload_instructions=20)


def _options():
    return DiscoverOptions(**OPTIONS)


@pytest.fixture(scope="module")
def baseline():
    return run_discovery(_options(), CFG)


class TestDeterminism:
    def test_repeat_is_byte_identical(self, baseline):
        again = run_discovery(_options(), CFG)
        assert again.opt_text == baseline.opt_text
        assert again.funnel == baseline.funnel

    def test_cold_vs_warm_cache(self, baseline, tmp_path):
        cache = ResultCache(os.path.join(str(tmp_path), "disc.jsonl"))
        cold = run_discovery(_options(), CFG, cache=cache)
        warm = run_discovery(_options(), CFG, cache=cache)
        assert cold.opt_text == baseline.opt_text
        assert warm.opt_text == baseline.opt_text
        assert warm.stats.to_dict()["jobs_executed"] == 0

    def test_jobs_do_not_change_output(self, baseline):
        two = DiscoverOptions(jobs=2, **OPTIONS)
        assert run_discovery(two, CFG).opt_text == baseline.opt_text

    def test_seed_changes_output(self, baseline):
        other = DiscoverOptions(
            **dict(OPTIONS, seed=OPTIONS["seed"] + 1))
        assert run_discovery(other, CFG).opt_text != baseline.opt_text

    def test_no_timestamps_in_output(self, baseline):
        import re

        assert not re.search(r"\d{4}-\d{2}-\d{2}", baseline.opt_text)
        assert not re.search(r"\d{2}:\d{2}:\d{2}", baseline.opt_text)


class TestEmission:
    def test_emits_rules(self, baseline):
        assert baseline.rules
        assert baseline.funnel["emitted"] == len(baseline.rules)

    def test_emitted_file_parses(self, baseline):
        rules = parse_transformations(baseline.opt_text)
        assert len(rules) == len(baseline.rules)
        assert [t.name for t in rules] == [r.name for r in baseline.rules]

    def test_emitted_file_reverifies_valid(self, baseline):
        rules = parse_transformations(baseline.opt_text)
        for result in run_batch(rules, CFG, jobs=1):
            assert result.status == "valid", result.name

    def test_provenance_annotations(self, baseline):
        assert "; origin:" in baseline.opt_text
        assert "; verdict:" in baseline.opt_text
        assert "; cost:" in baseline.opt_text
        assert "; funnel:" in baseline.opt_text

    def test_rules_are_cost_improving(self, baseline):
        for rule in baseline.rules:
            assert rule.candidate.saving > 0

    def test_rediscovers_known_corpus_rules(self, baseline):
        # the pipeline's ground truth: classics like x - x -> 0 come
        # out of the funnel and are recognized as already shipped
        assert baseline.rediscovered
        assert baseline.funnel["subsumed_dropped"] >= len(
            set(baseline.rediscovered))


class TestIntegration:
    def test_codegen_compiles_emitted_rules(self, baseline):
        from repro.codegen import CodegenError, generate_cpp

        rules = parse_transformations(baseline.opt_text)
        emitted = 0
        for t in rules:
            try:
                cpp = generate_cpp(t)
            except CodegenError:
                continue
            assert t.name in cpp
            emitted += 1
        assert emitted > 0

    def test_rewriter_accepts_emitted_rules(self, baseline):
        from repro.opt import PeepholePass, compile_opts
        from repro.workload import (WorkloadConfig, generate_module,
                                    module_cost)

        rules = parse_transformations(baseline.opt_text)
        compiled = compile_opts(rules)
        assert compiled
        module = generate_module(WorkloadConfig(seed=0, functions=12))
        before = module_cost(module)
        PeepholePass(compiled).run_module(module)
        assert module_cost(module) <= before

    def test_mining_only_mode(self):
        options = DiscoverOptions(

            **dict(OPTIONS, max_candidates=8))
        options.enum = False
        report = run_discovery(options, CFG)
        assert report.funnel.get("mined_templates", 0) > 0
        assert "enumerated_exprs" not in report.funnel


class TestBudget:
    def test_zero_budget_truncates_but_still_emits_file(self):
        options = _options()
        options.time_budget = 1e-9
        report = run_discovery(options, CFG)
        assert report.truncated
        assert report.opt_text.startswith(";")
        assert "; NOTE: time budget hit" in report.opt_text
