"""The baseline optimizer's Alive identities change nothing.

``baseline_rules()`` runs the identities of ``baseline.opt`` as
compiled Alive rules where it once ran hand-coded Python bodies.  The
full optimizer of §6.4 (``baseline_rules()`` plus the corpus) must
optimize exactly as it did with the native bodies, which
:mod:`tests.opt.native_baseline` keeps as the reference: byte-identical
functions, the same rewrite, iteration and DCE counts, and each native
rule's firings split among its Alive forms.

Modules: ``bench_compile_time``'s and ``bench_exec_time``'s at their
sizes, and the perfbench ``optimize`` seeds 1-3, sliced for tier-1;
set ``ALIVE_REPRO_PARITY_FULL=1`` to run those at 300 functions x 40
instructions.
"""

import os

import pytest

from repro.opt import PeepholePass, baseline_rules, compile_opts, folding_rules
from repro.suite import load_all_flat
from repro.workload import WorkloadConfig, generate_module
from tests.opt.native_baseline import ALIVE_FORMS, native_identities

FULL = os.environ.get("ALIVE_REPRO_PARITY_FULL") == "1"
OPTIMIZE_SIZE = (300, 40) if FULL else (40, 30)

MODULES = [
    pytest.param(WorkloadConfig(seed=6, functions=150, instructions=40),
                 id="compile-time"),
    pytest.param(WorkloadConfig(seed=99, functions=120, instructions=45),
                 id="exec-time"),
] + [
    pytest.param(WorkloadConfig(seed=seed, functions=OPTIMIZE_SIZE[0],
                                instructions=OPTIMIZE_SIZE[1]),
                 id="optimize-%d" % seed)
    for seed in (1, 2, 3)
]


@pytest.fixture(scope="module")
def rule_sets():
    corpus = compile_opts(load_all_flat())
    return (baseline_rules() + corpus,
            folding_rules() + native_identities() + corpus)


@pytest.mark.parametrize("config", MODULES)
def test_full_optimizer_matches_native_identities(rule_sets, config):
    alive, native = rule_sets
    out, reference = generate_module(config), generate_module(config)
    pass_, native_pass = PeepholePass(alive), PeepholePass(native)
    pass_.run_module(out)
    native_pass.run_module(reference)

    assert [repr(fn) for fn in out.functions] \
        == [repr(fn) for fn in reference.functions]
    stats, expected = pass_.stats, native_pass.stats
    assert stats.total_fired() == expected.total_fired()
    assert stats.iterations == expected.iterations
    assert stats.instructions_removed == expected.instructions_removed
    for rule, forms in ALIVE_FORMS.items():
        assert sum(stats.fired.get(name, 0) for name in forms) \
            == expected.fired.get(rule, 0), rule
    # every other rule (folds, corpus) fires as often as before
    ours = set().union(*ALIVE_FORMS.values())
    assert {k: v for k, v in stats.fired.items() if k not in ours} \
        == {k: v for k, v in expected.fired.items() if k not in ALIVE_FORMS}
    assert any(stats.fired.get(name) for name in ours)
