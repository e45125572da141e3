"""The fp.opt corpus: shape, annotations, and engine verdict identity.

The whole corpus verifies in seconds through the pure-Python solver,
general-circuit proofs included, so tier-1 checks every rule: corpus
shape against ``FP_EXPECTED``, and that direct ``verify``, the batch
engine and a warm cache replay hand back the annotated verdicts.  The
CI ``fp-corpus`` job repeats the check through the command line and the
service.
"""

import os

from repro.core import Config, verify
from repro.engine import EngineStats, ResultCache, run_batch
from repro.ir.ast import FBinOp, FCmp, FPLiteral
from repro.suite import FP_EXPECTED, load_fp

CFG = Config()


class TestCorpusShape:
    def test_loads_and_matches_expected(self):
        rules = load_fp()
        assert len(rules) >= 15
        assert {t.name for t in rules} == set(FP_EXPECTED)
        assert set(FP_EXPECTED.values()) == {"valid", "invalid"}

    def test_mixes_verdicts(self):
        # the file must keep at least one deliberately wrong rule per
        # family: arithmetic, comparison, conversion
        invalid = {n for n, s in FP_EXPECTED.items() if s == "invalid"}
        assert "FP:fadd-zero-wrong" in invalid
        assert "FP:fcmp-ole-to-olt-wrong" in invalid
        assert "FP:fptosi-sitofp-wrong" in invalid

    def test_every_rule_is_fp(self):
        # guard: nothing in fp.opt accidentally degenerates to an
        # integer-only rule (the point of the file is the FP encoder)
        for t in load_fp():
            nodes = list(t.src.values()) + list(t.tgt.values())
            ops = [v for n in nodes for v in (n,) + tuple(n.operands())]
            assert any(
                isinstance(v, (FBinOp, FCmp, FPLiteral))
                or getattr(getattr(v, "ty", None), "kind", None)
                in ("half", "float", "double")
                for v in ops
            ), t.name


class TestVerdictIdentity:
    def test_verify_engine_and_cache_agree(self, tmp_path):
        rules = load_fp()

        direct = {t.name: verify(t, CFG).status for t in rules}
        assert direct == FP_EXPECTED

        cache = ResultCache(os.path.join(str(tmp_path), "fp.jsonl"))
        cold = {r.name: r.status
                for r in run_batch(rules, CFG, jobs=1, cache=cache)}
        warm_stats = EngineStats()
        warm = {r.name: r.status
                for r in run_batch(rules, CFG, jobs=1, cache=cache,
                                   stats=warm_stats)}
        assert cold == direct
        assert warm == direct
        assert warm_stats.to_dict()["jobs_executed"] == 0

    def test_refutation_decodes_special_value(self):
        (rule,) = [t for t in load_fp() if t.name == "FP:fadd-zero-wrong"]
        result = verify(rule, CFG)
        assert result.status == "invalid"
        assert "-0.0" in result.counterexample.format()
