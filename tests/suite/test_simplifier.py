"""The query simplifier against the plain path, and what its AC normal
form buys at wide bit widths.

The simplifier is a fast path: every verdict it gives must be the one
the unsimplified query gives.  Its associative-commutative normal form
turns ``(x*C1)*C2 => x*(C1*C2)`` into a trivially true equality, so the
rule verifies under a tiny conflict budget at any width; without the
normal form SAT has to rediscover associativity one bit at a time and
runs out of budget at width 8 already.
"""

import pytest

from repro.core import Config, verify
from repro.suite import load_bugs, load_category


@pytest.mark.parametrize("width", [8, 16, 64])
def test_mul_const_reassoc_valid_at_width(width):
    rule = next(t for t in load_category("MulDivRem")
                if t.name == "MulDivRem:mul-const-reassoc")
    config = Config(max_width=width, prefer_widths=(width,),
                    conflict_limit=200, max_type_assignments=1)
    result = verify(rule, config)
    assert result.status == "valid", (width, result.detail)


def test_simplified_and_plain_queries_give_the_same_verdicts():
    rules = load_category("MulDivRem") + load_bugs()

    def verdicts(simplify_queries):
        config = Config(max_width=4, prefer_widths=(4,), ptr_width=8,
                        simplify_queries=simplify_queries)
        return {t.name: verify(t, config).status for t in rules}

    simplified = verdicts(True)
    assert simplified == verdicts(False)
    # the map is worth comparing: every rule is decided
    assert set(simplified.values()) == {"valid", "invalid"}
