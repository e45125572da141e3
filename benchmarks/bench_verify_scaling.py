"""§5/§6.1 — verification latency and its blowup on mul/div formulas.

Paper: "Alive usually takes a few seconds to verify the correctness of
a transformation ... Unfortunately, for some transformations involving
multiplication and division instructions, Alive can take several hours
or longer to verify the larger bitwidths ... we work around slow
verifications by limiting the bitwidths of operands."

We time (a) a typical bitwise transformation and (b) a multiplication
transformation across growing widths.  Expected shape: the bitwise
query scales gently; the nsw-multiply query grows much faster with
width — the same pathology the paper reports, reproduced in miniature.
(c) A multiplication reassociation stays flat up to 16 bits, because
the query simplifier reduces it to a syntactic identity first.
"""

from __future__ import annotations

import time
from statistics import median

from repro.core import Config, verify
from repro.ir import parse_transformation

EASY = """
%a = xor %x, C1
%r = xor %a, C2
=>
%r = xor %x, C1 ^ C2
"""

# distributivity forces the solver through two genuine multiplier
# circuits — the formula family the paper reports blowing up with width
HARD = """
%a = mul %x, %y
%b = mul %x, %z
%r = add %a, %b
=>
%s = add %y, %z
%r = mul %x, %s
"""

# MulDivRem:mul-const-reassoc: the simplifier's associative-commutative
# normal form interns both sides to one term, so this mul rule verifies
# without a multiplier circuit in SAT at any width
REASSOC = """
%a = mul %x, C1
%r = mul %a, C2
=>
%r = mul %x, C1*C2
"""

# w=5 already takes tens of seconds for the multiplier query with the
# pure-Python solver; the paper saw the same wall at 20-30 bits with Z3
WIDTHS = (3, 4, 5)
REASSOC_WIDTHS = (3, 4, 5, 8, 16)


#: runs per (rule, width): one run of the w5 multiplier query swings by
#: tens of percent, so each row is the median of several
RUNS = 3


def _time_verify(label, text, width):
    """``(label, width, median, min, max, status)`` of RUNS verifications,
    in seconds; *status* joins the distinct verdicts."""
    config = Config(max_width=width, prefer_widths=(width,),
                    max_type_assignments=1)
    t = parse_transformation(text, label)
    times, statuses = [], set()
    for _ in range(RUNS):
        start = time.perf_counter()
        statuses.add(verify(t, config).status)
        times.append(time.perf_counter() - start)
    return (label, width, median(times), min(times), max(times),
            "/".join(sorted(statuses)))


def run_scaling():
    rows = []
    for width in WIDTHS:
        for label, text in (("xor-chain", EASY), ("mul-nsw", HARD)):
            rows.append(_time_verify(label, text, width))
    for width in REASSOC_WIDTHS:
        rows.append(_time_verify("mul-reassoc", REASSOC, width))
    return rows


def test_verify_scaling(benchmark, report):
    rows = benchmark.pedantic(run_scaling, iterations=1, rounds=1)

    report("§5 — verification latency vs bitwidth")
    report("")
    report("paper: typical transformations verify in seconds; mul/div")
    report("formulas blow up at larger widths (hours at 64 bits),")
    report("worked around by limiting operand widths")
    report("")
    report("median of %d runs per row" % RUNS)
    report("")
    report("%-11s %6s %10s %17s %8s"
           % ("opt", "width", "seconds", "min-max", "status"))
    report("-" * 56)
    times = {}
    for label, width, elapsed, least, most, status in rows:
        report("%-11s %6d %10.3f %17s %8s" % (
            label, width, elapsed, "%.3f-%.3f" % (least, most), status))
        times[(label, width)] = elapsed
        assert status == "valid", (label, width, status)

    easy_growth = times[("xor-chain", WIDTHS[-1])] / max(
        times[("xor-chain", WIDTHS[0])], 1e-9
    )
    hard_growth = times[("mul-nsw", WIDTHS[-1])] / max(
        times[("mul-nsw", WIDTHS[0])], 1e-9
    )
    report("")
    report("growth %d->%d bits (medians): xor-chain x%.1f, mul-nsw x%.1f"
           % (WIDTHS[0], WIDTHS[-1], easy_growth, hard_growth))
    report("shape: multiplication queries grow much faster with width;")
    report("mul-reassoc stays flat: AC normal form, no multiplier in SAT")

    assert hard_growth > easy_growth
