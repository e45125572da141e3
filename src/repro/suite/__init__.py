"""The bundled optimization corpus (paper §6.1, Table 3).

The paper translated 334 InstCombine transformations into Alive across
six source files and found 8 of them wrong (Figure 8).  This package
bundles a representative corpus with the same per-file organization —
every entry is a genuine InstCombine pattern — plus the eight Figure 8
bugs verbatim and the §6.2 patch-review scenario.

Loaders:

* :func:`load_category` / :func:`load_all` — the correct corpus;
* :func:`load_bugs` — the Figure 8 transformations (all must refute);
* :func:`load_patches` — the three-revision §6.2 scenario;
* :func:`load_baseline` — the identities of the §6.4 baseline optimizer;
* :data:`PAPER_TABLE3` — the paper's own Table 3 numbers, for the
  side-by-side comparison printed by ``benchmarks/bench_table3.py``.
"""

from __future__ import annotations

import os
from typing import Dict, List

from ..ir import Transformation, parse_transformations

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: category name -> data file; ordered like Table 3
CATEGORIES = {
    "AddSub": "addsub.opt",
    "AndOrXor": "andorxor.opt",
    "LoadStoreAlloca": "loadstorealloca.opt",
    "MulDivRem": "muldivrem.opt",
    "Select": "select.opt",
    "Shifts": "shifts.opt",
}

#: Table 3 of the paper: file -> (total opts, translated, bugs found)
PAPER_TABLE3 = {
    "AddSub": (67, 49, 2),
    "AndOrXor": (165, 131, 0),
    "Calls": (80, 0, 0),
    "Casts": (77, 0, 0),
    "Combining": (63, 0, 0),
    "Compares": (245, 0, 0),
    "LoadStoreAlloca": (28, 17, 0),
    "MulDivRem": (65, 44, 6),
    "PHI": (12, 0, 0),
    "Select": (74, 52, 0),
    "Shifts": (43, 41, 0),
    "SimplifyDemanded": (75, 0, 0),
    "VectorOps": (34, 0, 0),
}

#: which Table 3 file each Figure 8 bug is attributed to.  The paper
#: reports 2 bugs in AddSub and 6 in MulDivRem: the negation-based
#: PR20186 and the sub-nsw PR20189 are the AddSub pair.
BUG_CATEGORY = {
    "PR20186": "AddSub",
    "PR20189": "AddSub",
    "PR21242": "MulDivRem",
    "PR21243": "MulDivRem",
    "PR21245": "MulDivRem",
    "PR21255": "MulDivRem",
    "PR21256": "MulDivRem",
    "PR21274": "MulDivRem",
}


def _load_file(filename: str) -> List[Transformation]:
    path = os.path.join(_DATA_DIR, filename)
    with open(path, "r") as handle:
        return parse_transformations(handle.read(), path=path)


def load_category(category: str) -> List[Transformation]:
    """Transformations of one Table 3 category (correct corpus only)."""
    return _load_file(CATEGORIES[category])


def load_all() -> Dict[str, List[Transformation]]:
    """The full correct corpus, keyed by category."""
    return {cat: load_category(cat) for cat in CATEGORIES}


def load_all_flat() -> List[Transformation]:
    out: List[Transformation] = []
    for cat in CATEGORIES:
        out.extend(load_category(cat))
    return out


def load_bugs() -> List[Transformation]:
    """The eight Figure 8 bugs (expected: all refuted)."""
    return _load_file("bugs.opt")


def load_patches() -> List[Transformation]:
    """The §6.2 patch-review scenario (invalid, invalid, valid)."""
    return _load_file("patches.opt")


def load_baseline() -> List[Transformation]:
    """The identities of the baseline optimizer, the full-InstCombine
    stand-in of §6.4 (see :func:`repro.opt.baseline_rules`); not part
    of CATEGORIES, so the corpus workloads do not see them."""
    return _load_file("baseline.opt")


#: expected verdict for every rule in fp.opt — the file deliberately
#: mixes correct rules with classic wrong ones whose refutations need
#: IEEE-754 special values, so it is not part of CATEGORIES
FP_EXPECTED = {
    "FP:fadd-zero-wrong": "invalid",
    "FP:fadd-neg-zero": "valid",
    "FP:fadd-zero-nsz": "valid",
    "FP:fsub-zero": "valid",
    "FP:fmul-one": "valid",
    "FP:fmul-one-comm": "valid",
    "FP:fdiv-one": "valid",
    "FP:fmul-neg-one": "valid",
    "FP:fneg-fneg": "valid",
    "FP:fcmp-ord-self": "valid",
    "FP:fcmp-uno-self": "valid",
    "FP:fcmp-olt-swap": "valid",
    "FP:fcmp-ole-to-olt-wrong": "invalid",
    "FP:fsub-self-wrong": "invalid",
    "FP:fsub-self-nnan-ninf": "valid",
    "FP:fdiv-self-wrong": "invalid",
    "FP:fptosi-sitofp-wrong": "invalid",
    "FP:sitofp-uitofp-wrong": "invalid",
    "FP:fpext-lit": "valid",
    "FP:fptrunc-lit": "valid",
    "FP:fmul-one-float": "valid",
    "FP:fadd-neg-zero-double": "valid",
    "FP:fdiv-recip-wrong": "invalid",
    "FP:fdiv-recip-arcp": "valid",
    "FP:fdiv-recip-pow2-arcp": "valid",
}


def load_fp() -> List[Transformation]:
    """The floating-point corpus (mixed verdicts; see FP_EXPECTED)."""
    return _load_file("fp.opt")
