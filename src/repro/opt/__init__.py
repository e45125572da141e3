"""The peephole pass engine — the executable analogue of Alive's
generated C++ (paper §4, §6.4).

* :class:`~repro.opt.pass_manager.PeepholePass` drives a rule set over
  concrete IR modules, with per-optimization firing statistics
  (Figure 9's data).
* :func:`~repro.opt.pass_manager.compile_opts` turns verified Alive
  transformations into appliable optimizations.
* :mod:`repro.opt.baseline` holds the native constant folds and the
  full-InstCombine stand-in used as the §6.4 comparison baseline.
* :mod:`repro.opt.analysis` implements the dataflow analyses behind the
  precondition predicates (known bits, one-use, overflow facts).
"""

from .analysis import Analyses, KnownBitsAnalysis
from .baseline import NativeRule, baseline_rules, folding_rules
from .dce import run_dce, run_dce_module
from .matcher import Match, TemplateMatcher
from .pass_manager import PassStatistics, PeepholeOpt, PeepholePass, compile_opts
from .rewriter import RewriteError, Rewriter

__all__ = [
    "Analyses",
    "KnownBitsAnalysis",
    "NativeRule",
    "baseline_rules",
    "folding_rules",
    "run_dce",
    "run_dce_module",
    "Match",
    "TemplateMatcher",
    "PassStatistics",
    "PeepholeOpt",
    "PeepholePass",
    "compile_opts",
    "RewriteError",
    "Rewriter",
]
