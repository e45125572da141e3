"""Verification configuration knobs.

The paper verifies with integer widths up to 64 bits and ABI pointer
widths of 32/64.  A pure-Python bit-blaster is considerably slower than
Z3, so the defaults here are smaller; every knob can be raised to the
paper's values at the cost of time (see DESIGN.md, "Width bounds").
"""

from __future__ import annotations


class Config:
    """Parameters threaded through type enumeration and VC generation.

    Attributes:
        max_width: upper bound on integer bit widths during type
            enumeration (paper default: 64).
        prefer_widths: widths tried first, so the first counterexample is
            a readable one (paper §3.1.4 biases toward 4 and 8 bits).
        ptr_width: pointer width in bits for memory encodings.
        abi_int_align: ABI alignment quantum in bits (paper §3.3.1).
        conflict_limit: CDCL conflict budget per SMT query; ``None`` means
            unbounded.  When exceeded, verification reports "unknown"
            instead of looping for hours (the paper reports exactly this
            pathology for mul/div at large widths).
        simplify_queries: apply the global rewriting simplifier to each
            query before bit-blasting (ablatable).
        max_type_assignments: cap on enumerated type assignments per
            transformation (the paper's enumeration is also bounded).
        time_limit: wall-clock budget in seconds for checking one type
            assignment; ``None`` means unbounded.  When exceeded the
            check reports "unknown", exactly like an exhausted conflict
            budget.  The batch engine uses this as its per-job timeout.
        fp_formats: floating-point formats enumerated for unconstrained
            FP type variables, in preference order (half first: the
            16-bit soft-float circuits are dramatically cheaper to
            bit-blast than double's).
    """

    def __init__(
        self,
        max_width: int = 8,
        prefer_widths=(4, 8),
        ptr_width: int = 16,
        abi_int_align: int = 8,
        conflict_limit=200_000,
        max_type_assignments: int = 24,
        simplify_queries: bool = True,
        time_limit=None,
        fp_formats=("half", "float", "double"),
    ):
        self.max_width = max_width
        self.prefer_widths = tuple(prefer_widths)
        self.ptr_width = ptr_width
        self.abi_int_align = abi_int_align
        self.conflict_limit = conflict_limit
        self.max_type_assignments = max_type_assignments
        # run the global term simplifier (repro.smt.simplify) on every
        # refinement query before bit-blasting
        self.simplify_queries = simplify_queries
        self.time_limit = time_limit
        self.fp_formats = tuple(fp_formats)

    def to_dict(self) -> dict:
        """All knobs as JSON-serializable plain data.

        The batch engine hashes this dict into job cache keys (every
        knob here can change a verdict) and ships it across the worker
        process boundary.
        """
        return {
            "max_width": self.max_width,
            "prefer_widths": list(self.prefer_widths),
            "ptr_width": self.ptr_width,
            "abi_int_align": self.abi_int_align,
            "conflict_limit": self.conflict_limit,
            "max_type_assignments": self.max_type_assignments,
            "simplify_queries": self.simplify_queries,
            "time_limit": self.time_limit,
            "fp_formats": list(self.fp_formats),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        """Inverse of :meth:`to_dict` (used on the worker side)."""
        return cls(**data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            "Config(max_width=%d, ptr_width=%d, conflict_limit=%r)"
            % (self.max_width, self.ptr_width, self.conflict_limit)
        )


DEFAULT_CONFIG = Config()

#: A faster configuration used by the test suite.
FAST_CONFIG = Config(max_width=4, prefer_widths=(4,), ptr_width=8,
                     max_type_assignments=8, fp_formats=("half",))

#: Paper-equivalent configuration (slow with the pure-Python solver).
PAPER_CONFIG = Config(max_width=64, prefer_widths=(4, 8), ptr_width=32,
                      abi_int_align=32, conflict_limit=None,
                      max_type_assignments=10_000)
