"""Bottom-up template enumeration with fingerprint pruning.

The superoptimizer half of the discovery pipeline (ROADMAP: "from
verifier to superoptimizer").  Candidate *expressions* — small DAGs
over the integer binops with abstract constants — are enumerated
bottom-up by instruction count, and every expression carries a
*fingerprint*: its concrete evaluation vector over a deterministic,
seeded sample set (inputs at widths 4 and 8, the abstract constant
``C1`` swept exhaustively at width 4).  Fingerprints drive the two
prunes that keep the solver load sane:

* **class pruning** — only the first expression of each fingerprint
  class is expanded into larger expressions (the classic Massalin
  trick: a second way to compute the same vector adds no new
  building-block behavior);
* **pair pruning** — a candidate rule pairs a costlier source with a
  cheaper expression of the *same* fingerprint, so source/target pairs
  that disagree on any concrete sample die before any solver call.

Undefined behavior is part of the fingerprint: a sample where the
source traps evaluates to the ``UB`` sentinel, and an exact-vector
match therefore requires the target to trap in exactly the same
places (refinement allows the target anything where the source is
undefined, but demanding agreement keeps the filter bucket-hashable;
the *subspace* pairs below recover the interesting directional cases).

Besides exact matches, each expression mentioning ``C1`` is projected
onto constant *subspaces* (powers of two, nonzero, the sign bit).  A
pair that agrees on a proper subspace but not everywhere is a
**partial** candidate: verification will refute it, and the pipeline
hands it to :mod:`repro.core.preinfer` to synthesize the missing
precondition (``mul %x, C => shl %x, log2(C)`` agrees exactly on the
``isPowerOf2`` subspace, for example).  The derived leaf ``log2(C1)``
exists for precisely these targets and is evaluated as UB outside the
power-of-two subspace so it can never leak into an exact match.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..ir import ast, intops
from ..ir.precond import builtin_holds
from ..workload.costmodel import opcode_cost

#: sentinel for a sample where evaluation trapped (UB or undefined
#: constant expression); compares unequal to every defined value
UB = "U"

#: canonical leaf names, in binding order
INPUT_NAMES = ("%x", "%y", "%z", "%w")
CONST_NAMES = ("C1", "C2", "C3")

#: literal leaves available to both sides of a rule
LITERALS = (0, 1, 2, -1)

#: binops whose operands commute (used to halve the enumeration)
COMMUTATIVE = frozenset(("add", "mul", "and", "or", "xor"))

DEFAULT_OPS: Tuple[str, ...] = ast.BINOPS


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------


class Samples:
    """The deterministic sample set every fingerprint is taken over.

    Attributes:
        envs: one dict per sample mapping canonical leaf names to
            concrete values (already reduced modulo the sample width).
        widths: the width of each sample.
        subspaces: name -> tuple of sample indices, the constant
            subspaces used for partial pairing (defined by ``C1``).
    """

    __slots__ = ("envs", "widths", "subspaces", "n")

    def __init__(self, envs: List[dict], widths: List[int]):
        self.envs = envs
        self.widths = widths
        self.n = len(envs)
        c1 = [(e["C1"], w) for e, w in zip(envs, widths)]

        def where(fn: str) -> tuple:
            return tuple(i for i, (c, w) in enumerate(c1)
                         if builtin_holds(fn, [c], w))

        self.subspaces = {
            "isPowerOf2(C1)": where("isPowerOf2"),
            "isSignBit(C1)": where("isSignBit"),
            "C1 != 0": tuple(i for i, (c, _) in enumerate(c1) if c != 0),
        }


def _input_tuples(w: int, rng: random.Random, extra: int) -> List[tuple]:
    m = intops.mask(w)
    sign = 1 << (w - 1)
    fixed = [
        (0, 1, 2, 3),
        (m, 1, m - 1, 2),
        (sign, m, 5 & m, sign - 1),
        (3, (sign | 1) & m, 7 & m, 1),
    ]
    for _ in range(extra):
        fixed.append(tuple(rng.randrange(1 << w) for _ in range(4)))
    return fixed


def build_samples(seed: int) -> Samples:
    """The fingerprint sample set for *seed* (fully deterministic)."""
    rng = random.Random(seed * 7919 + 13)
    envs: List[dict] = []
    widths: List[int] = []

    def add(w: int, c1: int, tup: tuple) -> None:
        env = {"C1": c1 & intops.mask(w)}
        for name, value in zip(INPUT_NAMES, tup):
            env[name] = value & intops.mask(w)
        # the rarer constants get seeded pseudo-random streams
        for name in CONST_NAMES[1:]:
            env[name] = rng.randrange(1 << w)
        envs.append(env)
        widths.append(w)

    # width 4: C1 swept exhaustively so the constant subspaces are exact
    tuples4 = _input_tuples(4, rng, extra=2)
    for c1 in range(16):
        for tup in tuples4:
            add(4, c1, tup)
    # width 8: spot checks that a width-4 coincidence does not survive
    tuples8 = _input_tuples(8, rng, extra=1)
    for c1 in (0, 1, 2, 3, 5, 64, 128, 255):
        for tup in tuples8:
            add(8, c1, tup)
    return Samples(envs, widths)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """One enumerated expression with its fingerprint vector.

    ``op`` is a binop opcode for internal nodes, or one of the pseudo
    ops ``leaf`` (canonical input/constant name), ``lit`` (integer
    literal) and ``log2`` (the derived constant ``log2(C1)``, target
    side only).  ``vec`` is the evaluation tuple over the sample set,
    ``key`` a canonical prefix rendering used for deduplication and
    deterministic ordering, ``base_leaves`` the canonical leaf names
    consumed (``log2`` counts as consuming its constant).
    """

    __slots__ = ("op", "args", "size", "cost", "key", "vec",
                 "base_leaves", "derived", "n_inputs")

    def __init__(self, op: str, args: tuple, size: int, cost: float,
                 key: str, vec: tuple, base_leaves: FrozenSet[str],
                 derived: bool, n_inputs: int):
        self.op = op
        self.args = args
        self.size = size
        self.cost = cost
        self.key = key
        self.vec = vec
        self.base_leaves = base_leaves
        self.derived = derived
        self.n_inputs = n_inputs


def leaf_expr(name: str, samples: Samples) -> Expr:
    vec = tuple(env[name] for env in samples.envs)
    return Expr("leaf", (name,), 0, 0.0, name, vec,
                frozenset((name,)), False,
                1 if name in INPUT_NAMES else 0)


def lit_expr(value: int, samples: Samples) -> Expr:
    vec = tuple(value & intops.mask(w) for w in samples.widths)
    return Expr("lit", (value,), 0, 0.0, str(value), vec,
                frozenset(), False, 0)


def log2_expr(samples: Samples) -> Expr:
    """``log2(C1)`` — UB outside the power-of-two subspace."""
    vec = tuple(
        env["C1"].bit_length() - 1
        if env["C1"] != 0 and env["C1"] & (env["C1"] - 1) == 0 else UB
        for env in samples.envs
    )
    return Expr("log2", ("C1",), 0, 0.0, "log2(C1)", vec,
                frozenset(("C1",)), True, 0)


def binop_expr(op: str, a: Expr, b: Expr, samples: Samples) -> Expr:
    shared = a is b
    size = a.size + (0 if shared else b.size) + 1
    cost = a.cost + (0.0 if shared else b.cost) + opcode_cost(op)
    vec = []
    binop = intops.binop
    for i in range(samples.n):
        va, vb = a.vec[i], b.vec[i]
        if va is UB or vb is UB:
            vec.append(UB)
            continue
        try:
            vec.append(binop(op, va, vb, samples.widths[i]))
        except intops.UndefinedBehavior:
            vec.append(UB)
    return Expr(op, (a, b), size, cost,
                "(%s %s %s)" % (op, a.key, b.key), tuple(vec),
                a.base_leaves | b.base_leaves, a.derived or b.derived,
                max(a.n_inputs, b.n_inputs))


# ---------------------------------------------------------------------------
# Rendering expressions as Alive surface syntax
# ---------------------------------------------------------------------------


def _operand_str(e: Expr) -> str:
    if e.op == "leaf":
        return e.args[0]
    if e.op == "lit":
        return str(e.args[0])
    if e.op == "log2":
        return "log2(%s)" % e.args[0]
    raise ValueError("not a leaf: %s" % e.key)


def expr_lines(root: Expr, temp_prefix: str, root_name: str = "%r"
               ) -> List[str]:
    """Render one expression tree/DAG as template statements.

    Internal nodes become instructions named ``<temp_prefix>N`` in
    definition order; the root is named *root_name*.  A leaf root
    renders as a single Alive copy statement (``%r = %x``).
    """
    if root.size == 0:
        return ["%s = %s" % (root_name, _operand_str(root))]
    lines: List[str] = []
    names: Dict[int, str] = {}
    counter = [0]

    def walk(e: Expr) -> str:
        if e.size == 0:
            return _operand_str(e)
        name = names.get(id(e))
        if name is not None:
            return name
        a = walk(e.args[0])
        b = walk(e.args[1])
        if e is root:
            name = root_name
        else:
            counter[0] += 1
            name = "%s%d" % (temp_prefix, counter[0])
        names[id(e)] = name
        lines.append("%s = %s %s, %s" % (name, e.op, a, b))
        return name

    walk(root)
    return lines


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


class EnumerationResult:
    """Everything harvested from the bottom-up sweep."""

    __slots__ = ("exprs", "reps", "truncated", "generated")

    def __init__(self, exprs: List[Expr], reps: int, truncated: bool,
                 generated: int):
        self.exprs = exprs          # deduplicated, in generation order
        self.reps = reps            # fingerprint classes seen
        self.truncated = truncated  # hit the max_exprs ceiling
        self.generated = generated  # before dedup


def base_leaves(samples: Samples, n_inputs: int = 2,
                n_consts: int = 1) -> List[Expr]:
    """The standard leaf pool: inputs, abstract constants, literals."""
    leaves = [leaf_expr(n, samples) for n in INPUT_NAMES[:n_inputs]]
    leaves += [leaf_expr(n, samples) for n in CONST_NAMES[:n_consts]]
    leaves += [lit_expr(v, samples) for v in LITERALS]
    return leaves


def enumerate_exprs(
    samples: Samples,
    ops: Sequence[str] = DEFAULT_OPS,
    max_insts: int = 3,
    n_inputs: int = 2,
    rep_cap: int = 64,
    max_exprs: int = 40_000,
) -> EnumerationResult:
    """Bottom-up enumeration with fingerprint-class pruning.

    Only the first *rep_cap* expressions of distinct fingerprint class
    per size are used as building blocks for the next size; every
    generated expression (deduplicated by canonical key) is kept as a
    potential rule source or target.  Fully deterministic: ops, leaves
    and representatives are iterated in fixed order.
    """
    leaves = base_leaves(samples, n_inputs=n_inputs)
    pool_leaves = leaves + [log2_expr(samples)]
    by_size: Dict[int, List[Expr]] = {0: pool_leaves}
    reps_by_size: Dict[int, List[Expr]] = {0: pool_leaves}
    seen_keys = {e.key for e in pool_leaves}
    seen_vecs = {e.vec for e in pool_leaves}
    exprs: List[Expr] = list(pool_leaves)
    generated = len(pool_leaves)
    truncated = False

    for size in range(1, max_insts + 1):
        new: List[Expr] = []
        reps: List[Expr] = []
        # argument size splits (left, right) with left+right == size-1
        splits = [(size - 1 - r, r) for r in range(size)]
        for op in ops:
            for ls, rs in splits:
                for a in reps_by_size.get(ls, ()):
                    for b in reps_by_size.get(rs, ()):
                        if op in COMMUTATIVE and a.key > b.key:
                            continue
                        if len(exprs) + len(new) >= max_exprs:
                            truncated = True
                            break
                        e = binop_expr(op, a, b, samples)
                        generated += 1
                        if e.key in seen_keys:
                            continue
                        seen_keys.add(e.key)
                        new.append(e)
                        if e.vec not in seen_vecs and len(reps) < rep_cap:
                            seen_vecs.add(e.vec)
                            reps.append(e)
                    if truncated:
                        break
                if truncated:
                    break
            if truncated:
                break
        by_size[size] = new
        reps_by_size[size] = reps
        exprs.extend(new)
        if truncated:
            break
    return EnumerationResult(exprs, len(seen_vecs), truncated, generated)


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


class Candidate:
    """One candidate rewrite: source expression => target expression."""

    __slots__ = ("src", "tgt", "kind", "hint", "origin", "occurrences")

    def __init__(self, src: Expr, tgt: Expr, kind: str, hint: str,
                 origin: str, occurrences: int = 0):
        self.src = src
        self.tgt = tgt
        self.kind = kind        # "exact" | "partial"
        self.hint = hint        # subspace label for partial candidates
        self.origin = origin    # "enumerated" | "mined"
        self.occurrences = occurrences  # mined pattern frequency

    @property
    def saving(self) -> float:
        return self.src.cost - self.tgt.cost

    def rule_text(self, name: str, pre: Optional[str] = None) -> str:
        lines = ["Name: %s" % name]
        if pre:
            lines.append("Pre: %s" % pre)
        lines.extend(expr_lines(self.src, "%s"))
        lines.append("  =>")
        lines.extend(expr_lines(self.tgt, "%t"))
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Candidate(%s => %s, %s)" % (self.src.key, self.tgt.key,
                                            self.kind)


def _tgt_admissible(src: Expr, tgt: Expr, min_saving: float) -> bool:
    if tgt.key == src.key:
        return False
    if not tgt.base_leaves <= src.base_leaves:
        return False  # the target may not invent new inputs/constants
    return tgt.cost < src.cost - min_saving


def pair_candidates(
    sources: Sequence[Candidate],
    pool: Sequence[Expr],
    samples: Samples,
    min_saving: float = 0.0,
) -> List[Candidate]:
    """Pair each source with the cheapest fingerprint-equivalent target.

    *sources* are :class:`Candidate` stubs with ``tgt=None`` (origin
    and occurrence metadata travel with them); *pool* supplies the
    target expressions.  Exact vector matches are preferred; failing
    that, the constant subspaces are tried in declaration order and the
    first hit becomes a ``partial`` candidate for the salvage path.
    """
    by_vec: Dict[tuple, List[Expr]] = {}
    by_sub: Dict[str, Dict[tuple, List[Expr]]] = {
        name: {} for name in samples.subspaces
    }
    for e in pool:
        by_vec.setdefault(e.vec, []).append(e)
        for name, idxs in samples.subspaces.items():
            proj = tuple(e.vec[i] for i in idxs)
            by_sub[name].setdefault(proj, []).append(e)
    for bucket in by_vec.values():
        bucket.sort(key=lambda e: (e.cost, e.key))
    for table in by_sub.values():
        for bucket in table.values():
            bucket.sort(key=lambda e: (e.cost, e.key))

    out: List[Candidate] = []
    seen: set = set()
    for stub in sources:
        src = stub.src
        if src.size < 1 or src.derived or src.n_inputs == 0:
            continue
        if all(v is UB for v in src.vec):
            continue
        if src.key in seen:
            continue
        found = None
        for tgt in by_vec.get(src.vec, ()):
            if not tgt.derived and _tgt_admissible(src, tgt, min_saving):
                found = Candidate(src, tgt, "exact", "", stub.origin,
                                  stub.occurrences)
                break
        if found is None and "C1" in src.base_leaves:
            for name, idxs in samples.subspaces.items():
                proj = tuple(src.vec[i] for i in idxs)
                if not idxs or all(v is UB for v in proj):
                    continue
                for tgt in by_sub[name].get(proj, ()):
                    if tgt.vec == src.vec:
                        continue  # exact pairing already rejected it
                    if _tgt_admissible(src, tgt, min_saving):
                        found = Candidate(src, tgt, "partial", name,
                                          stub.origin, stub.occurrences)
                        break
                if found is not None:
                    break
        if found is not None:
            seen.add(src.key)
            out.append(found)
    return out
