"""CNF representation and fresh-variable management for the SAT backend.

Literals follow the DIMACS convention: variables are positive integers
``1..n`` and a literal is ``+v`` or ``-v``.  :class:`CnfBuilder` hands out
fresh variables and accumulates clauses; the Tseitin-style gate helpers
keep the encoding linear in the circuit size.

The gates are structurally hashed, as in an and-inverter graph: each
builder keeps one dict from a normalized gate key to the gate's output
literal, so a gate built twice over the same inputs - from two terms,
two halves of a refinement query or two rounds of one CEGIS loop - gets
one variable and one set of definition clauses.  The keys are:

* ``and``: the inputs after constant folding, sorted and deduplicated
  (complementary inputs fold to false);
* ``xor``: the sorted absolute input values, with the sign parity moved
  onto the returned literal;
* ``ite``: a positive selector (a negative one swaps the branches);
* ``maj`` (a full adder's carry): the three inputs sorted by variable,
  with at most one of them negated - by self-duality,
  ``maj(¬a, ¬b, ¬c) = ¬maj(a, b, c)``, so the negation of two or three
  inputs moves onto the returned literal;
* ``xor3`` (a full adder's sum): the sorted absolute input values, with
  the sign parity moved onto the returned literal, as for ``xor``.

``maj`` and ``xor3`` fold constant, repeated and complementary inputs
first (``maj(a, b, ⊤) = a ∨ b``, ``xor3(a, a, c) = c``), so a full
adder over three distinct variables costs two variables and 14 clauses,
and a half adder is one ``xor`` and one ``and``.

A definition is a permanent, unguarded equivalence between the output
and its inputs, so reusing it in any later constraint of the same
builder is sound.  Plain clauses (:meth:`CnfBuilder.add_clause`) and
fresh variables (:meth:`CnfBuilder.new_var`) are never cached.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

TRUE_LIT_NAME = "__true__"


class CnfBuilder:
    """Accumulates a CNF formula and allocates fresh SAT variables.

    A distinguished variable asserted true is available as
    :attr:`true_lit`; constant-folding the Boolean structure upstream
    usually keeps it unused, but gates may return it for degenerate cases.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[List[int]] = []
        #: structural hash: normalized gate key -> output literal
        self._gates: Dict[Tuple, int] = {}
        self.true_lit = self.new_var()
        self.add_clause([self.true_lit])

    @property
    def false_lit(self) -> int:
        return -self.true_lit

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, n: int) -> List[int]:
        return [self.new_var() for _ in range(n)]

    # ------------------------------------------------------------------
    # Incremental interface: consumers feeding a live SAT solver take a
    # mark, add constraints, and ship only the clauses added since.
    # ------------------------------------------------------------------

    def mark(self) -> int:
        """A position in the clause stream, for :meth:`clauses_since`."""
        return len(self.clauses)

    def clauses_since(self, mark: int) -> List[List[int]]:
        """The clauses appended after *mark* was taken.

        New constraints *extend* the formula rather than rebuild it:
        an incremental solver already holding the first ``mark`` clauses
        only needs this suffix to stay in sync.
        """
        return self.clauses[mark:]

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a clause, dropping duplicate literals; tautologies are
        silently discarded."""
        seen = set()
        out = []
        for lit in lits:
            if -lit in seen:
                return
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        self.clauses.append(out)

    # ------------------------------------------------------------------
    # Tseitin gates.  Each returns a literal equivalent to the gate output;
    # a gate whose normalized key was built before returns the same one.
    # ------------------------------------------------------------------

    def lit_const(self, value: bool) -> int:
        return self.true_lit if value else self.false_lit

    def gate_not(self, a: int) -> int:
        return -a

    def gate_and(self, lits: Iterable[int]) -> int:
        true_lit = self.true_lit
        inputs = set()
        for l in lits:
            if l == true_lit:
                continue
            if l == -true_lit or -l in inputs:
                return -true_lit
            inputs.add(l)
        if len(inputs) < 2:
            return inputs.pop() if inputs else true_lit
        key = ("and",) + tuple(sorted(inputs))
        out = self._gates.get(key)
        if out is None:
            out = self._gates[key] = self.new_var()
            for l in key[1:]:
                self.add_clause([-out, l])
            self.add_clause([out] + [-l for l in key[1:]])
        return out

    def gate_or(self, lits: Iterable[int]) -> int:
        return -self.gate_and([-l for l in lits])

    def gate_xor(self, a: int, b: int) -> int:
        if a == self.true_lit:
            return -b
        if a == self.false_lit:
            return b
        if b == self.true_lit:
            return -a
        if b == self.false_lit:
            return a
        if a == b:
            return self.false_lit
        if a == -b:
            return self.true_lit
        negate = (a < 0) != (b < 0)
        a, b = sorted((abs(a), abs(b)))
        key = ("xor", a, b)
        out = self._gates.get(key)
        if out is None:
            out = self._gates[key] = self.new_var()
            self.add_clause([-out, a, b])
            self.add_clause([-out, -a, -b])
            self.add_clause([out, -a, b])
            self.add_clause([out, a, -b])
        return -out if negate else out

    def gate_iff(self, a: int, b: int) -> int:
        return -self.gate_xor(a, b)

    def gate_ite(self, c: int, t: int, e: int) -> int:
        """Multiplexer: ``c ? t : e``."""
        if c == self.true_lit:
            return t
        if c == self.false_lit:
            return e
        if t == e:
            return t
        if t == self.true_lit and e == self.false_lit:
            return c
        if t == self.false_lit and e == self.true_lit:
            return -c
        if c < 0:
            c, t, e = -c, e, t
        key = ("ite", c, t, e)
        out = self._gates.get(key)
        if out is None:
            out = self._gates[key] = self.new_var()
            self.add_clause([-out, -c, t])
            self.add_clause([-out, c, e])
            self.add_clause([out, -c, -t])
            self.add_clause([out, c, -e])
            # redundant but helps propagation when t == e at runtime
            self.add_clause([-out, t, e])
            self.add_clause([out, -t, -e])
        return out

    def gate_xor3(self, a: int, b: int, c: int) -> int:
        """Three-input parity ``a ⊕ b ⊕ c``: one variable, 8 clauses."""
        negate = False
        inputs = set()
        for l in (a, b, c):
            if l < 0:
                negate, l = not negate, -l
            if l == self.true_lit:
                negate = not negate
            else:
                inputs ^= {l}  # x ⊕ x = 0
        if len(inputs) < 3:
            if len(inputs) == 2:
                out = self.gate_xor(*inputs)
            else:
                out = inputs.pop() if inputs else self.false_lit
            return -out if negate else out
        key = ("xor3",) + tuple(sorted(inputs))
        out = self._gates.get(key)
        if out is None:
            out = self._gates[key] = self.new_var()
            x, y, z = key[1:]
            for sx in (x, -x):
                for sy in (y, -y):
                    for sz in (z, -z):
                        # inputs true exactly where negated here: out
                        # is their parity
                        odd = (sx < 0) ^ (sy < 0) ^ (sz < 0)
                        self.add_clause([sx, sy, sz, out if odd else -out])
        return -out if negate else out

    def gate_maj(self, a: int, b: int, c: int) -> int:
        """Majority of three: at least two inputs true.  One variable,
        6 clauses."""
        true_lit = self.true_lit
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            if z == true_lit:
                return self.gate_or([x, y])
            if z == -true_lit:
                return self.gate_and([x, y])
            if x == y:
                return x
            if x == -y:
                return z
        # self-duality: maj(¬a, ¬b, ¬c) = ¬maj(a, b, c), so the key has
        # at most one negated input
        negate = (a < 0) + (b < 0) + (c < 0) >= 2
        if negate:
            a, b, c = -a, -b, -c
        key = ("maj",) + tuple(sorted((a, b, c), key=abs))
        out = self._gates.get(key)
        if out is None:
            out = self._gates[key] = self.new_var()
            x, y, z = key[1:]
            for p, q in ((x, y), (x, z), (y, z)):
                self.add_clause([-out, p, q])
                self.add_clause([out, -p, -q])
        return -out if negate else out

    def gate_full_adder(self, a: int, b: int, cin: int):
        """Return ``(sum, carry)`` literals of a full adder."""
        return self.gate_xor3(a, b, cin), self.gate_maj(a, b, cin)

    def assert_lit(self, lit: int) -> None:
        self.add_clause([lit])
