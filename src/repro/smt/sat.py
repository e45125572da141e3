"""A CDCL SAT solver with incremental, assumption-based solving.

This is the decision procedure at the bottom of the reproduction's SMT
stack (the original Alive relies on Z3, which is unavailable in this
environment).  It is a conventional conflict-driven clause-learning
solver:

* two-watched-literal propagation;
* first-UIP conflict analysis with basic clause minimization;
* VSIDS variable activity with an indexed max-heap and phase saving;
* Luby-sequence restarts;
* learned-clause reduction driven by LBD (glue) and activity.

The solver is *incremental* in the MiniSat sense: :meth:`SatSolver.solve`
may be called repeatedly, clauses and variables may be added between
calls (:meth:`add_clause`, :meth:`new_var`), and each call may carry a
list of *assumption literals* that hold for that call only.  The
learned-clause database, variable activities, saved phases and watch
lists survive across calls, which is what makes the rounds of a CEGIS
loop (each re-solves the last round's formula plus one instantiation)
cheaper than solving each from scratch.  Every other query gets a
fresh solver and one assumption-free :meth:`SatSolver.solve`.
When a query is unsatisfiable *because of its assumptions*, the subset
of assumptions the proof used is available as
:attr:`SatSolver.failed_assumptions` (the assumption-level analogue of
an unsat core).

Two data-structure contracts keep the inner loops cheap without
changing what the search does:

* The decision heap is MiniSat's order heap: a binary max-heap of
  variable indices plus a position array (``-1`` when absent), ordered
  by activity descending, then variable index ascending.  Every
  unassigned variable is in the heap; assigned ones may linger until
  :meth:`SatSolver._decide` pops them.  So a decision is always the
  unassigned variable maximising ``(activity, -v)``, a bump is an
  in-place sift-up, and a backtrack inserts only variables that were
  popped.
* ``lval[lit]`` is the value of a *literal*: 1 true, 0 false, -1
  unassigned.  Negative literals index from the end of the list
  (``lval[-v]`` is the value of ``¬v``), so a literal test is one
  subscript; for a variable ``v``, ``lval[v]`` is its value.

Watch lists are compacted in place during propagation, keeping their
order.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class Clause:
    """A clause plus the metadata used by the reduction heuristic.

    Slots 0 and 1 of ``lits`` hold the watched literals.  The literals
    stay a plain :class:`list` behind a slot rather than making the
    clause a list subclass: CPython's specialised subscript paths take
    exact lists only, and the propagation loop subscripts ``lits``
    several times per visit.
    """

    __slots__ = ("lits", "learned", "lbd", "activity")

    def __init__(self, lits: List[int], learned: bool = False, lbd: int = 0):
        self.lits = lits
        self.learned = learned
        self.lbd = lbd
        self.activity = 0.0


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence
    1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,... (MiniSat's formulation)."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


#: sentinel distinguishing "not passed" from an explicit None
_UNSET = object()


class SatSolver:
    """Incremental CDCL solver over variables ``1..num_vars``.

    One-shot usage (unchanged)::

        solver = SatSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        status = solver.solve()            # SAT / UNSAT / UNKNOWN
        if status == SAT:
            value = solver.model_value(v)  # bool for each variable

    Incremental usage::

        status = solver.solve(assumptions=[a, -b])
        solver.new_var()                   # grow the variable space
        solver.add_clause([...])           # extend the formula
        status = solver.solve(assumptions=[c])

    Assumptions are literals that hold for one :meth:`solve` call only;
    the learned-clause database, activities, phases and watch lists are
    kept across calls.  When a call returns :data:`UNSAT` because of its
    assumptions (rather than the formula being unsatisfiable outright,
    which permanently sets ``ok = False``), the subset of assumptions
    the refutation used is left in :attr:`failed_assumptions`.

    ``conflict_limit`` bounds the search deterministically *per call*;
    when the budget is exhausted :meth:`solve` returns :data:`UNKNOWN`.
    ``deadline`` (a ``time.monotonic()`` timestamp) bounds it in wall
    clock; it is checked between conflicts/decisions, so overshoot is
    limited to one propagation pass.  Both can be overridden per call.
    """

    def __init__(self, num_vars: int, conflict_limit: Optional[int] = None,
                 deadline: Optional[float] = None):
        self.conflict_limit = conflict_limit
        self.deadline = deadline
        self.num_vars = 0
        self.clauses: List[Clause] = []
        self.learned: List[Clause] = []
        # literal-indexed values, see the module docstring
        self.lval: List[int] = [-1]
        self.level: List[int] = [0]
        self.reason: List[Optional[Clause]] = [None]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.prop_head = 0
        self.watches: Dict[int, List[Clause]] = {}
        # binary clauses get their own watch structure: entries are
        # (other_lit, clause) so propagation needs no relocation scan.
        # Tseitin encodings are dominated by binary gate clauses, so
        # this fast path carries most of the propagation load.
        self.bin_watches: Dict[int, list] = {}
        self.activity: List[float] = [0.0]
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        self.phase: List[int] = [0]
        #: the order heap (variables) and each variable's slot in it
        self._heap: List[int] = []
        self._pos: List[int] = [-1]
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.solves = 0
        #: assumption literals implicated in the last assumption-UNSAT
        self.failed_assumptions: set = set()
        #: variable values of the last SAT answer (kept across the
        #: end-of-solve backtrack so models survive incremental reuse)
        self._model: Optional[List[int]] = None
        #: root-trail length at the last :meth:`_simplify` sweep
        self._simplified_at = 0
        self.ensure_num_vars(num_vars)

    # ------------------------------------------------------------------
    # Variable / clause management
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate one fresh variable; returns its index."""
        self.ensure_num_vars(self.num_vars + 1)
        return self.num_vars

    def ensure_num_vars(self, n: int) -> None:
        """Grow the variable space to at least *n* variables.

        A fresh variable has activity 0.0 and the largest index, so it
        is the least element of the heap order: appending it keeps the
        heap valid without a sift.
        """
        old = self.num_vars
        k = n - old
        if k <= 0:
            return
        self.num_vars = n
        # the new positive literals go after the old ones, the new
        # negative literals before the old negatives (which keep their
        # offsets from the end)
        self.lval[old + 1:old + 1] = [-1] * (2 * k)
        self.level.extend([0] * k)
        self.reason.extend([None] * k)
        self.activity.extend([0.0] * k)
        self.phase.extend([0] * k)
        heap = self._heap
        self._pos.extend(range(len(heap), len(heap) + k))
        heap.extend(range(old + 1, n + 1))

    def _watch(self, lit: int, clause: Clause) -> None:
        self.watches.setdefault(lit, []).append(clause)

    def _attach(self, clause: Clause) -> None:
        """Watch a clause, routing binaries to the dedicated structure."""
        lits = clause.lits
        if len(lits) == 2:
            a, b = lits
            self.bin_watches.setdefault(a, []).append((b, clause))
            self.bin_watches.setdefault(b, []).append((a, clause))
        else:
            self._watch(lits[0], clause)
            self._watch(lits[1], clause)

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a problem clause; may be called between :meth:`solve` calls.

        Before the first solve this is a plain append (clauses may watch
        already-falsified literals; the initial propagation pass visits
        them).  Between solves the clause is first simplified against
        the root-level assignment so the two watched literals are live —
        a clause added after propagation has run would otherwise never
        be woken.
        """
        if not self.ok:
            return
        seen = set()
        out = []
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return
        if self.solves > 0:
            if self.trail_lim:
                self._backtrack(0)
            # simplify against the root assignment: satisfied clauses
            # are dropped, falsified literals removed
            lval = self.lval
            live = []
            for lit in out:
                val = lval[lit]
                if val == 1:
                    return
                if val < 0:
                    live.append(lit)
            out = live
            if not out:
                self.ok = False
                return
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self.ok = False
            return
        clause = Clause(out)
        self.clauses.append(clause)
        self._attach(clause)

    # ------------------------------------------------------------------
    # Assignment / propagation
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[Clause]) -> bool:
        lval = self.lval
        val = lval[lit]
        if val >= 0:
            return val == 1
        lval[lit] = 1
        lval[-lit] = 0
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[Clause]:
        """Unit propagation; returns a conflicting clause or None.

        This is the solver's inner loop (the profile is dominated by it),
        so attribute lookups are hoisted into locals and
        :meth:`_enqueue` is inlined.  A long clause whose watch moves is
        appended to the new literal's list; the others are kept in
        order by compacting the falsified literal's list in place.
        """
        trail = self.trail
        watches = self.watches
        bin_watches = self.bin_watches
        lval = self.lval
        level = self.level
        reason = self.reason
        cur_level = len(self.trail_lim)
        head = self.prop_head
        start = head
        conflict: Optional[Clause] = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            neg = -lit
            bws = bin_watches.get(neg)
            if bws:
                for other, clause in bws:
                    ov = lval[other]
                    if ov < 0:
                        lval[other] = 1
                        lval[-other] = 0
                        v = other if other > 0 else -other
                        level[v] = cur_level
                        reason[v] = clause
                        trail.append(other)
                    elif ov == 0:
                        conflict = clause
                        break
                if conflict is not None:
                    break
            watchers = watches.get(neg)
            if not watchers:
                continue
            i = j = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                lits = clause.lits
                first = lits[0]
                if first == neg:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = neg
                # first literal already true: clause is satisfied
                if lval[first] == 1:
                    watchers[j] = clause
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if lval[lk] != 0:
                        # non-false literal found: relocate the watch
                        lits[1] = lk
                        lits[k] = neg
                        wl = watches.get(lk)
                        if wl is None:
                            watches[lk] = [clause]
                        else:
                            wl.append(clause)
                        break
                else:
                    watchers[j] = clause
                    j += 1
                    if lval[first] < 0:
                        # unit under the current assignment: enqueue first
                        lval[first] = 1
                        lval[-first] = 0
                        v = first if first > 0 else -first
                        level[v] = cur_level
                        reason[v] = clause
                        trail.append(first)
                    else:
                        # first is false and no replacement: conflict
                        conflict = clause
                        break
            # drop the relocated slots; on a conflict the unvisited
            # watchers from i on move down behind the kept ones
            del watchers[j:i]
            if conflict is not None:
                break
        self.prop_head = head
        self.propagations += head - start
        return conflict

    # ------------------------------------------------------------------
    # VSIDS
    # ------------------------------------------------------------------

    def _index_heap(self) -> None:
        """Rebuild the position array from the heap, in place (callers
        may hold a reference to it)."""
        pos = self._pos
        pos[:] = [-1] * (self.num_vars + 1)
        for i, v in enumerate(self._heap):
            pos[v] = i

    def _rescale_activity(self) -> None:
        """Scale every activity (and the increment) by 1e-100 in place.

        Underflow may turn distinct activities equal, which the index
        tie-break then orders, so the heap is re-sorted (a sorted list
        is a valid heap)."""
        act = self.activity
        act[:] = [a * 1e-100 for a in act]
        self.var_inc *= 1e-100
        self._heap.sort(key=lambda u: (-act[u], u))
        self._index_heap()

    def _sift_up(self, i: int, v: int) -> None:
        """Move *v*, whose activity may have grown, from slot *i* up."""
        heap = self._heap
        pos = self._pos
        act = self.activity
        a = act[v]
        while i:
            p = (i - 1) >> 1
            u = heap[p]
            au = act[u]
            if au > a or (au == a and u < v):
                break
            heap[i] = u
            pos[u] = i
            i = p
        heap[i] = v
        pos[v] = i

    def _bump_clause(self, c: Clause) -> None:
        c.activity += self.cla_inc
        if c.activity > 1e20:
            for cl in self.learned:
                cl.activity *= 1e-20
            self.cla_inc *= 1e-20

    def _decide(self) -> int:
        """Pop variables off the heap until an unassigned one appears;
        returns its saved-phase literal, or 0 if every variable is
        assigned."""
        heap = self._heap
        pos = self._pos
        act = self.activity
        lval = self.lval
        while heap:
            v = heap[0]
            pos[v] = -1
            last = heap.pop()
            if heap:
                # move the last leaf to the root and sift it down
                n = len(heap)
                a = act[last]
                i = 0
                c = 1
                while c < n:
                    cv = heap[c]
                    ca = act[cv]
                    r = c + 1
                    if r < n:
                        rv = heap[r]
                        ra = act[rv]
                        if ra > ca or (ra == ca and rv < cv):
                            c, cv, ca = r, rv, ra
                    if a > ca or (a == ca and last < cv):
                        break
                    heap[i] = cv
                    pos[cv] = i
                    i = c
                    c = 2 * i + 1
                heap[i] = last
                pos[last] = i
            if lval[v] < 0:
                return v if self.phase[v] else -v
        return 0

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _analyze(self, conflict: Clause):
        """First-UIP learning; returns (learned_lits, backtrack_level)."""
        learnt: List[int] = [0]  # slot 0 becomes the asserting literal
        # a set, not a num_vars-sized array: in a CEGIS session
        # num_vars accumulates across rounds and a per-conflict O(vars)
        # allocation would tax every conflict with the session's size
        seen = set()
        counter = 0
        lit: Optional[int] = None
        index = len(self.trail) - 1
        clause: Optional[Clause] = conflict
        cur_level = len(self.trail_lim)
        trail = self.trail
        levels = self.level
        act = self.activity
        pos = self._pos
        inc = self.var_inc

        while True:
            assert clause is not None
            if clause.learned:
                self._bump_clause(clause)
            for q in clause.lits:
                if lit is not None and q == lit:
                    continue
                v = q if q > 0 else -q
                if v not in seen and levels[v] > 0:
                    seen.add(v)
                    # VSIDS bump
                    a = act[v] + inc
                    act[v] = a
                    if a > 1e100:
                        self._rescale_activity()
                        inc = self.var_inc
                    elif pos[v] > 0:
                        self._sift_up(pos[v], v)
                    if levels[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                lit = trail[index]
                index -= 1
                v = lit if lit > 0 else -lit
                if v in seen:
                    break
            seen.discard(v)
            counter -= 1
            if counter == 0:
                break
            clause = self.reason[v]
        learnt[0] = -lit

        # basic clause minimization (self-subsumption with reasons)
        seen_vars = {abs(q) for q in learnt}

        def redundant(q: int) -> bool:
            r = self.reason[abs(q)]
            if r is None:
                return False
            for p in r.lits:
                pv = abs(p)
                if pv == abs(q) or levels[pv] == 0:
                    continue
                if pv not in seen_vars:
                    return False
            return True

        learnt = [learnt[0]] + [q for q in learnt[1:] if not redundant(q)]

        if len(learnt) == 1:
            bt_level = 0
        else:
            max_i = 1
            for k in range(2, len(learnt)):
                if levels[abs(learnt[k])] > levels[abs(learnt[max_i])]:
                    max_i = k
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = levels[abs(learnt[1])]
        return learnt, bt_level

    def _lbd(self, lits: Sequence[int]) -> int:
        return len({self.level[abs(l)] for l in lits})

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _backtrack(self, level: int) -> None:
        """Undo every level above *level*, saving phases and putting
        popped variables back into the heap."""
        if len(self.trail_lim) <= level:
            return
        trail = self.trail
        lval = self.lval
        phase = self.phase
        pos = self._pos
        heap = self._heap
        sift_up = self._sift_up
        limit = self.trail_lim[level]
        for idx in range(len(trail) - 1, limit - 1, -1):
            lit = trail[idx]
            lval[lit] = -1
            lval[-lit] = -1
            if lit > 0:
                phase[lit] = 1
                v = lit
            else:
                v = -lit
                phase[v] = 0
            if pos[v] < 0:
                heap.append(v)
                sift_up(len(heap) - 1, v)
        del trail[limit:]
        del self.trail_lim[level:]
        self.prop_head = limit

    def _simplify(self) -> None:
        """Root-level database simplification (MiniSat's ``simplify()``).

        Runs between queries, at decision level 0 with propagation
        complete, once new root facts have arrived since the last sweep.
        Clauses satisfied at the root (by units learned in an earlier
        call) are detached from the watch lists and dropped, and
        root-false literals are stripped from the tail of surviving
        clauses, in place.  Sound because
        root assignments are never undone; it changes only the order in
        which watchers are visited, never a verdict.
        """
        lval = self.lval
        dropped = set()
        for attr in ("clauses", "learned"):
            kept = []
            for clause in getattr(self, attr):
                lits = clause.lits
                satisfied = False
                for l in lits:
                    if lval[l] == 1:
                        satisfied = True
                        break
                if satisfied:
                    dropped.add(id(clause))
                    continue
                if len(lits) > 2:
                    # watched literals (slots 0/1) are never false here;
                    # the tail may carry root-falsified literals
                    live = [l for l in lits[2:] if lval[l] < 0]
                    if len(live) != len(lits) - 2:
                        lits[2:] = live
                kept.append(clause)
            setattr(self, attr, kept)
        if dropped:
            watches = self.watches
            for lit, ws in watches.items():
                if ws:
                    watches[lit] = [c for c in ws if id(c) not in dropped]
            bin_watches = self.bin_watches
            for lit, ws in bin_watches.items():
                if ws:
                    bin_watches[lit] = [e for e in ws
                                        if id(e[1]) not in dropped]
        self._simplified_at = len(self.trail)

    def _reduce_learned(self) -> None:
        """Drop roughly half of the learned clauses (low activity,
        non-glue, not currently used as a propagation reason)."""
        locked = {
            id(self.reason[abs(l)]) for l in self.trail if self.reason[abs(l)] is not None
        }
        self.learned.sort(key=lambda c: (c.lbd <= 2, c.activity))
        half = len(self.learned) // 2
        dropped = {
            id(c)
            for c in self.learned[:half]
            if c.lbd > 2 and id(c) not in locked
        }
        if not dropped:
            return
        self.learned = [c for c in self.learned if id(c) not in dropped]
        for lit, ws in self.watches.items():
            self.watches[lit] = [c for c in ws if id(c) not in dropped]

    def _analyze_final(self, p: int) -> set:
        """Assumption literals implicated in the falsification of *p*.

        *p* is an assumption found false at decision time.  Walks the
        implication trail backwards from the current state collecting
        the decisions (which, in assumption-based solving, are exactly
        the earlier assumptions) that the derivation of ``¬p`` rests on.
        The result — a subset of the call's assumptions including *p* —
        is the assumption-level unsat core.
        """
        out = {p}
        if not self.trail_lim:
            return out  # ¬p holds at root level: p alone fails
        seen = {abs(p)}
        for i in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[i]
            v = abs(lit)
            if v not in seen:
                continue
            reason = self.reason[v]
            if reason is None:
                out.add(lit)  # a decision == an earlier assumption
            else:
                for q in reason.lits:
                    if self.level[abs(q)] > 0:
                        seen.add(abs(q))
        return out

    def solve(self, assumptions: Sequence[int] = (),
              conflict_limit=_UNSET, deadline=_UNSET) -> str:
        """Run CDCL search to completion (or until the conflict budget).

        *assumptions* are literals treated as the first decisions of
        this call only; they are undone before returning.  The conflict
        budget is counted per call, so a long-lived solver does not
        starve later queries with conflicts spent on earlier ones.
        """
        if conflict_limit is _UNSET:
            conflict_limit = self.conflict_limit
        if deadline is _UNSET:
            deadline = self.deadline
        self.solves += 1
        self.failed_assumptions = set()
        self._model = None
        if not self.ok:
            return UNSAT
        self._backtrack(0)
        if self._propagate() is not None:
            self.ok = False
            return UNSAT
        if self.solves > 1 and len(self.trail) > self._simplified_at:
            # new root facts since the last call (learned units):
            # sweep the database before searching
            self._simplify()

        assumptions = list(assumptions)
        start_conflicts = self.conflicts
        restart_count = 0
        conflict_budget = luby(restart_count + 1) * 256
        conflicts_here = 0
        max_learned = max(2000, len(self.clauses) // 2)
        steps = 0

        while True:
            steps += 1
            if (
                deadline is not None
                and steps % 128 == 1  # includes step 1: expired deadlines
                and time.monotonic() >= deadline  # fail fast
            ):
                self._backtrack(0)
                return UNKNOWN
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if conflict_limit is not None \
                        and self.conflicts - start_conflicts > conflict_limit:
                    self._backtrack(0)
                    return UNKNOWN
                if len(self.trail_lim) == 0:
                    self.ok = False
                    return UNSAT
                learnt, bt_level = self._analyze(conflict)
                self._backtrack(bt_level)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self.ok = False
                        return UNSAT
                else:
                    clause = Clause(learnt, learned=True, lbd=self._lbd(learnt))
                    self.learned.append(clause)
                    self._attach(clause)
                    self._enqueue(learnt[0], clause)
                self.var_inc /= self.var_decay
                self.cla_inc /= self.cla_decay
                if len(self.learned) > max_learned:
                    self._reduce_learned()
                    max_learned = int(max_learned * 1.3)
            else:
                if conflicts_here >= conflict_budget:
                    restart_count += 1
                    conflict_budget = luby(restart_count + 1) * 256
                    conflicts_here = 0
                    self._backtrack(0)
                    continue
                if len(self.trail_lim) < len(assumptions):
                    # assumptions are the forced first decisions
                    p = assumptions[len(self.trail_lim)]
                    val = self.lval[p]
                    if val == 1:
                        # already implied: open an empty level so the
                        # remaining assumptions keep their positions
                        self.trail_lim.append(len(self.trail))
                        continue
                    if val == 0:
                        self.failed_assumptions = self._analyze_final(p)
                        self._backtrack(0)
                        return UNSAT
                    self.decisions += 1
                    self.trail_lim.append(len(self.trail))
                    self._enqueue(p, None)
                    continue
                lit = self._decide()
                if lit == 0:
                    self._model = self.lval[:self.num_vars + 1]
                    self._backtrack(0)
                    return SAT
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------

    def model_value(self, var: int) -> bool:
        """Value of *var* in the last SAT model (unassigned -> False)."""
        if self._model is not None:
            return self._model[var] == 1
        return self.lval[var] == 1


def solve_cnf(num_vars: int, clauses, conflict_limit: Optional[int] = None,
              deadline: Optional[float] = None):
    """One-shot convenience wrapper: returns ``(status, model_dict)``."""
    solver = SatSolver(num_vars, conflict_limit=conflict_limit,
                       deadline=deadline)
    for c in clauses:
        solver.add_clause(c)
    status = solver.solve()
    if status != SAT:
        return status, {}
    model = {v: solver.model_value(v) for v in range(1, num_vars + 1)}
    return status, model
