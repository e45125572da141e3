"""A CDCL SAT solver with incremental, assumption-based solving.

This is the decision procedure at the bottom of the reproduction's SMT
stack (the original Alive relies on Z3, which is unavailable in this
environment).  It is a conventional conflict-driven clause-learning
solver:

* two-watched-literal propagation;
* first-UIP conflict analysis with basic clause minimization;
* VSIDS variable activity with a lazy max-heap and phase saving;
* Luby-sequence restarts;
* learned-clause reduction driven by LBD (glue) and activity.

The solver is *incremental* in the MiniSat sense: :meth:`SatSolver.solve`
may be called repeatedly, clauses and variables may be added between
calls (:meth:`add_clause`, :meth:`new_var`), and each call may carry a
list of *assumption literals* that hold for that call only.  The
learned-clause database, variable activities, saved phases and watch
lists survive across calls, which is what makes families of
near-identical queries (per-type-assignment refinement checks,
CEGIS rounds) cheaper than solving each from scratch.
When a query is unsatisfiable *because of its assumptions*, the subset
of assumptions the proof used is available as
:attr:`SatSolver.failed_assumptions` (the assumption-level analogue of
an unsat core).

The implementation favours clarity over raw speed but avoids the
asymptotic traps (no O(clauses) scans during propagation, no O(vars)
scans per decision).
"""

from __future__ import annotations

import heapq
import time
from heapq import heappush
from typing import Dict, List, Optional, Sequence

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class Clause:
    """A clause plus the metadata used by the reduction heuristic."""

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
        self.num_vars = num_vars
        self.clauses: List[Clause] = []
        self.learned: List[Clause] = []
        # assign[v]: 1 true, 0 false, -1 unassigned
        self.assign: List[int] = [-1] * (num_vars + 1)
        self.level: List[int] = [0] * (num_vars + 1)
        self.reason: List[Optional[Clause]] = [None] * (num_vars + 1)
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.prop_head = 0
        self.watches: Dict[int, List[Clause]] = {}
        # binary clauses get their own watch structure: entries are
        # (other_lit, clause) so propagation needs no relocation scan.
        # Tseitin encodings are dominated by binary gate clauses, so
        # this fast path carries most of the propagation load.
        self.bin_watches: Dict[int, list] = {}
        self.activity: List[float] = [0.0] * (num_vars + 1)
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        self.phase: List[int] = [0] * (num_vars + 1)
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.solves = 0
        #: assumption literals implicated in the last assumption-UNSAT
        self.failed_assumptions: set = set()
        #: assignment snapshot of the last SAT answer (kept across the
        #: end-of-solve backtrack so models survive incremental reuse)
        self._model: Optional[List[int]] = None
        #: root-trail length at the last :meth:`_simplify` sweep
        self._simplified_at = 0
        self._heap: List = [(-0.0, v) for v in range(1, num_vars + 1)]
        heapq.heapify(self._heap)

    # ------------------------------------------------------------------
    # Variable / clause management
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate one fresh variable; returns its index."""
        self.num_vars += 1
        v = self.num_vars
        self.assign.append(-1)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(0)
        heapq.heappush(self._heap, (-0.0, v))
        return v

    def ensure_num_vars(self, n: int) -> None:
        """Grow the variable space to at least *n* variables."""
        while self.num_vars < n:
            self.new_var()

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
            assign = self.assign
            live = []
            for lit in out:
                val = assign[lit if lit > 0 else -lit]
                if val >= 0:
                    if (val == 1) == (lit > 0):
                        return
                    continue
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

    def _value(self, lit: int) -> int:
        """1 if lit is true, 0 if false, -1 if unassigned."""
        v = self.assign[lit if lit > 0 else -lit]
        if v < 0:
            return -1
        return v if lit > 0 else 1 - v

    def _enqueue(self, lit: int, reason: Optional[Clause]) -> bool:
        val = self._value(lit)
        if val == 0:
            return False
        if val == 1:
            return True
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else 0
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[Clause]:
        """Unit propagation; returns a conflicting clause or None.

        This is the solver's inner loop (the profile is dominated by it),
        so attribute lookups are hoisted into locals and the
        :meth:`_value` / :meth:`_enqueue` helpers are inlined.  The
        behaviour is bit-for-bit identical to the straightforward
        formulation those helpers express.
        """
        trail = self.trail
        watches = self.watches
        bin_watches = self.bin_watches
        assign = self.assign
        level = self.level
        reason = self.reason
        cur_level = len(self.trail_lim)
        props = 0
        conflict: Optional[Clause] = None
        while self.prop_head < len(trail):
            lit = trail[self.prop_head]
            self.prop_head += 1
            props += 1
            neg = -lit
            bws = bin_watches.get(neg)
            if bws:
                for other, clause in bws:
                    ov = assign[other if other > 0 else -other]
                    if ov < 0:
                        v = other if other > 0 else -other
                        assign[v] = 1 if other > 0 else 0
                        level[v] = cur_level
                        reason[v] = clause
                        trail.append(other)
                    elif (ov == 1) != (other > 0):
                        conflict = clause
                        break
                if conflict is not None:
                    break
            watchers = watches.get(neg)
            if not watchers:
                continue
            new_watchers: List[Clause] = []
            append_watcher = new_watchers.append
            i = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                lits = clause.lits
                if lits[0] == neg:
                    lits[0] = lits[1]
                    lits[1] = neg
                first = lits[0]
                # first literal already true: clause is satisfied
                fv = assign[first if first > 0 else -first]
                if fv >= 0 and (fv == 1) == (first > 0):
                    append_watcher(clause)
                    continue
                moved = False
                for k in range(2, len(lits)):
                    lk = lits[k]
                    val = assign[lk if lk > 0 else -lk]
                    if val < 0 or (val == 1) == (lk > 0):
                        # non-false literal found: relocate the watch
                        lits[1] = lk
                        lits[k] = neg
                        wl = watches.get(lk)
                        if wl is None:
                            watches[lk] = [clause]
                        else:
                            wl.append(clause)
                        moved = True
                        break
                if moved:
                    continue
                append_watcher(clause)
                if fv < 0:
                    # unit under the current assignment: enqueue first
                    v = first if first > 0 else -first
                    assign[v] = 1 if first > 0 else 0
                    level[v] = cur_level
                    reason[v] = clause
                    trail.append(first)
                else:
                    # first is false and no replacement: conflict
                    conflict = clause
                    new_watchers.extend(watchers[i:])
                    break
            watches[neg] = new_watchers
            if conflict is not None:
                break
        self.propagations += props
        return conflict

    # ------------------------------------------------------------------
    # VSIDS
    # ------------------------------------------------------------------

    def scrub_heuristics(self) -> None:
        """Reset VSIDS activities, saved phases and the decision heap to
        their fresh-solver values, keeping the clause database.

        An incremental session poses *independent* queries against one
        accumulated database; activity and phase state tuned by an
        earlier query's search actively misleads the next one (measured
        ~10x conflict blowups on counterexample searches over the alive
        bug corpus).  Learned clauses are assumption-free consequences
        of the formula, so they stay.
        """
        self.activity = [0.0] * (self.num_vars + 1)
        self.phase = [0] * (self.num_vars + 1)
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self._heap = [(-0.0, v) for v in range(1, self.num_vars + 1)
                      if self.assign[v] < 0]
        heapq.heapify(self._heap)

    def _bump_var(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(1, self.num_vars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
            self._heap = [(-self.activity[u], u) for u in range(1, self.num_vars + 1)
                          if self.assign[u] < 0]
            heapq.heapify(self._heap)
            return
        heapq.heappush(self._heap, (-self.activity[v], v))

    def _bump_clause(self, c: Clause) -> None:
        c.activity += self.cla_inc
        if c.activity > 1e20:
            for cl in self.learned:
                cl.activity *= 1e-20
            self.cla_inc *= 1e-20

    def _decide(self) -> int:
        """Pop the most active unassigned variable (lazy heap)."""
        while self._heap:
            neg_act, v = heapq.heappop(self._heap)
            if self.assign[v] < 0 and -neg_act >= self.activity[v] - 1e-12:
                return v if self.phase[v] else -v
            if self.assign[v] < 0:
                # stale activity entry; reinsert with the fresh score
                heapq.heappush(self._heap, (-self.activity[v], v))
        # heap exhausted: fall back to a linear scan (stale entries only)
        for v in range(1, self.num_vars + 1):
            if self.assign[v] < 0:
                return v if self.phase[v] else -v
        return 0

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _analyze(self, conflict: Clause):
        """First-UIP learning; returns (learned_lits, backtrack_level)."""
        learnt: List[int] = [0]  # slot 0 becomes the asserting literal
        # a set, not a num_vars-sized array: in an incremental session
        # num_vars accumulates across queries and a per-conflict O(vars)
        # allocation would tax every conflict with the session's size
        seen = set()
        counter = 0
        lit: Optional[int] = None
        index = len(self.trail) - 1
        clause: Optional[Clause] = conflict
        cur_level = len(self.trail_lim)
        trail = self.trail
        levels = self.level

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
                    self._bump_var(v)
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
                if pv == abs(q) or self.level[pv] == 0:
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
                if self.level[abs(learnt[k])] > self.level[abs(learnt[max_i])]:
                    max_i = k
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = self.level[abs(learnt[1])]
        return learnt, bt_level

    def _lbd(self, lits: Sequence[int]) -> int:
        return len({self.level[abs(l)] for l in lits})

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        trail = self.trail
        assign = self.assign
        phase = self.phase
        reason = self.reason
        activity = self.activity
        heap = self._heap
        limit = self.trail_lim[level]
        for idx in range(len(trail) - 1, limit - 1, -1):
            lit = trail[idx]
            v = lit if lit > 0 else -lit
            phase[v] = assign[v]
            assign[v] = -1
            reason[v] = None
            heappush(heap, (-activity[v], v))
        del trail[limit:]
        del self.trail_lim[level:]
        self.prop_head = limit

    def _simplify(self) -> None:
        """Root-level database simplification (MiniSat's ``simplify()``).

        Runs between queries, at decision level 0 with propagation
        complete, once new root facts have arrived since the last sweep.
        Clauses satisfied at the root are detached from the watch lists
        and dropped — in an incremental session these are typically the
        guard clauses of retired activation literals, which would
        otherwise pollute the watch lists of every shared variable for
        the rest of the session — and root-false literals are stripped
        from the tail of surviving clauses.  Sound because root
        assignments are never undone; it changes only the order in which
        watchers are visited, never a verdict.
        """
        assign = self.assign
        dropped = set()
        for attr in ("clauses", "learned"):
            kept = []
            for clause in getattr(self, attr):
                lits = clause.lits
                satisfied = False
                for l in lits:
                    val = assign[l if l > 0 else -l]
                    if val >= 0 and (val == 1) == (l > 0):
                        satisfied = True
                        break
                if satisfied:
                    dropped.add(id(clause))
                    continue
                if len(lits) > 2:
                    # watched literals (slots 0/1) are never false here;
                    # the tail may carry root-falsified literals
                    live = [l for l in lits[2:]
                            if assign[l if l > 0 else -l] < 0]
                    if len(live) != len(lits) - 2:
                        clause.lits = lits[:2] + live
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
            # new root facts since the last call (e.g. retired
            # activation literals): sweep the database before searching
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
                    val = self._value(p)
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
                    self._model = self.assign[:]
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
        return self.assign[var] == 1


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
