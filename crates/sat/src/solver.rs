//! The CDCL solver core.

use crate::{Lit, Var};
use std::ops::Range;

/// Sentinel clause reference: "no reason" (decision or axiom).
const CREF_NONE: u32 = u32::MAX;

/// Watcher flag on [`Watcher::cref`]: the clause is binary, so the
/// blocker is its other literal and propagation never reads the arena.
/// Clause references therefore stay below this bit.
const BINARY: u32 = 1 << 31;

/// Truth values in the dense assignment table. A literal's value is its
/// variable's entry XOR its sign bit, so an unassigned literal reads 2 or
/// 3 — never [`VAL_FALSE`] or [`VAL_TRUE`].
const VAL_FALSE: u8 = 0;
const VAL_TRUE: u8 = 1;
const VAL_UNDEF: u8 = 2;

/// Conflicts between interrupt-callback polls (cheap, deterministic).
const POLL_MASK: u64 = 1023;

/// Base restart interval in conflicts; scaled by the Luby sequence.
const RESTART_BASE: u64 = 64;

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A model was found; read it back with [`Solver::value`].
    Sat,
    /// The clause set is unsatisfiable — a proof, not a timeout.
    Unsat,
    /// The conflict budget (or interrupt callback) fired first.
    Unknown,
}

/// Deterministic work counters, mirrored into `rewire-obs` by callers.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Conflicts analysed (the budget unit).
    pub conflicts: u64,
    /// Single literal propagations.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learnt (including units).
    pub learnt_clauses: u64,
}

/// Every clause in one flat buffer. A clause is a header word
/// (`len << 2 | learnt << 1 | deleted`), then — for a learnt clause only —
/// the index of its activity in `activity`, then its literal codes. A
/// clause reference is the offset of its header, so references grow in
/// creation order.
#[derive(Debug, Default)]
struct ClauseArena {
    words: Vec<u32>,
    /// Learnt-clause activities, indexed by the word after the header.
    activity: Vec<f64>,
}

const HDR_DELETED: u32 = 1;
const HDR_LEARNT: u32 = 2;

impl ClauseArena {
    fn alloc(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        let cref = u32::try_from(self.words.len())
            .ok()
            .filter(|&c| c < BINARY)
            .expect("clause arena fits below the binary-watcher flag");
        let len = u32::try_from(lits.len())
            .ok()
            .filter(|&n| n < 1 << 30)
            .expect("clause length fits in the header");
        self.words
            .push((len << 2) | if learnt { HDR_LEARNT } else { 0 });
        if learnt {
            let slot = u32::try_from(self.activity.len()).expect("learnt clauses fit in u32");
            self.words.push(slot);
            self.activity.push(0.0);
        }
        self.words.extend(lits.iter().map(|l| l.raw()));
        cref
    }

    fn is_learnt(&self, cref: u32) -> bool {
        self.words[cref as usize] & HDR_LEARNT != 0
    }

    fn is_deleted(&self, cref: u32) -> bool {
        self.words[cref as usize] & HDR_DELETED != 0
    }

    fn delete(&mut self, cref: u32) {
        self.words[cref as usize] |= HDR_DELETED;
    }

    /// Word offsets of the clause's literals.
    fn lit_range(&self, cref: u32) -> Range<usize> {
        let h = self.words[cref as usize];
        let start = cref as usize + 1 + usize::from(h & HDR_LEARNT != 0);
        start..start + (h >> 2) as usize
    }

    fn len(&self, cref: u32) -> usize {
        (self.words[cref as usize] >> 2) as usize
    }

    fn lit(&self, cref: u32, k: usize) -> Lit {
        Lit::from_raw(self.words[self.lit_range(cref).start + k])
    }

    fn lits_mut(&mut self, cref: u32) -> &mut [u32] {
        let range = self.lit_range(cref);
        &mut self.words[range]
    }

    /// The activity of a learnt clause.
    fn activity_mut(&mut self, cref: u32) -> &mut f64 {
        debug_assert!(self.is_learnt(cref));
        &mut self.activity[self.words[cref as usize + 1] as usize]
    }

    fn activity(&self, cref: u32) -> f64 {
        self.activity[self.words[cref as usize + 1] as usize]
    }

    /// Every clause reference, in creation order.
    fn crefs(&self) -> impl Iterator<Item = u32> + '_ {
        let mut next = 0usize;
        std::iter::from_fn(move || {
            let cref = next as u32;
            next = self.words.get(next).map(|_| self.lit_range(cref).end)?;
            Some(cref)
        })
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    /// The watched clause, tagged with [`BINARY`] for two-literal clauses.
    cref: u32,
    blocker: Lit,
}

/// Every literal's watch list in one buffer, so building, growing and
/// freeing the lists is not one heap allocation per literal. List `l`
/// occupies `buf[start..start + len]` with room up to `start + cap`; a
/// push onto a full list first copies it to the end of the buffer with
/// twice the room, leaving the old slots unused. Entries keep their
/// order, exactly as a `Vec` per literal would.
#[derive(Debug, Default)]
struct Watches {
    buf: Vec<Watcher>,
    /// One span per literal code.
    lists: Vec<Span>,
}

#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Watches {
    /// Adds an empty list for the next literal code.
    fn push_lit(&mut self) {
        self.lists.push(Span::default());
    }

    fn push(&mut self, l: Lit, w: Watcher) {
        let span = &mut self.lists[l.code()];
        if span.len == span.cap {
            let start = self.buf.len();
            let cap = (span.cap as usize * 2).max(4);
            self.buf
                .extend_from_within(span.start as usize..(span.start + span.len) as usize);
            self.buf.resize(start + cap, w);
            // Every span then ends within u32, so `start + len` cannot wrap.
            u32::try_from(self.buf.len()).expect("watch buffer fits in u32");
            span.start = start as u32;
            span.cap = cap as u32;
        }
        self.buf[(span.start + span.len) as usize] = w;
        span.len += 1;
    }

    /// `(start, len)` of `l`'s list in `buf`.
    fn span(&self, l: Lit) -> (usize, usize) {
        let s = self.lists[l.code()];
        (s.start as usize, s.len as usize)
    }

    fn truncate(&mut self, l: Lit, len: usize) {
        debug_assert!(len <= self.lists[l.code()].len as usize);
        self.lists[l.code()].len = len as u32;
    }

    /// Removes `cref`'s watcher from `l`'s list, keeping the others' order.
    fn remove(&mut self, l: Lit, cref: u32) {
        let (start, len) = self.span(l);
        let list = &mut self.buf[start..start + len];
        let mut keep = 0;
        for i in 0..len {
            if list[i].cref != cref {
                list[keep] = list[i];
                keep += 1;
            }
        }
        self.truncate(l, keep);
    }
}

/// Max-heap over variables ordered by activity, ties toward the lower
/// index — the determinism-critical piece of VSIDS. Each entry carries its
/// variable's activity, so sifting reads one array; the entries are
/// refreshed in place, never re-sifted, when activities are rescaled.
#[derive(Default, Debug)]
struct VarOrder {
    heap: Vec<(f64, u32)>,
    /// Position of each variable in `heap`, or `u32::MAX` when absent.
    pos: Vec<u32>,
}

impl VarOrder {
    /// Adds variable `pos.len()` with activity 0.
    fn push_var(&mut self) {
        let v = self.pos.len() as u32;
        self.pos.push(u32::MAX);
        self.insert(v, 0.0);
    }

    fn before(a: (f64, u32), b: (f64, u32)) -> bool {
        a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != u32::MAX
    }

    fn insert(&mut self, v: u32, activity: f64) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len() as u32;
        self.heap.push((activity, v));
        self.up(self.heap.len() - 1);
    }

    /// Records `v`'s raised activity and sifts it up.
    fn bump(&mut self, v: u32, activity: f64) {
        if self.contains(v) {
            let i = self.pos[v as usize] as usize;
            self.heap[i].0 = activity;
            self.up(i);
        }
    }

    /// Re-reads every entry's activity after a rescale, leaving the array
    /// order as it is.
    fn refresh(&mut self, activity: &[f64]) {
        for e in &mut self.heap {
            e.0 = activity[e.1 as usize];
        }
    }

    fn pop(&mut self) -> Option<u32> {
        let top = self.heap.first()?.1;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = u32::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.down(0);
        }
        Some(top)
    }

    /// Sifts the entry at `i` toward the root. Parents move down into the
    /// hole and the entry is written once where it stops: the array a
    /// swap per level would leave, with half the writes.
    fn up(&mut self, mut i: usize) {
        let x = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(x, self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, x);
    }

    /// Sifts the entry at `i` toward the leaves, moving the better child
    /// up into the hole at each level (same array as a swap per level).
    fn down(&mut self, mut i: usize) {
        let x = self.heap[i];
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let (mut best, mut at) = (x, i);
            if l < self.heap.len() && Self::before(self.heap[l], best) {
                (best, at) = (self.heap[l], l);
            }
            if r < self.heap.len() && Self::before(self.heap[r], best) {
                (best, at) = (self.heap[r], r);
            }
            if at == i {
                break;
            }
            self.place(i, best);
            i = at;
        }
        self.place(i, x);
    }

    fn place(&mut self, i: usize, entry: (f64, u32)) {
        self.heap[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }
}

/// The value of `l` under `assign`: [`VAL_TRUE`], [`VAL_FALSE`], or 2/3
/// when unassigned.
fn lit_value(assign: &[u8], l: Lit) -> u8 {
    assign[l.var().index()] ^ u8::from(!l.is_positive())
}

/// A deterministic CDCL solver. See the [crate docs](crate) for the
/// guarantees and the overall recipe.
#[derive(Debug)]
pub struct Solver {
    arena: ClauseArena,
    learnt_refs: Vec<u32>,
    /// Live problem (non-learnt) clauses in the arena.
    problem_clauses: usize,
    watches: Watches,
    assign: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    polarity: Vec<bool>,
    order: VarOrder,
    seen: Vec<bool>,
    ok: bool,
    stats: SolverStats,
    /// Learnt clauses tolerated before a reduction pass; grows geometrically.
    reduce_limit: u64,
    /// [`Solver::add_clause`]'s normalisation buffer.
    add_buf: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// An empty solver (no variables, no clauses — trivially SAT).
    pub fn new() -> Solver {
        Solver {
            arena: ClauseArena::default(),
            learnt_refs: Vec::new(),
            problem_clauses: 0,
            watches: Watches::default(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            polarity: Vec::new(),
            order: VarOrder::default(),
            seen: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            reduce_limit: 4000,
            add_buf: Vec::new(),
        }
    }

    /// Builds a solver over `num_vars` variables holding `clauses`.
    pub fn from_clauses(num_vars: usize, clauses: &[Vec<Lit>]) -> Solver {
        let mut s = Solver::new();
        s.reserve_vars(num_vars);
        for c in clauses {
            s.add_clause(c);
        }
        s
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assign.len());
        self.assign.push(VAL_UNDEF);
        self.level.push(0);
        self.reason.push(CREF_NONE);
        self.activity.push(0.0);
        // Saved phase defaults to `false`: one-hot encodings are mostly
        // negative, so the first probe of a fresh variable rarely conflicts.
        self.polarity.push(false);
        self.seen.push(false);
        self.watches.push_lit();
        self.watches.push_lit();
        self.order.push_var();
        v
    }

    /// Allocates variables until at least `n` exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.assign.len() < n {
            self.new_var();
        }
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of problem (non-learnt, live) clauses.
    pub fn num_clauses(&self) -> usize {
        self.problem_clauses
    }

    /// Work counters so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Adds a clause. Returns `false` when the clause set is already known
    /// unsatisfiable at the root level (adding is then a no-op).
    ///
    /// Tautologies are dropped, duplicate literals merged, and root-level
    /// falsified literals removed. Must be called before [`solve`]; adding
    /// clauses between solve calls is not supported.
    ///
    /// # Panics
    ///
    /// Panics if any literal's variable was not allocated, or if called
    /// mid-search (non-root decision level).
    ///
    /// [`solve`]: Solver::solve
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "clauses are added at the root");
        if !self.ok {
            return false;
        }
        for l in lits {
            assert!(l.var().index() < self.num_vars(), "unallocated {l}");
        }
        // Normalise: sort (deterministic), merge duplicates, drop the
        // clause on p ∨ ¬p, and drop root-falsified / keep-free literals.
        let mut clause = std::mem::take(&mut self.add_buf);
        clause.clear();
        clause.extend_from_slice(lits);
        clause.sort_unstable();
        clause.dedup();
        let mut kept = 0;
        let mut satisfied = false;
        for i in 0..clause.len() {
            let l = clause[i];
            if i + 1 < clause.len() && clause[i + 1] == !l {
                satisfied = true; // tautology
                break;
            }
            match lit_value(&self.assign, l) {
                VAL_TRUE => {
                    satisfied = true; // already satisfied at root
                    break;
                }
                VAL_FALSE => {} // root-falsified: drop the literal
                _ => {
                    clause[kept] = l;
                    kept += 1;
                }
            }
        }
        clause.truncate(kept);
        let ok = match clause.len() {
            _ if satisfied => true,
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(clause[0], CREF_NONE);
                // Propagate eagerly so later add_clause calls see the
                // consequences and root-level UNSAT is caught immediately.
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(&clause, false);
                self.problem_clauses += 1;
                true
            }
        };
        self.add_buf = clause;
        ok
    }

    /// Solves without a conflict budget. Deterministic; terminates because
    /// the clause set is finite, but may take exponential time.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_limited(u64::MAX, &mut || false)
    }

    /// Solves under a *total* conflict budget (across the solver's
    /// lifetime, so repeated calls resume where the budget left off), with
    /// an interrupt callback polled every 1024 conflicts.
    ///
    /// `Sat` and `Unsat` are definitive; `Unknown` means the budget or the
    /// callback fired. The callback is for *secondary* wall-clock bail-outs
    /// only — for reproducible verdicts rely on the conflict budget.
    pub fn solve_limited(
        &mut self,
        max_conflicts: u64,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let mut restarts = 0u64;
        loop {
            let budget = luby(restarts) * RESTART_BASE;
            match self.search(budget, max_conflicts, should_stop) {
                Search::Sat => {
                    debug_assert!(self.model_satisfies_all(), "model re-check");
                    return SolveResult::Sat;
                }
                Search::Unsat => {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                Search::Restart => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
                Search::Stopped => {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
            }
        }
    }

    /// The value of `v` in the current (complete after `Sat`) assignment.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assign[v.index()] {
            VAL_TRUE => Some(true),
            VAL_FALSE => Some(false),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Search.

    fn search(
        &mut self,
        restart_budget: u64,
        max_conflicts: u64,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> Search {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    return Search::Unsat;
                }
                let (learnt, backtrack) = self.analyze(confl);
                self.cancel_until(backtrack);
                self.record_learnt(learnt);
                self.decay_activities();
                if self.stats.conflicts >= max_conflicts
                    || (self.stats.conflicts & POLL_MASK == 0 && should_stop())
                {
                    return Search::Stopped;
                }
            } else {
                if conflicts_here >= restart_budget {
                    return Search::Restart;
                }
                if self.learnt_refs.len() as u64 >= self.reduce_limit {
                    self.reduce_learnt_db();
                }
                match self.pick_branch_var() {
                    None => return Search::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::new(v, self.polarity[v.index()]);
                        self.unchecked_enqueue(lit, CREF_NONE);
                    }
                }
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var().index();
        debug_assert_eq!(self.assign[v], VAL_UNDEF);
        self.assign[v] = if l.is_positive() { VAL_TRUE } else { VAL_FALSE };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Propagates until fixpoint; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Clauses watching ¬p must be visited now that p is true.
            // The list is read and compacted in place by index: pushes
            // onto other lists may grow the buffer, but never onto this
            // one (a new watch is never the falsified literal).
            let (base, len) = self.watches.span(p);
            let mut keep = 0usize;
            let mut next = 0usize;
            let mut conflict = None;
            'watchers: while next < len {
                let w = self.watches.buf[base + next];
                next += 1;
                let blocker = lit_value(&self.assign, w.blocker);
                if blocker == VAL_TRUE {
                    self.watches.buf[base + keep] = w;
                    keep += 1;
                    continue;
                }
                if w.cref & BINARY != 0 {
                    // The blocker is the other literal: unit or conflict.
                    let cref = w.cref & !BINARY;
                    self.watches.buf[base + keep] = w;
                    keep += 1;
                    if blocker == VAL_FALSE {
                        // The order the general path's swap would leave,
                        // which conflict analysis reads.
                        let lits = self.arena.lits_mut(cref);
                        lits[0] = w.blocker.raw();
                        lits[1] = false_lit.raw();
                        conflict = Some(cref);
                        break;
                    }
                    self.unchecked_enqueue(w.blocker, cref);
                    continue;
                }
                let lits = self.arena.lits_mut(w.cref);
                // Make sure the falsified watch sits in slot 1.
                if lits[0] == false_lit.raw() {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit.raw());
                let first = Lit::from_raw(lits[0]);
                let watcher = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && lit_value(&self.assign, first) == VAL_TRUE {
                    self.watches.buf[base + keep] = watcher;
                    keep += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    if lit_value(&self.assign, Lit::from_raw(lits[k])) != VAL_FALSE {
                        lits.swap(1, k);
                        let new_watch = Lit::from_raw(lits[1]);
                        self.watches.push(!new_watch, watcher);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                self.watches.buf[base + keep] = watcher;
                keep += 1;
                if lit_value(&self.assign, first) == VAL_FALSE {
                    conflict = Some(w.cref);
                    break;
                }
                self.unchecked_enqueue(first, w.cref);
            }
            if conflict.is_some() {
                // Keep the unvisited watchers and stop.
                self.watches
                    .buf
                    .copy_within(base + next..base + len, base + keep);
                keep += len - next;
                self.qhead = self.trail.len();
            }
            self.watches.truncate(p, keep);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::positive(Var::from_index(0))]; // slot 0 patched below
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = confl;
        let mut idx = self.trail.len();
        let mut to_clear: Vec<Var> = Vec::new();
        loop {
            self.bump_clause(cref);
            // A reason clause holds the literal it implied, `p`; skip it by
            // variable, as propagation leaves binary clauses unordered.
            let implied = p.map(Lit::var);
            for k in self.arena.lit_range(cref) {
                let q = Lit::from_raw(self.arena.words[k]);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 && Some(v) != implied {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk back to the next marked trail literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let lit = self.trail[idx];
            self.seen[lit.var().index()] = false;
            counter -= 1;
            p = Some(lit);
            if counter == 0 {
                break;
            }
            cref = self.reason[lit.var().index()];
            debug_assert_ne!(cref, CREF_NONE, "non-UIP literal has a reason");
        }
        learnt[0] = !p.expect("first UIP found");
        for v in to_clear {
            self.seen[v.index()] = false;
        }
        // Backtrack to the second-highest level in the clause; hoist that
        // literal into slot 1 so it becomes the other watch.
        if learnt.len() == 1 {
            return (learnt, 0);
        }
        let mut max_i = 1;
        for i in 2..learnt.len() {
            if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                max_i = i;
            }
        }
        learnt.swap(1, max_i);
        let backtrack = self.level[learnt[1].var().index()];
        (learnt, backtrack)
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>) {
        self.stats.learnt_clauses += 1;
        if learnt.len() == 1 {
            debug_assert_eq!(self.decision_level(), 0);
            self.unchecked_enqueue(learnt[0], CREF_NONE);
            return;
        }
        let cref = self.attach_clause(&learnt, true);
        self.bump_clause(cref);
        self.unchecked_enqueue(learnt[0], cref);
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt);
        let tag = if lits.len() == 2 { cref | BINARY } else { cref };
        self.watches.push(
            !lits[0],
            Watcher {
                cref: tag,
                blocker: lits[1],
            },
        );
        self.watches.push(
            !lits[1],
            Watcher {
                cref: tag,
                blocker: lits[0],
            },
        );
        if learnt {
            self.learnt_refs.push(cref);
        }
        cref
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            // Phase saving: next decision on v re-tries this value.
            self.polarity[v] = l.is_positive();
            self.assign[v] = VAL_UNDEF;
            self.reason[v] = CREF_NONE;
            self.order.insert(v as u32, self.activity[v]);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        loop {
            let v = self.order.pop()?;
            if self.assign[v as usize] == VAL_UNDEF {
                return Some(Var::from_index(v as usize));
            }
        }
    }

    // ------------------------------------------------------------------
    // Activities.

    fn bump_var(&mut self, v: Var) {
        let i = v.index();
        self.activity[i] += self.var_inc;
        if self.activity[i] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.refresh(&self.activity);
        }
        self.order.bump(i as u32, self.activity[i]);
    }

    fn bump_clause(&mut self, cref: u32) {
        if !self.arena.is_learnt(cref) {
            return;
        }
        let activity = self.arena.activity_mut(cref);
        *activity += self.cla_inc;
        if *activity > 1e20 {
            for a in &mut self.arena.activity {
                *a *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    // ------------------------------------------------------------------
    // Learnt-clause reduction.

    fn is_locked(&self, cref: u32) -> bool {
        let first = self.arena.lit(cref, 0);
        lit_value(&self.assign, first) == VAL_TRUE && self.reason[first.var().index()] == cref
    }

    /// Drops the lower-activity half of the learnt clauses (binary and
    /// locked clauses survive). Deterministic: ties sort by clause
    /// reference, which is creation order.
    fn reduce_learnt_db(&mut self) {
        let mut ranked = self.learnt_refs.clone();
        ranked.sort_by(|&a, &b| {
            self.arena
                .activity(a)
                .partial_cmp(&self.arena.activity(b))
                .expect("activities are finite")
                .then(a.cmp(&b))
        });
        let goal = ranked.len() / 2;
        let mut removed = 0usize;
        for &cref in &ranked {
            if removed >= goal {
                break;
            }
            if self.arena.len(cref) <= 2 || self.is_locked(cref) {
                continue;
            }
            self.detach_clause(cref);
            removed += 1;
        }
        self.learnt_refs.retain(|&c| !self.arena.is_deleted(c));
        self.reduce_limit += self.reduce_limit / 2;
    }

    fn detach_clause(&mut self, cref: u32) {
        let (w0, w1) = (!self.arena.lit(cref, 0), !self.arena.lit(cref, 1));
        self.watches.remove(w0, cref);
        self.watches.remove(w1, cref);
        self.arena.delete(cref);
    }

    // ------------------------------------------------------------------
    // Model checking.

    fn model_satisfies_all(&self) -> bool {
        self.arena.crefs().all(|c| {
            self.arena.is_deleted(c)
                || self.arena.is_learnt(c)
                || self.arena.lit_range(c).any(|k| {
                    lit_value(&self.assign, Lit::from_raw(self.arena.words[k])) == VAL_TRUE
                })
        })
    }
}

enum Search {
    Sat,
    Unsat,
    Restart,
    Stopped,
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8…
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i, then recurse.
    let (mut k, mut size) = (1u32, 1u64);
    while size < i + 1 {
        k += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) / 2;
        k -= 1;
        i %= size;
    }
    1u64 << (k - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n).unwrap()
    }

    fn solver_for(num_vars: usize, clauses: &[&[i64]]) -> Solver {
        let built: Vec<Vec<Lit>> = clauses
            .iter()
            .map(|c| c.iter().map(|&n| lit(n)).collect())
            .collect();
        Solver::from_clauses(num_vars, &built)
    }

    #[test]
    fn empty_problem_is_sat() {
        assert_eq!(Solver::new().solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_clauses_fix_the_model() {
        let mut s = solver_for(2, &[&[1], &[-2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(0)), Some(true));
        assert_eq!(s.value(Var::from_index(1)), Some(false));
    }

    #[test]
    fn contradictory_units_are_unsat_at_add_time() {
        let mut s = Solver::new();
        s.reserve_vars(1);
        assert!(s.add_clause(&[lit(1)]));
        assert!(!s.add_clause(&[lit(-1)]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_and_duplicates_are_normalised_away() {
        let mut s = Solver::new();
        s.reserve_vars(2);
        assert!(s.add_clause(&[lit(1), lit(-1)]));
        assert!(s.add_clause(&[lit(2), lit(2)]));
        assert_eq!(s.num_clauses(), 0, "tautology dropped, unit propagated");
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(1)), Some(true));
    }

    #[test]
    fn pigeonhole_two_into_one_is_unsat() {
        // Two pigeons, one hole: x1 = pigeon 1 in hole, x2 = pigeon 2.
        let mut s = solver_for(2, &[&[1], &[2], &[-1, -2]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_three_into_two_is_unsat_through_search() {
        // p{i}h{j}: 3 pigeons × 2 holes — needs genuine conflict analysis.
        let v = |p: i64, h: i64| (p - 1) * 2 + h; // 1-based var codes
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        for p in 1..=3 {
            clauses.push(vec![v(p, 1), v(p, 2)]);
        }
        for h in 1..=2 {
            for p1 in 1..=3 {
                for p2 in (p1 + 1)..=3 {
                    clauses.push(vec![-v(p1, h), -v(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i64]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_for(6, &refs);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0, "required real search");
    }

    #[test]
    fn conflict_budget_returns_unknown_and_can_resume() {
        // A hard-ish pigeonhole (5 pigeons, 4 holes) under a 1-conflict
        // budget must give up; re-solving without a budget finishes it.
        let v = |p: i64, h: i64| (p - 1) * 4 + h;
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        for p in 1..=5 {
            clauses.push((1..=4).map(|h| v(p, h)).collect());
        }
        for h in 1..=4 {
            for p1 in 1..=5 {
                for p2 in (p1 + 1)..=5 {
                    clauses.push(vec![-v(p1, h), -v(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i64]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_for(20, &refs);
        assert_eq!(s.solve_limited(1, &mut || false), SolveResult::Unknown);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn interrupt_callback_stops_the_search() {
        // 11 pigeons into 10 holes: far beyond 1024 conflicts, so the
        // poll is guaranteed to fire before the refutation completes.
        let v = |p: i64, h: i64| (p - 1) * 10 + h;
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        for p in 1..=11 {
            clauses.push((1..=10).map(|h| v(p, h)).collect());
        }
        for h in 1..=10 {
            for p1 in 1..=11 {
                for p2 in (p1 + 1)..=11 {
                    clauses.push(vec![-v(p1, h), -v(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i64]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_for(110, &refs);
        let mut polls = 0u32;
        let res = s.solve_limited(u64::MAX, &mut || {
            polls += 1;
            true
        });
        assert_eq!(res, SolveResult::Unknown);
        assert!(polls >= 1);
    }

    #[test]
    fn learnt_db_reduction_preserves_the_verdict() {
        let v = |p: i64, h: i64| (p - 1) * 5 + h;
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        for p in 1..=6 {
            clauses.push((1..=5).map(|h| v(p, h)).collect());
        }
        for h in 1..=5 {
            for p1 in 1..=6 {
                for p2 in (p1 + 1)..=6 {
                    clauses.push(vec![-v(p1, h), -v(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i64]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_for(30, &refs);
        s.reduce_limit = 8; // force reduction passes during this search
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn num_clauses_counts_problem_clauses_only() {
        // 4 pigeons, 3 holes: 4 + 3·6 problem clauses, refuted by search,
        // so learnt clauses join the arena without joining the count.
        let v = |p: i64, h: i64| (p - 1) * 3 + h;
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        for p in 1..=4 {
            clauses.push((1..=3).map(|h| v(p, h)).collect());
        }
        for h in 1..=3 {
            for p1 in 1..=4 {
                for p2 in (p1 + 1)..=4 {
                    clauses.push(vec![-v(p1, h), -v(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i64]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_for(12, &refs);
        assert_eq!(s.num_clauses(), 22);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(!s.learnt_refs.is_empty(), "the refutation learnt clauses");
        assert_eq!(s.num_clauses(), 22);
    }

    /// `VarOrder` with a swap per sift level: the array operations the
    /// hole-moving sifts must reproduce exactly.
    #[derive(Default)]
    struct SwapOrder {
        heap: Vec<(f64, u32)>,
        pos: Vec<u32>,
    }

    impl SwapOrder {
        fn swap(&mut self, i: usize, j: usize) {
            self.heap.swap(i, j);
            self.pos[self.heap[i].1 as usize] = i as u32;
            self.pos[self.heap[j].1 as usize] = j as u32;
        }

        fn up(&mut self, mut i: usize) {
            while i > 0 && VarOrder::before(self.heap[i], self.heap[(i - 1) / 2]) {
                self.swap(i, (i - 1) / 2);
                i = (i - 1) / 2;
            }
        }

        fn down(&mut self, mut i: usize) {
            loop {
                let mut best = i;
                for c in [2 * i + 1, 2 * i + 2] {
                    if c < self.heap.len() && VarOrder::before(self.heap[c], self.heap[best]) {
                        best = c;
                    }
                }
                if best == i {
                    return;
                }
                self.swap(i, best);
                i = best;
            }
        }
    }

    #[test]
    fn heap_sifts_match_a_swap_per_level() {
        let n = 64;
        let (mut heap, mut model) = (VarOrder::default(), SwapOrder::default());
        let mut activity = vec![0.0f64; n];
        for v in 0..n as u32 {
            heap.push_var();
            model.pos.push(v);
            model.heap.push((0.0, v));
            model.up(v as usize);
        }
        let mut state = 0x5EED_u64;
        for step in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (state >> 33) as usize % n;
            match (state >> 60) % 4 {
                0 => {
                    // Few distinct activities, so ties are common.
                    activity[v] += f64::from((state >> 40) as u32 % 3);
                    heap.bump(v as u32, activity[v]);
                    if model.pos[v] != u32::MAX {
                        let i = model.pos[v] as usize;
                        model.heap[i].0 = activity[v];
                        model.up(i);
                    }
                }
                1 => {
                    let top = heap.pop();
                    assert_eq!(top, model.heap.first().map(|e| e.1));
                    if let Some(top) = top {
                        let last = model.heap.pop().unwrap();
                        model.pos[top as usize] = u32::MAX;
                        if !model.heap.is_empty() {
                            model.heap[0] = last;
                            model.pos[last.1 as usize] = 0;
                            model.down(0);
                        }
                    }
                }
                2 => {
                    heap.insert(v as u32, activity[v]);
                    if model.pos[v] == u32::MAX {
                        model.pos[v] = model.heap.len() as u32;
                        model.heap.push((activity[v], v as u32));
                        model.up(model.heap.len() - 1);
                    }
                }
                _ => {
                    // A rescale that collapses activities into ties: both
                    // refresh in place and neither re-sifts.
                    if step % 64 == 0 {
                        for a in &mut activity {
                            *a = (*a / 4.0).floor();
                        }
                        heap.refresh(&activity);
                        for e in &mut model.heap {
                            e.0 = activity[e.1 as usize];
                        }
                    }
                }
            }
            assert_eq!(heap.heap, model.heap, "array after step {step}");
            assert_eq!(heap.pos, model.pos, "positions after step {step}");
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(prefix, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn stats_count_work() {
        let mut s = solver_for(3, &[&[1, 2, 3], &[-1, -2], &[-1, -3], &[-2, -3]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let st = s.stats();
        assert!(st.decisions >= 1);
        assert!(st.propagations >= 1);
    }
}
