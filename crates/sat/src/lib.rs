//! Deterministic CDCL SAT solver for the exact mapping backend.
//!
//! Self-contained (no crates-io dependencies, like the vendored `rand` /
//! `proptest` stand-ins) and deliberately small: the goal is not to compete
//! with industrial solvers but to give the workspace a *trustworthy*
//! SAT/UNSAT verdict it can replay bit-for-bit. The solver therefore makes
//! three hard guarantees:
//!
//! 1. **Determinism.** No wall-clock, no randomness, no pointer-order
//!    iteration. Two runs over the same clause set perform the identical
//!    sequence of decisions, propagations, conflicts, and restarts, and
//!    return the identical model or refutation. Ties in the activity order
//!    break toward the lower variable index.
//! 2. **Budgeted verdicts.** [`Solver::solve_limited`] caps work by
//!    *conflict count* — a deterministic measure — and reports
//!    [`SolveResult::Unknown`] when the cap is hit, so callers can
//!    distinguish "proved unsatisfiable" from "gave up".
//! 3. **Checkable models.** After [`SolveResult::Sat`] every variable has a
//!    value ([`Solver::value`]). Debug builds re-verify the model against
//!    every input clause before the solver returns (a `debug_assert!`);
//!    release builds skip that scan, so callers check models in their own
//!    terms — the exact mapper's decoded mapping must pass
//!    `Mapping::validate` or it is never reported.
//!
//! The implementation is the classic MiniSat recipe: two-literal watches
//! with blockers, first-UIP conflict analysis, VSIDS variable activity with
//! phase saving, Luby-sequence restarts, and activity-based learnt-clause
//! reduction.
//!
//! # Storage
//!
//! The storage is laid out for the cache without changing the search:
//!
//! - **One clause arena.** Every clause is a header word (length, learnt,
//!   deleted), then — for a learnt clause — one word indexing its `f64`
//!   activity in a side table, then its literals, in one flat buffer. A
//!   clause reference is the header's offset; offsets grow in creation
//!   order, so learnt-clause reduction breaks activity ties by age.
//! - **Binary watchers.** A two-literal clause's watchers are flagged, and
//!   their blocker is the clause's other literal, so propagation reads the
//!   arena only on a conflict. There it writes `[other, falsified]`, the
//!   literal order the general path leaves, and conflict analysis skips a
//!   reason clause's implied literal by its variable, not by position, so
//!   both paths hand analysis the same literals in the same order.
//! - **One watch buffer.** Every literal's watch list is a span of one
//!   shared buffer; a full list moves to the buffer's end with twice the
//!   room. Entries keep the order a `Vec` per literal would give them, and
//!   building or dropping a solver is not one allocation per literal.
//! - **Heap entries carry their activity.** The decision heap holds
//!   `(activity, variable)` pairs, so sifting reads one array, and a sift
//!   moves entries into a hole instead of swapping at every level, leaving
//!   the same array. An activity rescale refreshes the entries in place
//!   without re-sifting — the array an index heap reading a separate
//!   activity table would hold, which matters because a rescale can turn
//!   distinct activities into ties.
//!
//! # Example
//!
//! ```
//! use rewire_sat::{Lit, SolveResult, Solver};
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::positive(a), Lit::positive(b)]);
//! s.add_clause(&[Lit::negative(a)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.value(a), Some(false));
//! assert_eq!(s.value(b), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dpll;
mod lit;
mod solver;

pub use dpll::dpll_satisfiable;
pub use lit::{Lit, Var};
pub use solver::{SolveResult, Solver, SolverStats};
