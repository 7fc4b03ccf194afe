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
//!    value ([`Solver::value`]), and the model is re-verified against every
//!    input clause before the solver returns.
//!
//! The implementation is the classic MiniSat recipe: two-literal watches
//! with blockers, first-UIP conflict analysis, VSIDS variable activity with
//! phase saving, Luby-sequence restarts, and activity-based learnt-clause
//! reduction.
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
