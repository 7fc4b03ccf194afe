//! Property suite for the CDCL core.
//!
//! Three contracts: random 3-SAT and mixed 2-/3-SAT verdicts agree with the
//! naive DPLL reference, the solver is deterministic — two runs over the
//! same instance produce identical models *and* identical work counters
//! (decisions/conflicts/propagations/restarts/learnt clauses), which is
//! what lets the exact mapper pin verdicts in the fuzz corpus — and three
//! fixed instances replay a search whose counters and model are pinned as
//! literals, so a storage change that reorders the search shows up as
//! changed counters or a changed model.

use proptest::prelude::*;
use rewire_sat::{dpll_satisfiable, Lit, SolveResult, Solver, SolverStats, Var};

/// SplitMix64 — the workspace's stock deterministic stream.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A seeded random CNF: `num_clauses` clauses over `num_vars` variables,
/// each binary with probability `binary_pct`% and ternary otherwise
/// (literals may repeat within a clause, as the solver normalises them).
fn random_cnf(seed: u64, num_vars: usize, num_clauses: usize, binary_pct: u64) -> Vec<Vec<Lit>> {
    let mut state = mix(seed ^ 0xC1A0);
    let mut next = || {
        state = mix(state);
        state
    };
    (0..num_clauses)
        .map(|_| {
            let len = if binary_pct > 0 && next() % 100 < binary_pct {
                2
            } else {
                3
            };
            (0..len)
                .map(|_| {
                    let v = Var::from_index((next() % num_vars as u64) as usize);
                    Lit::new(v, next() & 1 == 0)
                })
                .collect()
        })
        .collect()
}

/// A seeded random 3-SAT instance near the sat/unsat phase boundary.
fn random_3sat(seed: u64) -> (usize, Vec<Vec<Lit>>) {
    let num_vars = 4 + (mix(seed) % 12) as usize; // 4..=15
    let num_clauses = (num_vars as f64 * 4.2) as usize;
    (num_vars, random_cnf(seed, num_vars, num_clauses, 0))
}

/// A seeded random instance with 40% binary clauses, so original binary
/// clauses act as reasons and conflicts, not just learnt ones. At three
/// clauses per variable roughly half the instances are satisfiable.
fn random_mixed(seed: u64) -> (usize, Vec<Vec<Lit>>) {
    let num_vars = 4 + (mix(seed) % 12) as usize; // 4..=15
    (num_vars, random_cnf(seed, num_vars, num_vars * 3, 40))
}

fn model_of(s: &Solver, num_vars: usize) -> Vec<Option<bool>> {
    (0..num_vars).map(|i| s.value(Var::from_index(i))).collect()
}

/// FNV-1a over the assignment (false 0, true 1, unassigned 2).
fn model_digest(s: &Solver, num_vars: usize) -> u64 {
    model_of(s, num_vars)
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, v| {
            let b = match v {
                Some(false) => 0,
                Some(true) => 1,
                None => 2,
            };
            (h ^ b).wrapping_mul(0x0100_0000_01b3)
        })
}

/// CDCL and the DPLL reference agree on the instance, and a CDCL model
/// satisfies every clause.
fn check_against_dpll(num_vars: usize, clauses: &[Vec<Lit>]) -> Result<(), TestCaseError> {
    let reference = dpll_satisfiable(num_vars, clauses);
    let mut s = Solver::from_clauses(num_vars, clauses);
    let verdict = s.solve();
    prop_assert_eq!(
        verdict,
        if reference {
            SolveResult::Sat
        } else {
            SolveResult::Unsat
        },
        "{} vars, {} clauses",
        num_vars,
        clauses.len()
    );
    if verdict == SolveResult::Sat {
        for c in clauses {
            prop_assert!(
                c.iter().any(|l| s.value(l.var()) == Some(l.is_positive())),
                "model violates a clause"
            );
        }
    }
    Ok(())
}

/// A conflict-budgeted run either matches the unbudgeted verdict or
/// reports `Unknown`.
fn check_budget(num_vars: usize, clauses: &[Vec<Lit>], budget: u64) -> Result<(), TestCaseError> {
    let full = Solver::from_clauses(num_vars, clauses).solve();
    let mut s = Solver::from_clauses(num_vars, clauses);
    let bounded = s.solve_limited(budget, &mut || false);
    prop_assert!(
        bounded == SolveResult::Unknown || bounded == full,
        "budget {} flipped {:?} to {:?}",
        budget,
        full,
        bounded
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// CDCL and the naive DPLL reference agree on every random 3-SAT and
    /// mixed 2-/3-SAT instance, and every CDCL model actually satisfies
    /// the clauses.
    #[test]
    fn cdcl_matches_dpll_reference(seed in 0u64..100_000) {
        let (num_vars, clauses) = random_3sat(seed);
        check_against_dpll(num_vars, &clauses)?;
        let (num_vars, clauses) = random_mixed(seed);
        check_against_dpll(num_vars, &clauses)?;
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
        check_budget(num_vars, &clauses, budget)?;
        let (num_vars, clauses) = random_mixed(seed);
        check_budget(num_vars, &clauses, budget)?;
    }
}

/// The regression canary for "the search changed shape": three fixed
/// instances must replay the exact search recorded for them — verdict,
/// all five work counters and the model. The second makes one learnt-
/// database reduction (4,000 learnt clauses) and one variable-activity
/// rescale (an activity past 1e100); the third mixes 2- and 3-literal
/// clauses, so binary clauses serve as reasons and conflicts.
#[test]
fn fixed_instances_replay_the_pinned_search() {
    let stats = |decisions, conflicts, propagations, restarts, learnt_clauses| SolverStats {
        decisions,
        conflicts,
        propagations,
        restarts,
        learnt_clauses,
    };
    let (num_vars, clauses) = random_3sat(0xDEADBEEF);
    let cases = [
        (
            "0xDEADBEEF 3-SAT",
            num_vars,
            clauses,
            SolveResult::Unsat,
            stats(4, 4, 19, 0, 3),
            0xa760_90f6_6f89_a317,
        ),
        (
            "160-var 3-SAT",
            160,
            random_cnf(19, 160, 681, 0),
            SolveResult::Sat,
            stats(5843, 4618, 154_799, 30, 4618),
            0xe977_3c2e_409e_0c02,
        ),
        (
            "150-var mixed 2-/3-SAT",
            150,
            random_cnf(4, 150, 585, 10),
            SolveResult::Sat,
            stats(178, 123, 4052, 1, 123),
            0xbe26_4ed0_cd92_f12d,
        ),
    ];
    for (name, num_vars, clauses, verdict, work, digest) in cases {
        let mut s = Solver::from_clauses(num_vars, &clauses);
        assert_eq!(s.solve(), verdict, "{name}: verdict");
        assert_eq!(s.stats(), work, "{name}: work counters");
        assert_eq!(model_digest(&s, num_vars), digest, "{name}: model");
    }
}
