//! Encoder soundness for the exact SAT backend.
//!
//! Two directions, mirroring the two things a CNF encoding can get
//! wrong:
//!
//! * **SAT side** — every model the backend decodes on the bundled
//!   kernel sweep must survive `Mapping::validate` (structural) *and*
//!   `verify_semantics` (golden-model execution). A satisfying
//!   assignment that decodes into a mapping computing the wrong values
//!   would mean the clauses under-constrain the hardware.
//! * **UNSAT side** — every `InfeasibleAtII` verdict is cross-checked
//!   differentially: no heuristic mapper may ever produce a mapping at an
//!   II the backend proved infeasible, and on small graphs the proven
//!   optimum must be exactly the best II the heuristics reach. A false
//!   UNSAT would mean the clauses over-constrain the hardware.
//!
//! The sweep runs with a deliberately small conflict budget so hard
//! instances degrade to `Unknown` (which claims nothing) instead of
//! stalling a debug CI run; the bench-side MII-tightness study is where
//! the full-budget sweep lives.

use rewire::prelude::*;
use std::time::Duration;

/// Conflict budget for the kernel sweep: small enough that pigeonhole
/// instances bail to `Unknown` quickly in debug builds, large enough
/// that most of the suite still resolves (the release-mode study uses
/// the full default budget).
const SWEEP_CONFLICTS: u64 = 20_000;

fn sweep_limits() -> MapLimits {
    // Wall clock must not bind before the conflict budget, or verdicts
    // would depend on machine speed.
    MapLimits::fast()
        .with_ii_time_budget(Duration::from_secs(120))
        .with_max_ii(8)
}

/// Debug builds sweep a deterministic slice of the suite (every fifth
/// kernel) so tier-1 `cargo test` stays fast; the release run in CI's
/// exact-backend step covers all 30 kernels and enforces the
/// paper-level resolution floor.
fn sweep_kernels() -> Vec<(&'static str, Dfg)> {
    let all = kernels::all();
    if cfg!(debug_assertions) {
        all.into_iter().step_by(5).collect()
    } else {
        all
    }
}

/// Minimum number of kernels the backend must map outright at sweep
/// budgets — soundness without usefulness would be vacuous.
fn resolution_floor() -> usize {
    if cfg!(debug_assertions) {
        3
    } else {
        20
    }
}

/// Heuristic mappers used for the differential infeasibility check.
fn heuristics() -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(RewireMapper::new()),
        Box::new(PathFinderMapper::new()),
        Box::new(SaMapper::new()),
    ]
}

/// SAT direction: every mapping decoded from a model on the kernel
/// sweep validates and executes identically to the reference
/// interpreter. UNSAT direction: every infeasibility proof collected on
/// the way is re-attacked by all three heuristics pinned to that II.
#[test]
fn kernel_sweep_models_decode_sound_and_unsat_is_differential() {
    let cgra = presets::paper_4x4_r4();
    let limits = sweep_limits();
    let mut resolved = 0usize;
    let mut proofs: Vec<(Dfg, u32)> = Vec::new();
    for (name, dfg) in sweep_kernels() {
        let mapper = ExactSatMapper::new().with_conflict_budget(SWEEP_CONFLICTS);
        let out = mapper.map(&dfg, &cgra, &limits);
        if let Some(m) = &out.mapping {
            assert!(
                m.validate(&dfg, &cgra).is_ok(),
                "{name}: decoded model fails structural validation"
            );
            verify_semantics(&dfg, &cgra, m, &Inputs::new(0xE5AC7), 6).unwrap_or_else(|e| {
                panic!("{name}: decoded model diverges from the reference interpreter: {e}")
            });
            assert_eq!(Some(m.ii()), out.stats.achieved_ii, "{name}");
            resolved += 1;
        }
        for ii in out.stats.proven_infeasible_iis() {
            proofs.push((dfg.clone(), ii));
        }
    }
    // The backend must stay useful at sweep budgets, not merely sound.
    assert!(
        resolved >= resolution_floor(),
        "exact backend mapped only {resolved} kernels on the 4x4 sweep"
    );
    for (dfg, ii) in proofs {
        let capped = MapLimits::fast().with_max_ii(ii);
        for h in heuristics() {
            let out = h.map(&dfg, &cgra, &capped);
            assert!(
                out.mapping.is_none(),
                "{}: {} maps {} at II {ii}, which the SAT backend proved infeasible",
                dfg.name(),
                h.name(),
                dfg.name()
            );
        }
    }
}

/// A family of small graph/fabric pairs the SAT backend solves outright:
/// its proven-optimal II must equal the best II any heuristic reaches (a
/// heuristic below it would refute the proof, and on these instances the
/// heuristics do reach it), and every II it proves infeasible must stay
/// unmapped when the heuristics are pinned to it.
#[test]
fn small_graphs_proven_optimum_matches_the_best_heuristic() {
    let mut cases: Vec<(&'static str, Dfg, Cgra)> = Vec::new();

    // Chains of growing length on a 1x2 sliver: FU pressure forces the
    // II up as the chain no longer fits the two modulo slots.
    for n in [2usize, 3, 4, 5] {
        let mut dfg = Dfg::new(format!("chain{n}"));
        let mut prev = dfg.add_node("n0", OpKind::Add);
        for i in 1..n {
            let next = dfg.add_node(format!("n{i}"), OpKind::Add);
            dfg.add_edge(prev, next, 0).unwrap();
            prev = next;
        }
        cases.push(("sliver", dfg, CgraBuilder::new(1, 2).build().unwrap()));
    }

    // The island star: a severed 2x2 makes II 1 a pigeonhole conflict.
    let mut star = Dfg::new("star3");
    let hub = star.add_node("hub", OpKind::Add);
    for i in 0..2 {
        let leaf = star.add_node(format!("l{i}"), OpKind::Add);
        star.add_edge(hub, leaf, 0).unwrap();
    }
    cases.push((
        "island",
        star,
        CgraBuilder::new(2, 2).cut_row(1).build().unwrap(),
    ));

    // The accumulator recurrence: RecMII 2, optimal at its MII.
    let mut acc = Dfg::new("acc");
    let phi = acc.add_node("phi", OpKind::Phi);
    let c = acc.add_node("c", OpKind::Const);
    let add = acc.add_node("add", OpKind::Add);
    acc.add_edge(phi, add, 0).unwrap();
    acc.add_edge(c, add, 0).unwrap();
    acc.add_edge(add, phi, 1).unwrap();
    cases.push(("acc", acc, CgraBuilder::new(2, 2).build().unwrap()));

    // The conflict budget, not the wall clock, bounds the SAT run.
    let exact_limits = MapLimits::fast()
        .with_ii_time_budget(Duration::from_secs(60))
        .with_max_ii(8);
    let limits = MapLimits::fast().with_max_ii(8);
    for (fabric, dfg, cgra) in cases {
        let exact = ExactSatMapper::new().map(&dfg, &cgra, &exact_limits);
        assert!(
            exact.stats.proven_optimal(),
            "{fabric}/{}: {}",
            dfg.name(),
            exact.stats
        );
        let best = heuristics()
            .iter()
            .filter_map(|h| h.map(&dfg, &cgra, &limits).stats.achieved_ii)
            .min();
        assert_eq!(
            exact.stats.achieved_ii,
            best,
            "{fabric}/{}: the proven optimum is not the best heuristic II",
            dfg.name()
        );
        let unsat = exact.stats.proven_infeasible_iis();
        if fabric == "island" {
            assert_eq!(unsat, vec![1], "the island star is a pigeonhole at II 1");
        }
        for ii in unsat {
            for h in heuristics() {
                let at_ii = h.map(&dfg, &cgra, &limits.with_max_ii(ii));
                assert!(
                    at_ii.mapping.is_none(),
                    "{fabric}/{}: {} maps at II {ii} despite a SAT infeasibility proof",
                    dfg.name(),
                    h.name()
                );
            }
        }
    }
}

/// Budget truncation must degrade monotonically: a tiny conflict budget
/// may lose verdicts (`Unknown`) and may lose mappings, but any mapping
/// it does return still validates, still executes correctly, and never
/// undercuts the II the full-budget run proved minimal.
#[test]
fn truncated_budgets_never_flip_verdicts() {
    let cgra = presets::paper_4x4_r2();
    let dfg = kernels::fir();
    let limits = sweep_limits();
    let full = ExactSatMapper::new().map(&dfg, &cgra, &limits);
    let full_ii = full
        .stats
        .achieved_ii
        .expect("fir maps on 4x4 with the default budget");
    assert!(
        full.stats.proven_optimal(),
        "full budget proves fir optimal"
    );
    for budget in [1u64, 64, 1024] {
        let out = ExactSatMapper::new()
            .with_conflict_budget(budget)
            .map(&dfg, &cgra, &limits);
        if let Some(m) = &out.mapping {
            assert!(m.validate(&dfg, &cgra).is_ok(), "budget {budget}");
            verify_semantics(&dfg, &cgra, m, &Inputs::new(9), 5)
                .unwrap_or_else(|e| panic!("budget {budget}: {e}"));
            assert!(
                m.ii() >= full_ii,
                "budget {budget}: truncated run undercuts the proven minimum"
            );
        }
        for ii in out.stats.proven_infeasible_iis() {
            assert!(
                ii < full_ii,
                "budget {budget}: infeasibility claimed at II {ii} >= achievable {full_ii}"
            );
        }
    }
}
