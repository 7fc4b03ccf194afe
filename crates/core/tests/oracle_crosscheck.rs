//! Cross-checks against the exact SAT backend on tiny DFGs: Rewire must
//! reach the II the backend proves optimal. Every II below it is a
//! solver-proven UNSAT, so matching it is a real optimality check, not
//! agreement with another heuristic's upper bound.

use rewire_arch::{presets, Cgra, OpKind};
use rewire_core::RewireMapper;
use rewire_dfg::Dfg;
use rewire_mappers::{ExactSatMapper, MapLimits, Mapper};
use std::time::Duration;

fn limits() -> MapLimits {
    MapLimits::fast().with_ii_time_budget(Duration::from_secs(3))
}

/// The II the exact backend proves minimal. Its wall-clock budget is
/// generous so the deterministic conflict budget, not the clock, bounds it.
fn proven_optimal_ii(dfg: &Dfg, cgra: &Cgra) -> Option<u32> {
    let limits = MapLimits::fast().with_ii_time_budget(Duration::from_secs(120));
    let exact = ExactSatMapper::new().map(dfg, cgra, &limits);
    assert!(exact.stats.proven_optimal(), "{}", exact.stats);
    exact.stats.achieved_ii
}

#[test]
fn rewire_matches_the_oracle_on_chains() {
    let cgra = presets::paper_4x4_r4();
    for n in [3usize, 5, 8] {
        let mut dfg = Dfg::new(format!("chain{n}"));
        let mut prev = dfg.add_node("ld", OpKind::Load);
        for i in 1..n {
            let v = dfg.add_node(format!("a{i}"), OpKind::Add);
            dfg.add_edge(prev, v, 0).unwrap();
            prev = v;
        }
        let optimum = proven_optimal_ii(&dfg, &cgra);
        let rewire = RewireMapper::new().map(&dfg, &cgra, &limits());
        assert_eq!(rewire.stats.achieved_ii, optimum, "chain of {n}");
    }
}

#[test]
fn rewire_matches_the_oracle_on_a_recurrence() {
    let cgra = presets::paper_4x4_r4();
    let mut dfg = Dfg::new("acc");
    let phi = dfg.add_node("phi", OpKind::Phi);
    let c = dfg.add_node("c", OpKind::Const);
    let add = dfg.add_node("add", OpKind::Add);
    let st = dfg.add_node("st", OpKind::Store);
    dfg.add_edge(phi, add, 0).unwrap();
    dfg.add_edge(c, add, 0).unwrap();
    dfg.add_edge(add, phi, 1).unwrap();
    dfg.add_edge(add, st, 0).unwrap();
    assert_eq!(proven_optimal_ii(&dfg, &cgra), Some(2));
    let rewire = RewireMapper::new().map(&dfg, &cgra, &limits());
    assert_eq!(rewire.stats.achieved_ii, Some(2));
}

#[test]
fn rewire_matches_the_oracle_on_a_diamond_with_memory() {
    let cgra = presets::paper_4x4_r2();
    let mut dfg = Dfg::new("d");
    let ld = dfg.add_node("ld", OpKind::Load);
    let a = dfg.add_node("a", OpKind::Add);
    let b = dfg.add_node("b", OpKind::Mul);
    let st = dfg.add_node("st", OpKind::Store);
    dfg.add_edge(ld, a, 0).unwrap();
    dfg.add_edge(ld, b, 0).unwrap();
    dfg.add_edge(a, st, 0).unwrap();
    dfg.add_edge(b, st, 0).unwrap();
    let optimum = proven_optimal_ii(&dfg, &cgra);
    let rewire = RewireMapper::new().map(&dfg, &cgra, &limits());
    assert_eq!(rewire.stats.achieved_ii, optimum);
}
