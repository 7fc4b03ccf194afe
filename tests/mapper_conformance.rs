//! The shared `Mapper` conformance suite: every mapper in the workspace —
//! Rewire, PF*, SA, and the exact SAT backend — must satisfy the
//! documented contract of `Mapper::map`, now that all of them route
//! through the shared `IiSearch` engine.
//!
//! Audited invariants:
//!
//! * a returned mapping validates against the DFG/CGRA and its II equals
//!   `stats.achieved_ii`,
//! * budget exhaustion returns `None` with still-populated stats and the
//!   reason it gave up,
//! * identical seed ⇒ identical outcome (down to the exact placement),
//! * the run record is well-formed: it names the fabric and seed, and
//!   survives its one-line JSON form unchanged.

use rewire::prelude::*;
use std::time::Duration;

/// The heuristic mappers of the evaluation plus the exact SAT backend,
/// freshly built per call. The exact backend must honor the same engine
/// contract as the heuristics — same record, same give-up paths.
fn mappers() -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(RewireMapper::new()),
        Box::new(PathFinderMapper::new()),
        Box::new(SaMapper::new()),
        Box::new(ExactSatMapper::new()),
    ]
}

/// A small kernel every mapper handles quickly at its first feasible II.
fn small_kernel() -> Dfg {
    let mut dfg = Dfg::new("conf-chain");
    let mut prev = dfg.add_node("ld", OpKind::Load);
    for i in 0..5 {
        let n = dfg.add_node(format!("a{i}"), OpKind::Add);
        dfg.add_edge(prev, n, 0).unwrap();
        prev = n;
    }
    dfg
}

/// Full placement fingerprint for byte-identical comparisons.
fn placements(dfg: &Dfg, mapping: &Mapping) -> Vec<Option<(PeId, u32)>> {
    dfg.node_ids().map(|n| mapping.placement(n)).collect()
}

#[test]
fn returned_mappings_validate_and_match_achieved_ii() {
    let cgra = presets::paper_4x4_r4();
    let dfg = small_kernel();
    let limits = MapLimits::fast().with_ii_time_budget(Duration::from_secs(30));
    for mapper in mappers() {
        let out = mapper.map(&dfg, &cgra, &limits);
        let m = out
            .mapping
            .unwrap_or_else(|| panic!("{} maps the conformance chain", mapper.name()));
        assert!(m.is_valid(&dfg, &cgra), "{}", mapper.name());
        assert_eq!(
            Some(m.ii()),
            out.stats.achieved_ii,
            "{}: mapping II must equal stats.achieved_ii",
            mapper.name()
        );
        assert!(out.stats.achieved_ii.unwrap() >= out.stats.mii);
        assert!(out.stats.iis_explored >= 1);
        assert!(out.stats.elapsed > Duration::ZERO);
    }
}

#[test]
fn exhausted_total_budget_returns_none_with_populated_stats() {
    let cgra = presets::paper_4x4_r4();
    let dfg = small_kernel();
    // A zero total budget deterministically exhausts before the first II.
    let limits = MapLimits::fast().with_total_time_budget(Duration::ZERO);
    for mapper in mappers() {
        let out = mapper.map(&dfg, &cgra, &limits);
        assert!(out.mapping.is_none(), "{}", mapper.name());
        assert_eq!(out.stats.mapper, mapper.name());
        assert_eq!(out.stats.kernel, dfg.name());
        assert!(out.stats.mii >= 1, "{}: MII still computed", mapper.name());
        assert_eq!(out.stats.achieved_ii, None);
        assert_eq!(out.stats.iis_explored, 0);
        assert_eq!(
            out.stats.gave_up,
            Some(GiveUpReason::TotalBudget),
            "{}",
            mapper.name()
        );
    }
}

#[test]
fn exhausted_max_ii_returns_none_with_populated_stats() {
    // An accumulator loop (RecMII 2) cannot map at II 1, so capping the
    // search at max_ii = 1 exhausts the sweep without any timing effects.
    let cgra = presets::paper_4x4_r4();
    let mut dfg = Dfg::new("acc");
    let phi = dfg.add_node("phi", OpKind::Phi);
    let c = dfg.add_node("c", OpKind::Const);
    let add = dfg.add_node("add", OpKind::Add);
    dfg.add_edge(phi, add, 0).unwrap();
    dfg.add_edge(c, add, 0).unwrap();
    dfg.add_edge(add, phi, 1).unwrap();
    let mii = dfg.mii(&cgra).unwrap();
    assert!(mii >= 2, "accumulator RecMII");
    let limits = MapLimits::fast().with_max_ii(1);
    for mapper in mappers() {
        let out = mapper.map(&dfg, &cgra, &limits);
        assert!(out.mapping.is_none(), "{}", mapper.name());
        assert_eq!(out.stats.mii, mii, "{}", mapper.name());
        assert_eq!(out.stats.achieved_ii, None);
        assert_eq!(
            out.stats.iis_explored,
            0,
            "{}: mii > max_ii explores nothing",
            mapper.name()
        );
        assert_eq!(
            out.stats.gave_up,
            Some(GiveUpReason::MaxIiReached),
            "{}",
            mapper.name()
        );
    }
}

#[test]
fn identical_seed_gives_identical_outcome() {
    let cgra = presets::paper_4x4_r4();
    let dfg = small_kernel();
    // A generous per-II budget keeps the deterministic attempt caps (not
    // the wall-clock deadline) binding — the precondition for determinism.
    let limits = MapLimits::fast()
        .with_seed(0xD15EA5E)
        .with_ii_time_budget(Duration::from_secs(60));
    for mapper in mappers() {
        let a = mapper.map(&dfg, &cgra, &limits);
        let b = mapper.map(&dfg, &cgra, &limits);
        assert_eq!(
            a.stats.achieved_ii,
            b.stats.achieved_ii,
            "{}",
            mapper.name()
        );
        assert_eq!(
            a.stats.iis_explored,
            b.stats.iis_explored,
            "{}",
            mapper.name()
        );
        assert_eq!(
            a.stats.remap_iterations,
            b.stats.remap_iterations,
            "{}",
            mapper.name()
        );
        let (ma, mb) = (a.mapping.unwrap(), b.mapping.unwrap());
        assert_eq!(
            placements(&dfg, &ma),
            placements(&dfg, &mb),
            "{}: identical seeds must reproduce the exact placement",
            mapper.name()
        );
    }
}

#[test]
fn run_record_is_well_formed() {
    let cgra = presets::paper_4x4_r4();
    let dfg = small_kernel();
    let limits = MapLimits::fast()
        .with_seed(0x5EED)
        .with_ii_time_budget(Duration::from_secs(30));
    for mapper in mappers() {
        let out = mapper.map(&dfg, &cgra, &limits);
        let record = &out.stats;
        assert!(out.mapping.is_some(), "{}", mapper.name());
        assert_eq!(record.mapper, mapper.name());
        assert_eq!(record.kernel, dfg.name());
        assert_eq!(record.fabric, cgra.label(), "{}", mapper.name());
        assert_eq!(record.seed, limits.seed, "{}", mapper.name());
        assert_eq!(
            record.gave_up,
            None,
            "{}: mapped runs never give up",
            mapper.name()
        );
        assert_eq!(
            record.scope(),
            format!("{}/conf-chain@4x4/r4", mapper.name())
        );
        // The trace line is the record: elapsed is kept at µs resolution.
        let line = record.to_json();
        let at_us = MapStats {
            elapsed: Duration::from_micros(record.elapsed.as_micros() as u64),
            ..record.clone()
        };
        assert_eq!(
            MapStats::from_json(&line).as_ref(),
            Ok(&at_us),
            "{}: {line}",
            mapper.name()
        );
    }
    // The exact backend's refusal is a record too.
    let refused = ExactSatMapper::new()
        .with_max_nodes(1)
        .map(&dfg, &cgra, &limits)
        .stats;
    assert_eq!(refused.gave_up, Some(GiveUpReason::Refused));
    assert_eq!((refused.fabric.as_str(), refused.seed), ("4x4/r4", 0x5EED));
}
