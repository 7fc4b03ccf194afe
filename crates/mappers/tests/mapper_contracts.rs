//! Contract tests the baseline mappers of this crate must satisfy. The
//! workspace-level `tests/mapper_conformance.rs` holds every mapper,
//! Rewire and the exact SAT backend included, to the same contract.

use rewire_arch::presets;
use rewire_dfg::kernels;
use rewire_mappers::{MapLimits, Mapper, PathFinderMapper, SaMapper};
use std::time::Duration;

fn mappers() -> Vec<Box<dyn Mapper>> {
    vec![Box::new(PathFinderMapper::new()), Box::new(SaMapper::new())]
}

/// Whatever a mapper returns, stats and mapping must agree.
#[test]
fn outcome_coherence() {
    let cgra = presets::paper_4x4_r4();
    let dfg = kernels::fir();
    let limits = MapLimits::fast().with_ii_time_budget(Duration::from_millis(800));
    for mapper in mappers() {
        let out = mapper.map(&dfg, &cgra, &limits);
        match &out.mapping {
            Some(m) => {
                assert_eq!(Some(m.ii()), out.stats.achieved_ii, "{}", mapper.name());
                assert!(m.is_valid(&dfg, &cgra), "{}", mapper.name());
                assert!(m.ii() >= out.stats.mii, "{}", mapper.name());
            }
            None => assert_eq!(out.stats.achieved_ii, None, "{}", mapper.name()),
        }
        assert_eq!(out.stats.kernel, dfg.name(), "{}", mapper.name());
        assert!(!out.stats.mapper.is_empty());
    }
}

/// Mappers must respect the II ceiling.
#[test]
fn max_ii_is_respected() {
    let cgra = presets::paper_4x4_r1(); // hard fabric
    let dfg = kernels::gemver();
    let mii = dfg.mii(&cgra).unwrap();
    let limits = MapLimits::fast()
        .with_ii_time_budget(Duration::from_millis(200))
        .with_max_ii(mii); // a single II attempt allowed
    for mapper in mappers() {
        let out = mapper.map(&dfg, &cgra, &limits);
        if let Some(ii) = out.stats.achieved_ii {
            assert_eq!(ii, mii, "{}", mapper.name());
        }
        assert!(out.stats.iis_explored <= 1, "{}", mapper.name());
    }
}

/// A zero-ish time budget fails gracefully, never panics.
#[test]
fn tiny_budget_fails_cleanly() {
    let cgra = presets::paper_4x4_r4();
    let dfg = kernels::gemver();
    let limits = MapLimits::fast().with_ii_time_budget(Duration::from_millis(1));
    for mapper in mappers() {
        let out = mapper.map(&dfg, &cgra, &limits);
        // Either an early success (unlikely) or a clean failure.
        if let Some(m) = out.mapping {
            assert!(m.is_valid(&dfg, &cgra), "{}", mapper.name());
        }
    }
}

/// The stats' elapsed time is populated.
#[test]
fn elapsed_is_measured() {
    let cgra = presets::paper_4x4_r4();
    let dfg = kernels::fir();
    let limits = MapLimits::fast().with_ii_time_budget(Duration::from_millis(300));
    for mapper in mappers() {
        let out = mapper.map(&dfg, &cgra, &limits);
        assert!(out.stats.elapsed > Duration::ZERO, "{}", mapper.name());
    }
}
