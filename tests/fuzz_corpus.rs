//! Corpus regression replay plus the fuzz harness's own contracts.
//!
//! Every artifact under `fuzz/corpus/` is a self-contained scenario with
//! a pinned expectation: `expect pass` cases must clear the whole oracle
//! stack, `expect fail <check>` cases must keep reproducing the named
//! violation until the underlying bug is fixed. This test replays all of
//! them in CI so a regression anywhere in the mapper stack trips a
//! shrunk, named reproducer instead of a flaky fuzz run.
//!
//! The harness contracts mirror `tests/engine_determinism.rs`: the fuzz
//! loop must be deterministic per seed (same seed ⇒ byte-identical
//! scenario, outcomes, violations, shrink trace) and observe-only with
//! respect to the mappers (a mapper run inside the harness is
//! fingerprint-identical to the same run outside it).

use rewire::prelude::*;
use rewire_fuzz::{differential_mappers, evaluate, fuzz_one, replay, Artifact, FuzzConfig};
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus")
}

fn corpus_paths() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("fuzz/corpus exists")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dfg"))
        .collect();
    paths.sort();
    paths
}

/// A generous budget so the wall clock never binds in debug CI runs; the
/// deterministic caps inside `differential_mappers` (iterations, restarts
/// and the SAT conflict budget) do the bounding, so corpus artifacts pin
/// the exact oracle's verdicts too.
fn replay_cfg() -> FuzzConfig {
    FuzzConfig {
        budget_ms: 20_000,
        sim_iterations: 8,
        ..FuzzConfig::default()
    }
}

#[test]
fn corpus_replays_with_pinned_expectations() {
    let paths = corpus_paths();
    assert!(
        paths.len() >= 5,
        "the seeded corpus holds at least 5 artifacts, found {}",
        paths.len()
    );
    let cfg = replay_cfg();
    for path in paths {
        let text = fs::read_to_string(&path).expect("readable artifact");
        let artifact =
            Artifact::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        replay(&artifact, &cfg).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

#[test]
fn fuzz_loop_is_deterministic_per_seed() {
    let cfg = replay_cfg();
    for seed in [0, 7, 42] {
        let a = fuzz_one(seed, &cfg);
        let b = fuzz_one(seed, &cfg);
        assert_eq!(
            a.render(),
            b.render(),
            "seed {seed} diverged between reruns"
        );
    }
}

/// The harness is observe-only: running a mapper through `evaluate` must
/// leave its outcome fingerprint-identical to invoking the same mapper
/// directly with the same limits — the oracle stack, metrics, and shrink
/// machinery never feed back into the search.
#[test]
fn fuzz_harness_is_observe_only() {
    let cfg = replay_cfg();
    let scenario = rewire_fuzz::Scenario::generate(11);
    let (runs, _) = evaluate(
        &scenario.dfg,
        &scenario.cgra,
        scenario.mapper_seed(),
        scenario.input_seed(),
        &cfg,
    );

    let mii = scenario.dfg.mii(&scenario.cgra);
    let max_ii = mii.map_or(1, |m| m + cfg.extra_ii);
    let limits = MapLimits::fast()
        .with_seed(scenario.mapper_seed())
        .with_ii_time_budget(Duration::from_millis(cfg.budget_ms))
        .with_max_ii(max_ii);
    for (mapper, inside) in differential_mappers().iter().zip(&runs) {
        let outside = mapper.map(&scenario.dfg, &scenario.cgra, &limits);
        assert_eq!(mapper.name(), inside.name);
        assert_eq!(
            outside.stats.achieved_ii, inside.outcome.stats.achieved_ii,
            "{}: harness changed the achieved II",
            inside.name
        );
        assert_eq!(
            outside.stats.iis_explored, inside.outcome.stats.iis_explored,
            "{}: harness changed the sweep",
            inside.name
        );
        assert_eq!(
            outside.stats.remap_iterations, inside.outcome.stats.remap_iterations,
            "{}: harness changed the iteration count",
            inside.name
        );
        let placements = |m: &Mapping| -> Vec<Option<(PeId, u32)>> {
            scenario.dfg.node_ids().map(|n| m.placement(n)).collect()
        };
        assert_eq!(
            outside.mapping.as_ref().map(&placements),
            inside.outcome.mapping.as_ref().map(&placements),
            "{}: harness changed the placement",
            inside.name
        );
    }
}
