//! Cross-thread determinism: for a fixed seed, the achieved IIs must not
//! depend on how many worker threads the experiment harness uses, nor on
//! whether Rewire races a restart portfolio internally.
//!
//! The precondition (see DESIGN.md, "Threading model & determinism") is
//! that the *attempt caps* bind, not the wall-clock deadline — so these
//! tests use small kernels with a budget far larger than they need.

use rewire::prelude::*;
use rewire_bench::{run_workloads, MapperKind, Workload};

fn workloads() -> Vec<Workload> {
    // bicg and mvt both map at their first feasible II on this fabric, so
    // no mapper ever reaches the wall-clock deadline — the precondition
    // for jobs-independence (restarts at a *failing* II run until the
    // deadline and would reintroduce timing sensitivity).
    vec![Workload {
        label: "det-4x4r4",
        budget_scale: 1.0,
        cgra: presets::paper_4x4_r4(),
        kernels: vec![
            kernels::by_name("bicg").unwrap(),
            kernels::by_name("mvt").unwrap(),
        ],
    }]
}

fn achieved(rows: &[rewire_bench::Row]) -> Vec<(String, Vec<Option<u32>>)> {
    rows.iter()
        .map(|r| {
            (
                r.kernel.clone(),
                r.results.iter().map(|m| m.achieved_ii).collect(),
            )
        })
        .collect()
}

#[test]
fn final_ii_is_independent_of_jobs() {
    let mappers = [MapperKind::Rewire, MapperKind::PathFinder];
    // 60 s per II dwarfs what these kernels need (< 1 s release, a few
    // seconds debug), so every mapper terminates on its deterministic
    // attempt caps, never the deadline.
    let serial = run_workloads(&workloads(), &mappers, 60.0, 1, |_| {});
    let parallel = run_workloads(&workloads(), &mappers, 60.0, 8, |_| {});
    assert!(!serial.is_empty());
    assert_eq!(achieved(&serial), achieved(&parallel));
    for row in &serial {
        for result in &row.results {
            assert!(
                result.achieved_ii.is_some(),
                "{} should map under a generous budget",
                row.kernel
            );
        }
    }
}

#[test]
fn portfolio_width_changes_threads_not_the_seed_contract() {
    let cgra = presets::paper_4x4_r4();
    let dfg = kernels::by_name("mvt").unwrap();
    let limits = MapLimits::fast().with_ii_time_budget(std::time::Duration::from_secs(60));
    // A finite restart cap makes every worker's trajectory end on its
    // attempt caps; with the generous budget above the deadline is never
    // the binding constraint, so the reduction sees the same candidate set
    // on every run.
    let config = RewireConfig {
        portfolio_width: 4,
        max_restarts_per_ii: 4,
        ..Default::default()
    };
    let once = RewireMapper::with_config(config.clone()).map(&dfg, &cgra, &limits);
    let again = RewireMapper::with_config(config).map(&dfg, &cgra, &limits);
    assert_eq!(once.stats.achieved_ii, again.stats.achieved_ii);
    let mapping = once.mapping.expect("mvt maps on 4x4/r4");
    assert!(mapping.is_valid(&dfg, &cgra));
}
