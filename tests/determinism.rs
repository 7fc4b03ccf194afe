//! Cross-thread determinism: for a fixed seed, the achieved IIs must not
//! depend on how many worker threads the experiment harness uses.
//!
//! The precondition (see DESIGN.md, "Threading model & determinism") is
//! that the *attempt caps* bind, not the wall-clock deadline — so the
//! test uses small kernels with a budget far larger than they need.

use rewire::prelude::*;
use rewire_bench::{run_workloads, Budget, MapperKind, Workload};

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
    let mappers = [
        MapperKind::rewire(),
        MapperKind::PathFinder(rewire::mappers::PathFinderConfig::default()),
    ];
    // 60 s per II dwarfs what these kernels need (< 1 s release, a few
    // seconds debug), so every mapper terminates on its deterministic
    // attempt caps, never the deadline.
    let budget = Budget::Seconds(60.0);
    let serial = run_workloads(&workloads(), &mappers, budget, 1, |_| {});
    let parallel = run_workloads(&workloads(), &mappers, budget, 8, |_| {});
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
