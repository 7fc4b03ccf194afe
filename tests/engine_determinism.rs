//! The refactor-safety net for the shared `IiSearch` engine: per-mapper
//! results on the full kernel suite must be byte-identical run to run
//! (same achieved IIs, same iteration counts, same placements), and
//! attaching any observability sink or collector must not move them.
//!
//! All configs bound every stochastic loop by *deterministic caps*
//! (iterations, restarts, cluster attempts) under a budget so generous the
//! wall-clock deadline never binds — the precondition for byte-identical
//! reruns.

use rewire::prelude::*;
use rewire_mappers::engine::{Fanout, JsonlTrace, MetricsSink};
use rewire_mappers::{PathFinderConfig, SaConfig};
use std::time::Duration;

/// Everything a mapping run produces, down to the exact placement.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    achieved_ii: Option<u32>,
    iis_explored: u32,
    remap_iterations: u64,
    placements: Option<Vec<Option<(PeId, u32)>>>,
}

fn fingerprint(dfg: &Dfg, out: &MapOutcome) -> Fingerprint {
    Fingerprint {
        achieved_ii: out.stats.achieved_ii,
        iis_explored: out.stats.iis_explored,
        remap_iterations: out.stats.remap_iterations,
        placements: out
            .mapping
            .as_ref()
            .map(|m| dfg.node_ids().map(|n| m.placement(n)).collect()),
    }
}

/// Per-kernel limits: deterministic caps bind, the deadline never does,
/// and the sweep stops one II past the theoretical minimum to keep the
/// debug-mode suite fast.
fn limits_for(dfg: &Dfg, cgra: &Cgra) -> Option<MapLimits> {
    let mii = dfg.mii(cgra)?;
    Some(
        MapLimits::fast()
            .with_seed(0xFACADE)
            .with_ii_time_budget(Duration::from_secs(600))
            .with_max_ii(mii + 1),
    )
}

/// Mappers with every stochastic loop capped deterministically.
fn capped_mappers() -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(RewireMapper::with_config(RewireConfig {
            max_cluster_attempts: 6,
            max_restarts_per_ii: 1,
            ..Default::default()
        })),
        Box::new(PathFinderMapper::with_config(PathFinderConfig {
            max_iterations_per_ii: 60,
            max_full_evals: 6,
            ..Default::default()
        })),
        Box::new(SaMapper::with_config(SaConfig {
            max_iterations_per_ii: 150,
            max_restarts_per_ii: 1,
            ..Default::default()
        })),
    ]
}

#[test]
fn suite_results_are_byte_identical_run_to_run() {
    let cgra = presets::paper_4x4_r4();
    let suite = kernels::all();
    assert!(suite.len() >= 30, "the full benchmark suite");
    for mapper in capped_mappers() {
        for (name, dfg) in &suite {
            let Some(limits) = limits_for(dfg, &cgra) else {
                continue;
            };
            let a = fingerprint(dfg, &mapper.map(dfg, &cgra, &limits));
            let b = fingerprint(dfg, &mapper.map(dfg, &cgra, &limits));
            assert_eq!(a, b, "{} on {name} diverged between reruns", mapper.name());
        }
    }
}

/// Observability must be observe-only: attaching the full sink stack
/// (JSONL trace + metrics counters) to a run must leave its result —
/// achieved II, iteration counts, every single placement — byte-identical
/// to the silent run. Counting and timing never feed back into search
/// decisions.
#[test]
fn metrics_and_trace_sinks_never_change_results() {
    let cgra = presets::paper_4x4_r4();
    let suite = kernels::all();
    let mut covered = 0usize;
    for mapper in capped_mappers() {
        covered = 0;
        for (name, dfg) in suite.iter().take(12) {
            let Some(limits) = limits_for(dfg, &cgra) else {
                continue;
            };
            covered += 1;
            let silent = fingerprint(dfg, &mapper.map(dfg, &cgra, &limits));
            let mut observed_sinks = Fanout::default();
            observed_sinks.0.push(Box::new(JsonlTrace::new(Vec::new())));
            observed_sinks.0.push(Box::new(MetricsSink::new()));
            let observed = fingerprint(
                dfg,
                &mapper.map_with_events(dfg, &cgra, &limits, &mut observed_sinks),
            );
            assert_eq!(
                silent,
                observed,
                "{} on {name}: trace/metrics sinks changed the result",
                mapper.name()
            );
        }
    }
    assert!(covered >= 10, "only {covered} kernels were comparable");
}

/// The full observability stack — JSONL trace and metrics sinks *plus* the
/// process-global flight recorder and Chrome span collector — must also be
/// observe-only. This is the strongest form of the guarantee: the flight
/// recorder samples congestion inside PF*'s negotiation loop and the
/// Chrome collector timestamps every span, yet no placement may move.
#[test]
fn flight_recorder_and_chrome_collectors_never_change_results() {
    let cgra = presets::paper_4x4_r4();
    let suite = kernels::all();
    let mut covered = 0usize;
    for mapper in capped_mappers() {
        covered = 0;
        for (name, dfg) in suite.iter().take(12) {
            let Some(limits) = limits_for(dfg, &cgra) else {
                continue;
            };
            covered += 1;
            let silent = fingerprint(dfg, &mapper.map(dfg, &cgra, &limits));

            rewire_obs::flight().enable(0);
            rewire_obs::chrome().enable(0);
            let before = rewire_obs::flight().events_emitted();
            let mut observed_sinks = Fanout::default();
            observed_sinks.0.push(Box::new(JsonlTrace::new(Vec::new())));
            observed_sinks.0.push(Box::new(MetricsSink::new()));
            let observed = fingerprint(
                dfg,
                &mapper.map_with_events(dfg, &cgra, &limits, &mut observed_sinks),
            );
            let recorded = rewire_obs::flight().events_emitted() - before;
            rewire_obs::flight().disable();
            rewire_obs::chrome().disable();

            assert_eq!(
                silent,
                observed,
                "{} on {name}: flight recorder / chrome collector changed the result",
                mapper.name()
            );
            // The comparison is only meaningful if the collectors actually
            // saw the run: every engine attempt stamps a phase heartbeat.
            assert!(
                recorded > 0,
                "{} on {name}: flight recorder captured nothing",
                mapper.name()
            );
        }
    }
    assert!(covered >= 10, "only {covered} kernels were comparable");
}
