//! The refactor-safety net for the shared `IiSearch` engine: per-mapper
//! results on the full kernel suite must be byte-identical run to run
//! (same achieved IIs, same iteration counts, same placements), and
//! enabling the observability collectors must not move them.
//!
//! The fingerprints are also pinned across commits by
//! `tests/golden/engine_digest.txt`, one line per mapper and kernel.
//! Intentional changes are blessed with:
//!
//! ```text
//! REWIRE_BLESS=1 cargo test --test engine_determinism
//! ```
//!
//! All configs bound every stochastic loop by *deterministic caps*
//! (iterations, restarts, cluster attempts) under a budget so generous the
//! wall-clock deadline never binds — the precondition for byte-identical
//! reruns.

use rewire::prelude::*;
use rewire_mappers::{PathFinderConfig, SaConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/engine_digest.txt")
}

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

impl Fingerprint {
    /// The digest line: II, IIs explored, remap iterations and an FNV-1a
    /// hash of the placements.
    fn line(&self, mapper: &str, kernel: &str) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for slot in self.placements.iter().flatten() {
            match slot {
                Some((pe, cycle)) => {
                    mix(pe.index() as u64);
                    mix(u64::from(*cycle));
                }
                None => mix(u64::MAX),
            }
        }
        format!(
            "{mapper} {kernel} ii={:?} iis={} iterations={} placements={hash:016x}",
            self.achieved_ii, self.iis_explored, self.remap_iterations
        )
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
        })),
    ]
}

#[test]
fn suite_results_are_byte_identical_run_to_run() {
    let cgra = presets::paper_4x4_r4();
    let suite = kernels::all();
    assert!(suite.len() >= 30, "the full benchmark suite");
    let mut current = String::new();
    current.push_str("# Engine digest: capped Rewire, PF* and SA on paper_4x4_r4 (seed 0xFACADE, max_ii = MII + 1).\n");
    current.push_str("# <mapper> <kernel> ii=<achieved> iis=<explored> iterations=<remap> placements=<FNV-1a> | infeasible\n");
    current.push_str("# Regenerate with: REWIRE_BLESS=1 cargo test --test engine_determinism\n");
    for mapper in capped_mappers() {
        for (name, dfg) in &suite {
            let Some(limits) = limits_for(dfg, &cgra) else {
                writeln!(current, "{} {name} infeasible", mapper.name()).unwrap();
                continue;
            };
            let a = fingerprint(dfg, &mapper.map(dfg, &cgra, &limits));
            let b = fingerprint(dfg, &mapper.map(dfg, &cgra, &limits));
            assert_eq!(a, b, "{} on {name} diverged between reruns", mapper.name());
            writeln!(current, "{}", a.line(mapper.name(), name)).unwrap();
        }
    }
    check_digest(&current);
}

/// Compares the rendered digest with the checked-in golden file, or
/// rewrites the file when `REWIRE_BLESS` is set.
fn check_digest(current: &str) {
    let path = digest_path();
    if std::env::var_os("REWIRE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, current).unwrap();
        eprintln!(
            "blessed {} ({} lines)",
            path.display(),
            current.lines().count()
        );
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden digest {} ({e}); run REWIRE_BLESS=1 cargo test --test engine_determinism",
            path.display()
        )
    });
    if golden == current {
        return;
    }
    let mut drifted = String::new();
    for (g, c) in golden.lines().zip(current.lines()) {
        if g != c {
            writeln!(drifted, "  -{g}\n  +{c}").unwrap();
        }
    }
    let (gn, cn) = (golden.lines().count(), current.lines().count());
    if gn != cn {
        writeln!(drifted, "  (line count {gn} -> {cn})").unwrap();
    }
    panic!(
        "engine results drifted from {}:\n{drifted}\
         if intentional, re-bless with REWIRE_BLESS=1 cargo test --test engine_determinism",
        path.display()
    );
}

/// Observability must be observe-only: the metrics registry records every
/// run unconditionally, and enabling the process-global flight recorder
/// and Chrome span collector on top must leave each result — achieved II,
/// iteration counts, every single placement — byte-identical to the run
/// without them. The flight recorder samples congestion inside PF*'s
/// negotiation loop and the Chrome collector timestamps every span, yet no
/// placement may move.
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
            let observed = fingerprint(dfg, &mapper.map(dfg, &cgra, &limits));
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
