//! Golden-snapshot regression gate: the achieved II and mapping cost of
//! the capped deterministic Rewire mapper, for every kernel in the suite
//! on all four paper presets, pinned as a checked-in text snapshot.
//!
//! Any router or mapper change that shifts a result — a different II, a
//! different number of occupied MRRG cells, a kernel flipping between
//! mapped and unmapped — fails this test loudly with a line-level diff
//! instead of drifting silently. Intentional changes are blessed with:
//!
//! ```text
//! REWIRE_BLESS=1 cargo test --test golden_results
//! ```
//!
//! and the regenerated `tests/golden/results.txt` is reviewed like code.
//!
//! The three 4x4 presets search up to MII + 3 with 30 cluster attempts,
//! where most kernels have a modulo schedule, so their rows pin real IIs
//! and cell counts. The 8x8 rows keep the cheaper MII + 1, 6-attempt caps:
//! there the search is an order of magnitude slower per attempt.

use rewire::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/results.txt")
}

/// One preset's capped deterministic configuration: stochastic loops
/// bound by iteration caps (one restart per II), the wall clock never
/// binding, so every row is machine-independent.
#[derive(Clone, Copy)]
struct Caps {
    cluster_attempts: u64,
    ii_above_mii: u32,
}

/// The 4x4 presets' caps: enough II headroom and cluster attempts for
/// most kernels to map.
const CAPS_4X4: Caps = Caps {
    cluster_attempts: 30,
    ii_above_mii: 3,
};

/// The 8x8 preset's caps, kept cheap.
const CAPS_8X8: Caps = Caps {
    cluster_attempts: 6,
    ii_above_mii: 1,
};

fn capped_rewire(caps: Caps) -> RewireMapper {
    RewireMapper::with_config(RewireConfig {
        max_cluster_attempts: caps.cluster_attempts,
        max_restarts_per_ii: 1,
        ..Default::default()
    })
}

fn limits_for(dfg: &Dfg, cgra: &Cgra, caps: Caps) -> Option<MapLimits> {
    let mii = dfg.mii(cgra)?;
    Some(
        MapLimits::fast()
            .with_seed(0xFACADE)
            .with_ii_time_budget(Duration::from_secs(600))
            .with_max_ii(mii + caps.ii_above_mii),
    )
}

/// Every kernel's row on one preset, in suite order.
fn preset_rows(preset_name: &str, cgra: &Cgra, caps: Caps, suite: &[(&str, Dfg)]) -> String {
    let mapper = capped_rewire(caps);
    let mut out = String::new();
    for (kernel, dfg) in suite {
        let Some(limits) = limits_for(dfg, cgra, caps) else {
            writeln!(out, "{preset_name} {kernel} infeasible").unwrap();
            continue;
        };
        let outcome = mapper.map(dfg, cgra, &limits);
        match (&outcome.mapping, outcome.stats.achieved_ii) {
            (Some(m), Some(ii)) => {
                writeln!(
                    out,
                    "{preset_name} {kernel} ii={ii} cost={}",
                    m.occupancy().used_cells()
                )
                .unwrap();
            }
            _ => writeln!(out, "{preset_name} {kernel} unmapped").unwrap(),
        }
    }
    out
}

fn render_current() -> String {
    let presets: [(&str, Cgra, Caps); 4] = [
        ("paper_4x4_r4", presets::paper_4x4_r4(), CAPS_4X4),
        ("paper_8x8_r4", presets::paper_8x8_r4(), CAPS_8X8),
        ("paper_4x4_r2", presets::paper_4x4_r2(), CAPS_4X4),
        ("paper_4x4_r1", presets::paper_4x4_r1(), CAPS_4X4),
    ];
    let suite = kernels::all();
    assert!(suite.len() >= 30, "the full benchmark suite");
    let mut out = String::new();
    out.push_str("# Golden mapping results: capped deterministic Rewire (seed 0xFACADE, 1 restart per II).\n");
    for (caps, presets) in [(CAPS_4X4, "4x4 presets"), (CAPS_8X8, "8x8 preset")] {
        writeln!(
            out,
            "# {presets}: max_ii = MII + {}, max_cluster_attempts = {}",
            caps.ii_above_mii, caps.cluster_attempts
        )
        .unwrap();
    }
    out.push_str("# <preset> <kernel> ii=<achieved> cost=<occupied MRRG cells> | unmapped\n");
    out.push_str("# Regenerate with: REWIRE_BLESS=1 cargo test --test golden_results\n");
    // Each preset maps on its own thread; every row is deterministic, so
    // joining in preset order gives the same file as a serial sweep.
    let rows: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = presets
            .iter()
            .map(|(name, cgra, caps)| s.spawn(|| preset_rows(name, cgra, *caps, &suite)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("preset worker panicked"))
            .collect()
    });
    for preset in rows {
        out.push_str(&preset);
    }
    out
}

#[test]
fn results_match_the_golden_snapshot() {
    let current = render_current();
    let path = snapshot_path();
    if std::env::var_os("REWIRE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &current).unwrap();
        eprintln!(
            "blessed {} ({} lines)",
            path.display(),
            current.lines().count()
        );
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run REWIRE_BLESS=1 cargo test --test golden_results",
            path.display()
        )
    });
    if golden == current {
        return;
    }
    // Line-level diff: show exactly which kernels moved.
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
        "mapping results drifted from {}:\n{drifted}\
         if intentional, re-bless with REWIRE_BLESS=1 cargo test --test golden_results",
        snapshot_path().display()
    );
}
