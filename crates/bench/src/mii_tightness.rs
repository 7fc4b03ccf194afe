//! The MII-tightness study: how close is the theoretical MII bound to
//! the *true* minimal II, and how much do the heuristics leave on the
//! table?
//!
//! The exact SAT backend turns this from speculation into measurement:
//! on every kernel × fabric combination it either proves the minimal II
//! (an `Optimal` verdict means every lower II was refuted by UNSAT) or
//! reports exactly where its conflict budget ran out. Heuristic IIs are
//! then gaps against a proven floor, not against a bound of unknown
//! slack.
//!
//! Everything here is deterministic by construction so the study can be
//! pinned as a golden snapshot (`tests/mii_tightness.rs`): the exact
//! backend is bounded by a conflict budget (never the wall clock at the
//! generous deadlines used), and the heuristics run the same capped
//! configurations as the engine-determinism suite — iteration caps bind,
//! seeds are fixed, wall clocks are slack.
//!
//! The 8×8 fig5 fabric is excluded: its 64 PEs exceed the exact
//! backend's instance-size refusal bound, so it has no proven floor to
//! compare against.

use crate::runner::{MapperKind, Row};
use crate::workloads::Workload;
use rewire_arch::presets;
use rewire_core::RewireConfig;
use rewire_dfg::kernels;
use rewire_mappers::{MapLimits, PathFinderConfig, SaConfig};
use std::fmt::Write as _;
use std::time::Duration;

/// Conflict budget for the exact backend in the study: large enough to
/// resolve most of the suite, small enough that the release run stays
/// in CI scale. Deterministic — the verdict table is identical on every
/// machine.
pub const STUDY_CONFLICTS: u64 = 50_000;

/// IIs above `mii + EXTRA_II` are not searched; a mapper that needs
/// more reports `-`. The study is about tightness near the bound, not
/// about how far a heuristic can crawl.
pub const EXTRA_II: u32 = 2;

/// Snapshot labels of the capped heuristics, in the order they follow
/// the exact backend in [`study_mappers`].
const HEURISTICS: [&str; 3] = ["rewire", "pf", "sa"];

/// The study's mappers: the exact backend under [`STUDY_CONFLICTS`], then
/// the capped deterministic Rewire, PF\* and SA of the engine-determinism
/// suite.
pub fn study_mappers() -> Vec<MapperKind> {
    vec![
        MapperKind::Exact(STUDY_CONFLICTS),
        MapperKind::Rewire {
            name: "Rewire",
            config: RewireConfig {
                max_cluster_attempts: 6,
                max_restarts_per_ii: 1,
                ..Default::default()
            },
        },
        MapperKind::PathFinder(PathFinderConfig {
            max_iterations_per_ii: 60,
            max_full_evals: 6,
            ..Default::default()
        }),
        MapperKind::Annealing(SaConfig {
            max_iterations_per_ii: 150,
            max_restarts_per_ii: 1,
        }),
    ]
}

/// One kernel × fabric line of the study.
#[derive(Clone, Debug)]
pub struct TightnessRow {
    /// Fabric label (fig5 naming).
    pub fabric: &'static str,
    /// Kernel name.
    pub kernel: String,
    /// Theoretical minimum II (resource/recurrence bound).
    pub mii: u32,
    /// II achieved by the exact backend, if it found a model.
    pub exact_ii: Option<u32>,
    /// Whether every II below `exact_ii` was refuted by UNSAT.
    pub exact_optimal: bool,
    /// IIs the backend proved infeasible.
    pub refuted: Vec<u32>,
    /// `(label, achieved_ii)` per heuristic, in fixed order.
    pub heuristics: Vec<(&'static str, Option<u32>)>,
}

impl TightnessRow {
    /// `exact=` cell: `3*` proven minimal, `4?` mapped without a full
    /// proof (some lower II timed out as Unknown), `-` no model found.
    pub fn exact_cell(&self) -> String {
        match self.exact_ii {
            Some(ii) if self.exact_optimal => format!("{ii}*"),
            Some(ii) => format!("{ii}?"),
            None => "-".into(),
        }
    }
}

/// The study's workloads: the whole suite on each fig5 fabric the exact
/// backend can decide (everything but 8×8).
pub fn study_workloads() -> Vec<Workload> {
    [
        ("4x4 4reg", presets::paper_4x4_r4()),
        ("4x4 2reg", presets::paper_4x4_r2()),
        ("4x4 1reg", presets::paper_4x4_r1()),
    ]
    .into_iter()
    .map(|(label, cgra)| Workload {
        label,
        cgra,
        kernels: kernels::all().into_iter().map(|(_, dfg)| dfg).collect(),
        budget_scale: 1.0,
    })
    .collect()
}

/// The study's limits for a kernel of MII `mii`. The wall clock must
/// never bind — determinism comes from conflict and iteration caps.
pub(crate) fn study_limits(mii: u32) -> MapLimits {
    MapLimits::fast()
        .with_seed(0xFACADE)
        .with_ii_time_budget(Duration::from_secs(600))
        .with_max_ii(mii + EXTRA_II)
}

/// Reads the rows of [`study_mappers`] on [`study_workloads`] as the
/// study's lines.
pub fn tightness_rows(rows: &[Row]) -> Vec<TightnessRow> {
    rows.iter()
        .map(|row| {
            let (exact, heuristics) = row
                .results
                .split_first()
                .expect("the exact backend runs first");
            TightnessRow {
                fabric: row.config,
                kernel: row.kernel.clone(),
                mii: row.mii,
                exact_ii: exact.achieved_ii,
                exact_optimal: exact.proven_optimal(),
                refuted: exact.proven_infeasible_iis(),
                heuristics: HEURISTICS
                    .into_iter()
                    .zip(heuristics)
                    .map(|(label, stats)| (label, stats.achieved_ii))
                    .collect(),
            }
        })
        .collect()
}

/// Renders the golden-snapshot form: one stable line per row.
pub fn render_snapshot(rows: &[TightnessRow]) -> String {
    let mut out = String::new();
    out.push_str("# MII-tightness study: exact SAT floor vs MII vs capped heuristics.\n");
    out.push_str("# <fabric> <kernel> mii=N exact=II[*|?]|- [refuted=a,b] <h>=II|- ...\n");
    out.push_str("# '*' = proven minimal (every lower II refuted); '?' = model found\n");
    out.push_str("# but some lower II hit the conflict budget; '-' = none within\n");
    out.push_str("# mii+2. Regenerate: REWIRE_BLESS=1 cargo test --release --test mii_tightness\n");
    for r in rows {
        let fabric = r.fabric.replace(' ', "_");
        write!(
            out,
            "{fabric} {} mii={} exact={}",
            r.kernel,
            r.mii,
            r.exact_cell()
        )
        .unwrap();
        if !r.refuted.is_empty() {
            let list: Vec<String> = r.refuted.iter().map(u32::to_string).collect();
            write!(out, " refuted={}", list.join(",")).unwrap();
        }
        for (label, ii) in &r.heuristics {
            match ii {
                Some(ii) => write!(out, " {label}={ii}").unwrap(),
                None => write!(out, " {label}=-").unwrap(),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders the EXPERIMENTS.md markdown table, one section per fabric,
/// with the per-fabric tightness tallies the study is after.
pub fn render_markdown(rows: &[TightnessRow]) -> String {
    let mut fabrics: Vec<&str> = Vec::new();
    for r in rows {
        if !fabrics.contains(&r.fabric) {
            fabrics.push(r.fabric);
        }
    }
    let mut out = String::new();
    for fabric in fabrics {
        let section: Vec<&TightnessRow> = rows.iter().filter(|r| r.fabric == fabric).collect();
        writeln!(out, "### {fabric}\n").unwrap();
        writeln!(out, "| kernel | MII | exact | Rewire | PF\\* | SA |").unwrap();
        writeln!(out, "|---|---|---|---|---|---|").unwrap();
        for r in &section {
            let cells: Vec<String> = r
                .heuristics
                .iter()
                .map(|(_, ii)| ii.map_or("-".into(), |ii| ii.to_string()))
                .collect();
            writeln!(
                out,
                "| {} | {} | {} | {} |",
                r.kernel,
                r.mii,
                r.exact_cell(),
                cells.join(" | ")
            )
            .unwrap();
        }
        let proven = section.iter().filter(|r| r.exact_optimal).count();
        let at_mii = section
            .iter()
            .filter(|r| r.exact_optimal && r.exact_ii == Some(r.mii))
            .count();
        let above = section
            .iter()
            .filter(|r| r.exact_optimal && r.exact_ii > Some(r.mii))
            .count();
        writeln!(
            out,
            "\n{proven}/{} proven minimal; MII tight for {at_mii}, loose for {above}.\n",
            section.len()
        )
        .unwrap();
    }
    out
}
