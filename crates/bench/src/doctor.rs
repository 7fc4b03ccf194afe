//! The reader behind `rewire-doctor`: joins observe directories and
//! prints one diagnosis of the runs they hold.
//!
//! [`Evidence::load`] reads one or more observe directories
//! ([`rewire_mappers::observe`]) and joins them: run records concatenated,
//! metrics snapshots summed, flight logs concatenated. [`diagnose`]
//! prints, top to bottom:
//!
//! * `== II vs MII ==` — one row per run record, failures first, then by
//!   gap to the MII: II, MII, gap, IIs explored, iterations and time from
//!   the record, joined with the router and PF* counters of the record's
//!   scope (`mapper/kernel@fabric`), and the give-up reason. Records that
//!   share a scope share its counters, so `scope_runs` says how many
//!   records a row's counters total over;
//! * `== most-failed edges ==` — DFG edges that failed to route, grouped
//!   by reason, counted over every failure the recorder saw (the flight
//!   log's tallies, not its bounded ring);
//! * `== top contended resources ==` — the hottest cells of the
//!   congestion heatmap, then one ASCII fabric grid per run scope, shaped
//!   by the fabric label the scope ends in;
//! * `== span tree ==` — every scope's span timers merged into one tree;
//! * `== per-scope breakdown ==` — each scope's own span tree and its
//!   histogram tails (p50/p90/p99);
//! * `== flight summary ==` — ring drops, phase heartbeats, stalls.
//!
//! Also hosts the Chrome `trace_event` validator the CI uses to prove
//! exported traces are well-formed (balanced `B`/`E` pairs, per-thread
//! monotonic timestamps).

use rewire_mappers::observe::{self, FLIGHT};
use rewire_mappers::{GiveUpReason, MapStats};
use rewire_obs::json::{self, Json};
use rewire_obs::{ScopeSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One `(scope, pe, class, cycle)` row of the congestion heatmap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeatRow {
    /// Recording scope (`"<mapper>/<kernel>@<fabric>"`).
    pub scope: String,
    /// Dense PE index (links attribute to their source PE).
    pub pe: u32,
    /// Resource class (`"fu"`, `"link"`, `"reg"`).
    pub class: String,
    /// Modulo cycle.
    pub cycle: u32,
    /// Summed overuse across sampled rounds.
    pub overuse: u64,
    /// Largest single-round overuse.
    pub peak: u64,
    /// Rounds the cell was overused in.
    pub rounds: u64,
}

/// One DFG edge's route-failure tally key.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FailedEdge {
    /// Recording scope (`"<mapper>/<kernel>@<fabric>"`).
    pub scope: String,
    /// Source DFG node index.
    pub src: u32,
    /// Destination DFG node index.
    pub dst: u32,
    /// Router failure label.
    pub reason: String,
}

/// Flight-recorder logs, parsed strictly and concatenated.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightData {
    /// Records evicted because a ring was full.
    pub dropped: u64,
    /// How often each edge failed, from the logs' route-failure tallies
    /// (which, unlike the rings, drop nothing).
    pub failed_edges: BTreeMap<FailedEdge, u64>,
    /// `attempt_phase` label counts (`"stall_detected"`, ...) summed over
    /// scopes, from the logs' phase tallies.
    pub phases: BTreeMap<String, u64>,
    /// Events in the rings.
    pub events: usize,
    /// Heatmap rows, in log order.
    pub heatmap: Vec<HeatRow>,
}

impl FlightData {
    /// Appends one flight-recorder log (version 2). A flight file is input
    /// from outside the process, so every field the doctor reads is
    /// required and range-checked into its type; an error names the
    /// row it came from. Of the ring's events only their number is read:
    /// the tallies count every failure and phase, the ring only the last.
    pub fn add_log(&mut self, log: &Json) -> Result<(), String> {
        match log.int::<u64>("version") {
            Ok(2) => {}
            other => return Err(format!("unsupported flight log version: {other:?}")),
        }
        let array = |name: &str| {
            log.field(name)?
                .as_array()
                .ok_or_else(|| format!("field {name:?} is not an array"))
        };
        let events = array("events")?;
        let (heatmap, failures, phases) = (
            array("heatmap")?,
            array("route_failures")?,
            array("phases")?,
        );
        self.dropped = self.dropped.saturating_add(log.int("dropped")?);
        self.events += events.len();
        for (i, row) in failures.iter().enumerate() {
            let at = |err: String| format!("route failure row {i}: {err}");
            let edge = FailedEdge {
                scope: row.string("scope").map_err(at)?.to_string(),
                src: row.int("src").map_err(at)?,
                dst: row.int("dst").map_err(at)?,
                reason: row.string("reason").map_err(at)?.to_string(),
            };
            let n = self.failed_edges.entry(edge).or_insert(0);
            *n = n.saturating_add(row.int("count").map_err(at)?);
        }
        for (i, row) in phases.iter().enumerate() {
            let at = |err: String| format!("phase row {i}: {err}");
            let n = self
                .phases
                .entry(row.string("phase").map_err(at)?.to_string())
                .or_insert(0);
            *n = n.saturating_add(row.int("count").map_err(at)?);
        }
        for (i, cell) in heatmap.iter().enumerate() {
            let at = |err: String| format!("heatmap row {i}: {err}");
            self.heatmap.push(HeatRow {
                scope: cell.string("scope").map_err(at)?.to_string(),
                pe: cell.int("pe").map_err(at)?,
                class: cell.string("class").map_err(at)?.to_string(),
                cycle: cell.int("cycle").map_err(at)?,
                overuse: cell.int("overuse").map_err(at)?,
                peak: cell.int("peak").map_err(at)?,
                rounds: cell.int("rounds").map_err(at)?,
            });
        }
        Ok(())
    }
}

/// Everything the doctor reads, joined from one or more observe
/// directories.
#[derive(Clone, Debug, Default)]
pub struct Evidence {
    /// Run records, in directory then file order.
    pub runs: Vec<MapStats>,
    /// The directories' metrics snapshots, summed.
    pub metrics: Snapshot,
    /// The directories' flight logs, concatenated.
    pub flight: FlightData,
}

impl Evidence {
    /// Loads each directory with [`observe::load`] and joins them in the
    /// given order. An error names the file it came from.
    pub fn load(dirs: &[impl AsRef<Path>]) -> Result<Evidence, String> {
        let mut evidence = Evidence::default();
        for dir in dirs {
            let dir = dir.as_ref();
            let observed = observe::load(dir)?;
            evidence.runs.extend(observed.runs);
            evidence.metrics.merge(&observed.metrics);
            evidence
                .flight
                .add_log(&observed.flight)
                .map_err(|e| format!("{}: {e}", dir.join(FLIGHT).display()))?;
        }
        Ok(evidence)
    }
}

/// `(rows, cols, registers per PE)` of a fabric label (`RxC/rN`, as
/// `Cgra::label` writes it).
fn parse_fabric_label(label: &str) -> Option<(u16, u16, u8)> {
    let (grid, regs) = label.split_once("/r")?;
    let (rows, cols) = grid.split_once('x')?;
    Some((rows.parse().ok()?, cols.parse().ok()?, regs.parse().ok()?))
}

/// Largest grid the heatmap draws (a 128×128 fabric); a bigger shape,
/// which only a hand-edited flight log can name, is reported, not drawn.
const MAX_GRID_PES: u32 = 128 * 128;

/// `scope`'s fabric `(rows, cols)`, read from the fabric label it ends in
/// (`mapper/kernel@RxC/rN`); a scope without one falls back to a square
/// grid just covering the highest PE index in its heatmap rows.
fn fabric_dims(scope: &str, heat: &[&HeatRow]) -> (u32, u32) {
    let labelled = scope
        .rsplit_once('@')
        .and_then(|(_, label)| parse_fabric_label(label))
        .filter(|&(rows, cols, _)| rows > 0 && cols > 0);
    if let Some((rows, cols, _)) = labelled {
        return (u32::from(rows), u32::from(cols));
    }
    let max_pe = u64::from(heat.iter().map(|h| h.pe).max().unwrap_or(0));
    let side = (1u32..)
        .find(|&s| u64::from(s) * u64::from(s) > max_pe)
        .unwrap_or(1);
    (side, side)
}

/// Renders the per-PE congestion as an ASCII grid (PE ids are row-major),
/// `.` = no recorded overuse, `1`-`9` then `#` for hotter cells scaled to
/// the hottest PE.
fn render_fabric_heatmap(heat: &[&HeatRow], rows: u32, cols: u32) -> String {
    let mut per_pe: BTreeMap<u32, u64> = BTreeMap::new();
    for h in heat {
        let sum = per_pe.entry(h.pe).or_insert(0);
        *sum = sum.saturating_add(h.overuse);
    }
    let hottest = per_pe.values().copied().max().unwrap_or(0).max(1);
    let mut out = String::new();
    for r in 0..rows {
        out.push_str("    ");
        for c in 0..cols {
            let v = per_pe.get(&(r * cols + c)).copied().unwrap_or(0);
            let ch = if v == 0 {
                '.'
            } else {
                // 1..=9 scaled to the hottest PE, '#' for the top decile.
                let level = v.saturating_mul(10).div_ceil(hottest).min(10);
                if level >= 10 {
                    '#'
                } else {
                    char::from_digit(level as u32, 10).unwrap_or('9')
                }
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

/// Renders the span tree of `scopes` merged by path, indented by tree
/// depth below `indent` spaces, with call counts and total milliseconds.
fn render_span_tree<'a>(
    out: &mut String,
    scopes: impl IntoIterator<Item = &'a ScopeSnapshot>,
    indent: usize,
) {
    let mut merged: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for scope in scopes {
        for (path, span) in &scope.spans {
            let e = merged.entry(path.as_str()).or_insert((0, 0));
            e.0 = e.0.saturating_add(span.count);
            e.1 = e.1.saturating_add(span.total_ns);
        }
    }
    for (path, (count, total_ns)) in &merged {
        let depth = path.matches('/').count();
        let name = path.rsplit('/').next().unwrap_or(path);
        let _ = writeln!(
            out,
            "{:indent$}{:<24} {:>7}x {:>10.1} ms",
            "",
            name,
            count,
            *total_ns as f64 / 1e6,
            indent = indent + depth * 2
        );
    }
}

/// The per-run table: one row per record, failures first, then by gap.
///
/// `route_ms` is the scope's `router.route_ns` and `ns/exp` that time per
/// `router.expansions` — the router DP's cost per relaxed transition;
/// both read `-` for a scope that never routed.
fn render_runs(out: &mut String, runs: &[MapStats], snap: &Snapshot) {
    if runs.is_empty() {
        out.push_str("  no run records\n");
        return;
    }
    let mut scope_runs: BTreeMap<String, usize> = BTreeMap::new();
    for r in runs {
        *scope_runs.entry(r.scope()).or_insert(0) += 1;
    }
    // Ablation variants carry long mapper names (`Rewire:restarts=1`).
    let width = runs
        .iter()
        .map(|r| r.mapper.len())
        .max()
        .unwrap_or(0)
        .max(8);
    let _ = writeln!(
        out,
        "  {:<width$} kernel         fabric     II  MII  gap   IIs      iters    time_ms   \
         expansions   route_ms  ns/exp    rip_ups scope_runs  gave_up",
        "mapper"
    );
    let mut sorted: Vec<&MapStats> = runs.iter().collect();
    // Failures first, then by gap descending: the sickest run leads.
    sorted.sort_by_key(|r| (r.success(), std::cmp::Reverse(r.gap_to_mii())));
    let or_dash = |v: Option<u32>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    for r in sorted {
        let scope = r.scope();
        let counters = snap.scopes.get(&scope).map(|s| &s.counters);
        let [expansions, route_ns, rip_ups] =
            ["router.expansions", "router.route_ns", "pf.rip_ups"]
                .map(|name| counters.and_then(|c| c.get(name)).copied().unwrap_or(0));
        let (route_ms, ns_per_expansion) = if expansions == 0 {
            ("-".to_string(), "-".to_string())
        } else {
            (
                format!("{:.1}", route_ns as f64 / 1e6),
                format!("{:.1}", route_ns as f64 / expansions as f64),
            )
        };
        let _ = writeln!(
            out,
            "  {:<width$} {:<14} {:<8} {:>4} {:>4} {:>4} {:>5} {:>10} {:>10.1} {:>12} {:>10} {:>7} {:>10} {:>10}  {}",
            r.mapper,
            r.kernel,
            r.fabric,
            or_dash(r.achieved_ii),
            r.mii,
            or_dash(r.gap_to_mii()),
            r.iis_explored,
            r.remap_iterations,
            r.elapsed.as_secs_f64() * 1000.0,
            expansions,
            route_ms,
            ns_per_expansion,
            rip_ups,
            scope_runs[&scope],
            r.gave_up.map_or("-", GiveUpReason::label)
        );
    }
}

/// Each scope's own span tree and histogram tails. Histogram
/// quantiles are estimated from the log2 buckets: the p99 of route
/// lengths or attempt times is where regressions show long before the
/// mean moves.
fn render_scopes(out: &mut String, snap: &Snapshot) {
    let start = out.len();
    for (name, scope) in &snap.scopes {
        if scope.spans.is_empty() && scope.histograms.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  {name}");
        render_span_tree(out, [scope], 4);
        for (name, h) in &scope.histograms {
            let q = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.1}"));
            let _ = writeln!(
                out,
                "    {:<28} {:>6}x p50 {:>8} p90 {:>8} p99 {:>8} max {:>8}",
                name,
                h.count,
                q(h.p50()),
                q(h.p90()),
                q(h.p99()),
                h.max.map_or_else(|| "-".to_string(), |m| m.to_string()),
            );
        }
    }
    if out.len() == start {
        out.push_str("  no spans or histograms recorded\n");
    }
}

/// Builds the full diagnosis. Never returns an empty string: a section
/// with nothing to show says so.
pub fn diagnose(evidence: &Evidence, top_k: usize) -> String {
    let Evidence {
        runs,
        metrics: snap,
        flight,
    } = evidence;
    let mut out = String::new();

    out.push_str("== II vs MII ==\n");
    render_runs(&mut out, runs, snap);

    out.push_str("\n== most-failed edges ==\n");
    if flight.failed_edges.is_empty() {
        out.push_str("  no route failures recorded\n");
    }
    let mut edges: Vec<(&FailedEdge, u64)> =
        flight.failed_edges.iter().map(|(e, &n)| (e, n)).collect();
    edges.sort_by_key(|&(edge, n)| (std::cmp::Reverse(n), edge));
    for (edge, n) in edges.into_iter().take(top_k) {
        let _ = writeln!(
            out,
            "  {:<32} edge {} -> {} failed {n}x ({})",
            edge.scope, edge.src, edge.dst, edge.reason
        );
    }

    out.push_str("\n== top contended resources ==\n");
    if flight.heatmap.is_empty() {
        out.push_str("  no congestion recorded\n");
    }
    let mut hottest: Vec<&HeatRow> = flight.heatmap.iter().collect();
    hottest.sort_by_key(|row| std::cmp::Reverse(row.overuse));
    for h in hottest.iter().take(top_k) {
        let _ = writeln!(
            out,
            "  {:<32} PE {:>3} {:<4} @cycle {:<3} overuse {:>5} (peak {}, {} rounds)",
            h.scope, h.pe, h.class, h.cycle, h.overuse, h.peak, h.rounds
        );
    }
    // One grid per run scope: PE ids only mean something on the fabric
    // that scope ran on.
    let mut by_scope: BTreeMap<&str, Vec<&HeatRow>> = BTreeMap::new();
    for h in &flight.heatmap {
        by_scope.entry(h.scope.as_str()).or_default().push(h);
    }
    for (scope, heat) in &by_scope {
        let (rows, cols) = fabric_dims(scope, heat);
        if u64::from(rows) * u64::from(cols) > u64::from(MAX_GRID_PES) {
            let _ = writeln!(
                out,
                "  fabric heat {scope} ({rows}x{cols}): too large to draw"
            );
            continue;
        }
        let _ = writeln!(
            out,
            "  fabric heat {scope} ({rows}x{cols}, '#' = hottest PE):"
        );
        out.push_str(&render_fabric_heatmap(heat, rows, cols));
    }

    out.push_str("\n== span tree ==\n");
    let tree_start = out.len();
    render_span_tree(&mut out, snap.scopes.values(), 4);
    if out.len() == tree_start {
        out.push_str("  no span timers recorded\n");
    }

    out.push_str("\n== per-scope breakdown ==\n");
    render_scopes(&mut out, snap);

    out.push_str("\n== flight summary ==\n");
    let _ = writeln!(
        out,
        "  {} events in ring, {} dropped",
        flight.events, flight.dropped
    );
    for (phase, n) in &flight.phases {
        let _ = writeln!(out, "  phase {phase:<20} {n}x");
    }
    let stalls = flight.phases.get("stall_detected").copied().unwrap_or(0);
    if stalls > 0 {
        let _ = writeln!(
            out,
            "  WARNING: {stalls} stall(s) detected — attempts overshot their deadline"
        );
    }
    out
}

/// What [`validate_chrome`] counted in a well-formed trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Total `traceEvents` entries.
    pub events: usize,
    /// Matched `B`/`E` span pairs.
    pub spans: usize,
    /// Instant (`ph:"i"`) events.
    pub instants: usize,
}

/// Validates a Chrome `trace_event` export: parses with the workspace JSON
/// parser, requires every `B` to be closed by a matching `E` in
/// stack order per thread, and per-thread non-decreasing timestamps.
pub fn validate_chrome(text: &str) -> Result<ChromeSummary, String> {
    let root = json::parse(text).map_err(|e| format!("chrome trace: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("chrome trace: missing traceEvents array")?;
    let mut summary = ChromeSummary {
        events: events.len(),
        ..ChromeSummary::default()
    };
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let at = |err: String| format!("event {i}: {err}");
        let (ph, name) = (e.string("ph").map_err(at)?, e.string("name").map_err(at)?);
        let (tid, ts): (u64, u64) = (e.int("tid").map_err(at)?, e.int("ts").map_err(at)?);
        let prev = last_ts.entry(tid).or_insert(0);
        if ts < *prev {
            return Err(format!(
                "event {i}: tid {tid} timestamp went backwards ({ts} < {prev})"
            ));
        }
        *prev = ts;
        match ph {
            "B" => stacks.entry(tid).or_default().push(name.to_string()),
            "E" => match stacks.entry(tid).or_default().pop() {
                Some(top) if top == name => summary.spans += 1,
                Some(top) => {
                    return Err(format!(
                        "event {i}: tid {tid} E {name:?} does not match open B {top:?}"
                    ))
                }
                None => return Err(format!("event {i}: tid {tid} E {name:?} without open B")),
            },
            "i" => summary.instants += 1,
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: {} unclosed B event(s)", stack.len()));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::presets;
    use rewire_obs::{ChromeTrace, FlightEvent, FlightRecorder};
    use std::time::Duration;

    fn sample_flight_json() -> String {
        let r = FlightRecorder::new(64);
        r.enable(0);
        for _ in 0..3 {
            r.record_in(
                "PF*/fir@4x4/r4",
                FlightEvent::RouteFailed {
                    edge: (1, 2),
                    ii: 3,
                    reason: "no_path",
                },
            );
        }
        r.record_in(
            "PF*/fir@4x4/r4",
            FlightEvent::RouteFailed {
                edge: (0, 4),
                ii: 3,
                reason: "no_path",
            },
        );
        r.record_in(
            "PF*/fir@4x4/r4",
            FlightEvent::AttemptPhase {
                phase: "stall_detected",
                ii: 3,
            },
        );
        r.heat("PF*/fir@4x4/r4", 5, "link", 1, 7);
        r.heat("PF*/fir@4x4/r4", 2, "fu", 0, 3);
        r.snapshot().to_json()
    }

    fn flight_of(texts: &[&str]) -> Result<FlightData, String> {
        let mut data = FlightData::default();
        for text in texts {
            data.add_log(&json::parse(text).map_err(|e| e.to_string())?)?;
        }
        Ok(data)
    }

    fn record(fabric: &str, achieved_ii: Option<u32>) -> MapStats {
        MapStats {
            mapper: "PF*".into(),
            kernel: "fir".into(),
            fabric: fabric.into(),
            seed: 7,
            mii: 3,
            achieved_ii,
            gave_up: achieved_ii.is_none().then_some(GiveUpReason::MaxIiReached),
            iis_explored: 2,
            remap_iterations: 123,
            elapsed: Duration::from_micros(12_300),
            verdicts: Vec::new(),
        }
    }

    /// The per-run table's rows as whitespace-split cells keyed by the
    /// header, in printed order.
    fn table(report: &str) -> Vec<BTreeMap<String, String>> {
        let lines: Vec<&str> = report
            .lines()
            .skip_while(|l| !l.starts_with("== II vs MII =="))
            .skip(1)
            .take_while(|l| !l.is_empty())
            .collect();
        let header: Vec<&str> = lines[0].split_whitespace().collect();
        lines[1..]
            .iter()
            .map(|l| {
                let cells = l.split_whitespace().map(str::to_string);
                header.iter().map(|h| h.to_string()).zip(cells).collect()
            })
            .collect()
    }

    #[test]
    fn flight_logs_rank_edges_and_heat() {
        let flight = flight_of(&[&sample_flight_json()]).unwrap();
        assert_eq!(flight.events, 5);
        assert_eq!(flight.dropped, 0);
        assert_eq!(flight.phases.get("stall_detected"), Some(&1));
        let report = diagnose(
            &Evidence {
                flight,
                ..Evidence::default()
            },
            5,
        );
        let edge = |src| format!("edge {src} -> ");
        let (first, second) = (report.find(&edge(1)), report.find(&edge(0)));
        assert!(first < second, "most frequent edge first: {report}");
        assert!(
            report.contains("edge 1 -> 2 failed 3x (no_path)"),
            "{report}"
        );
        let (hot, warm) = (report.find("PE   5 link"), report.find("PE   2 fu"));
        assert!(hot.is_some() && hot < warm, "hottest cell first: {report}");
        assert!(report.contains("fabric heat PF*/fir@4x4/r4"), "{report}");
        assert!(report.contains("WARNING: 1 stall(s)"), "{report}");
        // No span timers: the span sections say so instead of vanishing.
        assert!(report.contains("no span timers recorded"), "{report}");
        assert!(
            report.contains("no spans or histograms recorded"),
            "{report}"
        );
    }

    #[test]
    fn flight_parse_rejects_bad_versions() {
        for version in [1, 99] {
            let empty = format!(
                "{{\"version\":{version},\"dropped\":0,\"events\":[],\"heatmap\":[],\
                 \"route_failures\":[],\"phases\":[]}}"
            );
            assert!(flight_of(&[&empty]).is_err(), "{empty}");
        }
        assert!(flight_of(&["not json"]).is_err());
    }

    #[test]
    fn edge_failures_are_counted_past_the_ring() {
        let r = FlightRecorder::new(4);
        r.enable(0);
        for _ in 0..10 {
            r.record_in(
                "PF*/fir@4x4/r4",
                FlightEvent::RouteFailed {
                    edge: (1, 2),
                    ii: 3,
                    reason: "no_path",
                },
            );
        }
        let flight = flight_of(&[&r.snapshot().to_json()]).unwrap();
        assert_eq!((flight.events, flight.dropped), (4, 6));
        let report = diagnose(
            &Evidence {
                flight,
                ..Evidence::default()
            },
            5,
        );
        assert!(
            report.contains("edge 1 -> 2 failed 10x (no_path)"),
            "{report}"
        );
    }

    #[test]
    fn flight_parse_is_strict_and_names_the_culprit() {
        let good = sample_flight_json();
        let bad = |from: &str, to: &str| {
            assert!(good.contains(from), "{from}");
            flight_of(&[&good.replacen(from, to, 1)]).unwrap_err()
        };
        // Tally rows are sorted by key: edge 0 -> 4 is row 0, 1 -> 2 row 1.
        let err = bad(",\"reason\":\"no_path\",\"count\":3", ",\"count\":3");
        assert_eq!(err, "route failure row 1: missing field \"reason\"");
        let err = bad("\"pe\":5", "\"pe\":4294967296");
        assert_eq!(
            err,
            "heatmap row 1: field \"pe\": 4294967296 does not fit u32"
        );
        assert!(bad("\"count\":3", "\"count\":-1").contains("route failure row 1"));
        let phase = "\"phase\":\"stall_detected\",\"count\"";
        assert!(bad(phase, "\"phase\":7,\"count\"").contains("phase row 0"));
        assert!(bad("\"route_failures\"", "\"failures\"").contains("route_failures"));
        assert!(bad("\"dropped\":0,", "").contains("dropped"));
    }

    #[test]
    fn diagnosis_is_never_empty() {
        let report = diagnose(&Evidence::default(), 5);
        assert!(report.contains("no run records"), "{report}");
        assert!(report.contains("no route failures recorded"), "{report}");
        assert!(report.contains("no congestion recorded"), "{report}");
        assert!(report.contains("0 events in ring, 0 dropped"), "{report}");
    }

    #[test]
    fn run_table_has_one_row_per_record_joined_by_scope() {
        let runs = vec![
            record("4x4/r4", Some(4)),
            record("8x8/r4", None),
            record("2x2/r1", None),
            record("4x4/r4", Some(5)),
        ];
        let snap_json = r#"{"version":1,"scopes":{"PF*/fir@4x4/r4":{"counters":{"pf.rip_ups":9,"router.expansions":432100,"router.route_ns":8642000},"histograms":{},"spans":{"run":{"count":1,"total_ns":12300000}}},"PF*/fir@8x8/r4":{"counters":{"router.expansions":8765,"router.route_ns":131475},"histograms":{},"spans":{}}}}"#;
        let report = diagnose(
            &Evidence {
                runs,
                metrics: Snapshot::from_json(snap_json).unwrap(),
                ..Evidence::default()
            },
            5,
        );
        let rows = table(&report);
        let order: Vec<(&str, &str)> = rows
            .iter()
            .map(|r| (r["fabric"].as_str(), r["II"].as_str()))
            .collect();
        assert_eq!(
            order,
            [
                ("8x8/r4", "-"),
                ("2x2/r1", "-"),
                ("4x4/r4", "5"),
                ("4x4/r4", "4")
            ],
            "failures first, then by gap"
        );
        let failed = &rows[0];
        assert_eq!(failed["gap"], "-", "{report}");
        assert_eq!(failed["IIs"], "2", "{report}");
        assert_eq!(failed["gave_up"], "max_ii_reached", "{report}");
        // Each row carries its own scope's router counters: expansions,
        // route time (0.131 ms, 8.642 ms) and time per expansion (15 ns,
        // 20 ns). The two 4x4 records share theirs, and say so.
        assert_eq!(failed["expansions"], "8765", "{report}");
        assert_eq!(failed["route_ms"], "0.1", "{report}");
        assert_eq!(failed["ns/exp"], "15.0", "{report}");
        assert_eq!(failed["scope_runs"], "1", "{report}");
        for mapped in &rows[2..] {
            assert_eq!(mapped["iters"], "123");
            assert_eq!(mapped["time_ms"], "12.3");
            assert_eq!(mapped["expansions"], "432100", "{report}");
            assert_eq!(mapped["route_ms"], "8.6", "{report}");
            assert_eq!(mapped["ns/exp"], "20.0", "{report}");
            assert_eq!(mapped["rip_ups"], "9", "{report}");
            assert_eq!(mapped["scope_runs"], "2", "{report}");
            assert_eq!(mapped["gave_up"], "-", "{report}");
        }
        assert_eq!(rows[2]["gap"], "2");
        // A run without a scope in the snapshot never routed.
        assert_eq!(rows[1]["expansions"], "0", "{report}");
        assert_eq!(rows[1]["route_ms"], "-", "{report}");
        assert_eq!(rows[1]["ns/exp"], "-", "{report}");
        // The scope's spans sit in its own breakdown block.
        let block = &report[report.find("== per-scope breakdown ==").unwrap()..];
        assert!(block.contains("  PF*/fir@4x4/r4\n    run "), "{report}");
    }

    #[test]
    fn scope_breakdown_renders_histogram_quantiles() {
        // Values {1, 2, 3, 900}: log2 buckets [(1,1),(2,2),(10,1)]. The
        // interpolated quantiles are pinned by the snapshot unit tests:
        // p50 = 2.25, p90 = p99 = 767.5.
        let snap_json = r#"{"version":1,"scopes":{"PF*/fir@4x4/r4":{"counters":{},"histograms":{"pf.route_len":{"count":4,"sum":906,"min":1,"max":900,"buckets":[[1,1],[2,2],[10,1]]}},"spans":{}}}}"#;
        let report = diagnose(
            &Evidence {
                metrics: Snapshot::from_json(snap_json).unwrap(),
                ..Evidence::default()
            },
            5,
        );
        let line = report
            .lines()
            .find(|l| l.contains("pf.route_len"))
            .unwrap_or_else(|| panic!("{report}"));
        let cells: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(
            cells,
            [
                "pf.route_len",
                "4x",
                "p50",
                "2.2",
                "p90",
                "767.5",
                "p99",
                "767.5",
                "max",
                "900"
            ]
        );
    }

    #[test]
    fn fabric_heatmap_is_row_major() {
        let cell = |pe, overuse| HeatRow {
            scope: "s".into(),
            pe,
            class: "fu".into(),
            cycle: 0,
            overuse,
            peak: overuse,
            rounds: 1,
        };
        let (hot, cold) = (cell(5, 10), cell(0, 1));
        let grid = render_fabric_heatmap(&[&hot, &cold], 2, 4);
        let lines: Vec<&str> = grid.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].trim(), "1...", "PE 0 is top-left");
        assert_eq!(lines[1].trim(), ".#..", "PE 5 = row 1, col 1 is hottest");
    }

    #[test]
    fn heatmap_is_drawn_per_scope_at_its_label_shape() {
        // PE 5 overused on a 4×4, an 8×8 and a 2×6 run: one grid per
        // scope, each shaped by the fabric label its scope ends in, with
        // no metrics snapshot at all.
        let r = FlightRecorder::new(8);
        r.enable(0);
        r.heat("PF*/k@4x4/r4", 5, "fu", 0, 3);
        r.heat("PF*/k@8x8/r4", 5, "fu", 0, 7);
        r.heat("PF*/k@8x8/r4", 9, "fu", 0, 1);
        r.heat("SA/k@2x6/r1", 5, "fu", 0, 2);
        r.heat("SA/unlabelled", 5, "fu", 0, 2);
        // Shapes only a hand-edited log names are reported, not drawn.
        r.heat("SA/k@60000x60000/r1", 5, "fu", 0, 3);
        r.heat("SA/huge", u32::MAX, "fu", 0, 3);
        let flight = flight_of(&[&r.snapshot().to_json()]).unwrap();
        assert_eq!(flight.heatmap.len(), 7, "no cell is shared across scopes");
        let report = diagnose(
            &Evidence {
                flight,
                ..Evidence::default()
            },
            5,
        );
        let grid = |title: &str| -> Vec<String> {
            let lines: Vec<&str> = report.lines().collect();
            let at = lines
                .iter()
                .position(|l| l.contains(title))
                .unwrap_or_else(|| panic!("no {title:?} in {report}"));
            lines[at + 1..]
                .iter()
                .take_while(|l| l.starts_with("    "))
                .map(|l| l.trim().to_string())
                .collect()
        };
        assert_eq!(
            grid("fabric heat PF*/k@4x4/r4 (4x4"),
            ["....", ".#..", "....", "...."]
        );
        let big = grid("fabric heat PF*/k@8x8/r4 (8x8");
        assert_eq!(big.len(), 8, "{report}");
        assert_eq!(big[0], ".....#..", "PE 5 = row 0, col 5 on 8 columns");
        assert_eq!(
            big[1], ".2......",
            "PE 9 = row 1, col 1, scaled to its own peak"
        );
        assert_eq!(grid("fabric heat SA/k@2x6/r1 (2x6"), [".....#", "......"]);
        assert_eq!(
            grid("fabric heat SA/unlabelled (3x3"),
            ["...", "..#", "..."],
            "a scope without a label falls back to a square"
        );
        for too_large in [
            "SA/k@60000x60000/r1 (60000x60000): too large to draw",
            "SA/huge (65536x65536): too large to draw",
        ] {
            assert!(report.contains(too_large), "{report}");
        }
    }

    #[test]
    fn fabric_labels_of_every_preset_round_trip() {
        let presets = presets::all_paper_configs()
            .into_iter()
            .chain(presets::scaling_configs());
        for (_, cgra) in presets {
            let label = cgra.label();
            let (rows, cols, regs) =
                parse_fabric_label(&label).unwrap_or_else(|| panic!("{label}"));
            assert_eq!(
                (rows, cols, regs),
                (cgra.rows(), cgra.cols(), cgra.regs_per_pe())
            );
            assert_eq!(format!("{rows}x{cols}/r{regs}"), label);
        }
        for junk in ["", "4x4", "4x4/r", "4/r4", "ax4/r4", "4x4/r4096"] {
            assert_eq!(parse_fabric_label(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn directories_join_records_metrics_and_flight_logs() {
        let root = std::env::temp_dir().join(format!("rewire-doctor-join-{}", std::process::id()));
        let snap = |n: u64| {
            format!(
                r#"{{"version":1,"scopes":{{"PF*/fir@4x4/r4":{{"counters":{{"router.expansions":{n}}},"histograms":{{}},"spans":{{}}}}}}}}"#
            )
        };
        let dirs = [root.join("a"), root.join("b")];
        for (dir, (fabric, expansions)) in dirs.iter().zip([("4x4/r4", 100), ("8x8/r4", 23)]) {
            std::fs::create_dir_all(dir).unwrap();
            let runs = record(fabric, Some(4)).to_json() + "\n";
            std::fs::write(dir.join(observe::RUNS), runs).unwrap();
            std::fs::write(dir.join(observe::METRICS), snap(expansions)).unwrap();
            std::fs::write(dir.join(FLIGHT), sample_flight_json()).unwrap();
        }
        let evidence = Evidence::load(&dirs).unwrap();
        std::fs::write(dirs[1].join(FLIGHT), "{\"version\":2}").unwrap();
        let err = Evidence::load(&dirs).unwrap_err();
        let _ = std::fs::remove_dir_all(&root);
        let fabrics: Vec<&str> = evidence.runs.iter().map(|r| r.fabric.as_str()).collect();
        assert_eq!(fabrics, ["4x4/r4", "8x8/r4"], "records in directory order");
        assert_eq!(
            evidence.metrics.scopes["PF*/fir@4x4/r4"].counters["router.expansions"], 123,
            "snapshots are summed"
        );
        let flight = &evidence.flight;
        assert_eq!(flight.events, 10, "flight logs are concatenated");
        assert_eq!(flight.heatmap.len(), 4);
        let edge = FailedEdge {
            scope: "PF*/fir@4x4/r4".into(),
            src: 1,
            dst: 2,
            reason: "no_path".into(),
        };
        assert_eq!(flight.failed_edges[&edge], 6);
        assert!(
            err.contains("flight.json") && err.contains("missing field"),
            "{err}"
        );
    }

    #[test]
    fn chrome_validation_accepts_real_exports_and_rejects_corruption() {
        let chrome = ChromeTrace::new(64);
        chrome.enable(0);
        assert!(chrome.begin("run", "m/k"));
        assert!(chrome.begin("run/attempt", "m/k"));
        chrome.end("run/attempt", "m/k");
        chrome.end("run", "m/k");
        let good = chrome.export_json(None);
        let summary = validate_chrome(&good).unwrap();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.events, 4);

        // Drop one E: the validator must flag the unclosed B.
        let truncated = good.replacen(
            "{\"name\":\"run\",\"ph\":\"E\"",
            "{\"name\":\"run\",\"ph\":\"i\",\"s\":\"g\"",
            1,
        );
        assert!(validate_chrome(&truncated).is_err());
        assert!(validate_chrome("{}").is_err());
    }
}
