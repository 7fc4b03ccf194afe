//! Failure forensics behind the `rewire-doctor` binary.
//!
//! Ingests the three observability artefacts a run can leave behind — the
//! run records (`--trace`, one `MapStats` line per run), metrics
//! snapshots (`--metrics`), and the flight-recorder decision log
//! (`--flight`) — and prints a diagnosis: the II-vs-MII gap per run, the
//! most-failed DFG edges, the top contended resources with one ASCII
//! fabric heatmap per run scope, and the span-tree time breakdown. Also
//! hosts the Chrome `trace_event` validator the CI uses to prove exported
//! traces are well-formed (balanced `B`/`E` pairs, per-thread monotonic
//! timestamps).

use rewire_mappers::MapStats;
use rewire_obs::json::{self, Json};
use rewire_obs::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

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

/// One `route_failed` flight event, grouped for ranking.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FailedEdge {
    /// Recording scope (`"<mapper>/<kernel>@<fabric>"`).
    pub scope: String,
    /// Source DFG node index.
    pub src: u64,
    /// Destination DFG node index.
    pub dst: u64,
    /// Router failure label.
    pub reason: String,
}

/// The flight-recorder log, parsed generically from its JSON export.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightData {
    /// Records evicted because the ring was full.
    pub dropped: u64,
    /// Failed edges with multiplicity, most frequent first.
    pub failed_edges: Vec<(FailedEdge, u64)>,
    /// `attempt_phase` label counts (`"stall_detected"`, ...).
    pub phases: BTreeMap<String, u64>,
    /// Total events in the ring.
    pub events: usize,
    /// Heatmap rows, most overused first.
    pub heatmap: Vec<HeatRow>,
}

fn u64_field(obj: &Json, name: &str) -> u64 {
    obj.get(name).and_then(Json::as_u64).unwrap_or(0)
}

fn str_field(obj: &Json, name: &str) -> String {
    obj.get(name)
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string()
}

/// Parses a flight-recorder JSON export (version 1).
pub fn parse_flight(text: &str) -> Result<FlightData, String> {
    let root = json::parse(text).map_err(|e| format!("flight log: {e}"))?;
    match root.get("version").and_then(Json::as_u64) {
        Some(1) => {}
        other => return Err(format!("flight log: unsupported version {other:?}")),
    }
    let mut data = FlightData {
        dropped: u64_field(&root, "dropped"),
        ..FlightData::default()
    };
    let events = root
        .get("events")
        .and_then(Json::as_array)
        .ok_or("flight log: missing events array")?;
    data.events = events.len();
    let mut fails: BTreeMap<FailedEdge, u64> = BTreeMap::new();
    for e in events {
        match e.get("kind").and_then(Json::as_str) {
            Some("route_failed") => {
                let key = FailedEdge {
                    scope: str_field(e, "scope"),
                    src: u64_field(e, "src"),
                    dst: u64_field(e, "dst"),
                    reason: str_field(e, "reason"),
                };
                *fails.entry(key).or_insert(0) += 1;
            }
            Some("attempt_phase") => {
                let phase = e.get("phase").and_then(Json::as_str).unwrap_or("");
                *data.phases.entry(phase.to_string()).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    data.failed_edges = fails.into_iter().collect();
    data.failed_edges
        .sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let heat = root
        .get("heatmap")
        .and_then(Json::as_array)
        .ok_or("flight log: missing heatmap array")?;
    for cell in heat {
        data.heatmap.push(HeatRow {
            scope: str_field(cell, "scope"),
            pe: u64_field(cell, "pe") as u32,
            class: str_field(cell, "class"),
            cycle: u64_field(cell, "cycle") as u32,
            overuse: u64_field(cell, "overuse"),
            peak: u64_field(cell, "peak"),
            rounds: u64_field(cell, "rounds"),
        });
    }
    data.heatmap
        .sort_by_key(|row| std::cmp::Reverse(row.overuse));
    Ok(data)
}

/// `scope`'s fabric `(rows, cols)`, read from that scope's
/// `engine.fabric_rows`/`_cols` gauges; falls back to a square grid just
/// covering the highest PE index in its heatmap rows.
fn fabric_dims(snap: Option<&Snapshot>, scope: &str, heat: &[&HeatRow]) -> (u32, u32) {
    let gauge = |name: &str| {
        snap.and_then(|s| s.scopes.get(scope))
            .and_then(|sc| sc.gauges.get(name).copied())
            .and_then(|v| u32::try_from(v).ok())
            .filter(|&v| v > 0)
    };
    if let (Some(r), Some(c)) = (gauge("engine.fabric_rows"), gauge("engine.fabric_cols")) {
        return (r, c);
    }
    let max_pe = heat.iter().map(|h| h.pe).max().unwrap_or(0);
    let side = (1u32..).find(|s| s * s > max_pe).unwrap_or(1);
    (side, side)
}

/// Renders the per-PE congestion as an ASCII grid (PE ids are row-major),
/// `.` = no recorded overuse, `1`-`9` then `#` for hotter cells scaled to
/// the hottest PE.
fn render_fabric_heatmap(heat: &[&HeatRow], rows: u32, cols: u32) -> String {
    let mut per_pe: BTreeMap<u32, u64> = BTreeMap::new();
    for h in heat {
        *per_pe.entry(h.pe).or_insert(0) += h.overuse;
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
                let level = (v * 10).div_ceil(hottest).min(10);
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

/// Renders the merged span tree: spans aggregated across scopes by path,
/// indented by tree depth, with call counts and total milliseconds.
fn render_span_tree(snap: &Snapshot) -> String {
    let mut merged: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for scope in snap.scopes.values() {
        for (path, span) in &scope.spans {
            let e = merged.entry(path.as_str()).or_insert((0, 0));
            e.0 += span.count;
            e.1 += span.total_ns;
        }
    }
    let mut out = String::new();
    for (path, (count, total_ns)) in &merged {
        let depth = path.matches('/').count();
        let name = path.rsplit('/').next().unwrap_or(path);
        let _ = writeln!(
            out,
            "    {:indent$}{:<24} {:>7}x {:>10.1} ms",
            "",
            name,
            count,
            *total_ns as f64 / 1e6,
            indent = depth * 2
        );
    }
    out
}

/// Builds the full diagnosis from whatever artefacts are present. Never
/// returns an empty string: even with no inputs it says what is missing.
pub fn diagnose(
    runs: &[MapStats],
    snap: Option<&Snapshot>,
    flight: Option<&FlightData>,
    top_k: usize,
) -> String {
    let mut out = String::new();

    out.push_str("== II vs MII ==\n");
    if runs.is_empty() {
        out.push_str("  no runs (no --trace given or trace was empty)\n");
    }
    let mut sorted: Vec<&MapStats> = runs.iter().collect();
    // Failures first, then by gap descending: the sickest run leads.
    sorted.sort_by_key(|r| {
        (
            r.achieved_ii.is_some(),
            r.achieved_ii
                .map_or(0i64, |ii| -(i64::from(ii) - i64::from(r.mii))),
        )
    });
    for r in sorted {
        match r.achieved_ii {
            Some(ii) => {
                let gap = ii.saturating_sub(r.mii);
                let _ = writeln!(
                    out,
                    "  {:<32} II {ii} vs MII {} (gap {gap}{})",
                    r.scope(),
                    r.mii,
                    if gap == 0 { ", optimal" } else { "" }
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:<32} FAILED ({}) after {} IIs",
                    r.scope(),
                    r.gave_up.map_or("unknown", |reason| reason.label()),
                    r.iis_explored
                );
            }
        }
    }

    out.push_str("\n== most-failed edges ==\n");
    match flight {
        None => out.push_str("  no flight log (--flight not given)\n"),
        Some(f) if f.failed_edges.is_empty() => {
            out.push_str("  no route failures recorded\n");
        }
        Some(f) => {
            for (edge, n) in f.failed_edges.iter().take(top_k) {
                let _ = writeln!(
                    out,
                    "  {:<32} edge {} -> {} failed {n}x ({})",
                    edge.scope, edge.src, edge.dst, edge.reason
                );
            }
        }
    }

    out.push_str("\n== top contended resources ==\n");
    match flight {
        None => out.push_str("  no flight log (--flight not given)\n"),
        Some(f) if f.heatmap.is_empty() => {
            out.push_str("  no congestion recorded\n");
        }
        Some(f) => {
            for h in f.heatmap.iter().take(top_k) {
                let _ = writeln!(
                    out,
                    "  {:<32} PE {:>3} {:<4} @cycle {:<3} overuse {:>5} (peak {}, {} rounds)",
                    h.scope, h.pe, h.class, h.cycle, h.overuse, h.peak, h.rounds
                );
            }
            // One grid per run scope: PE ids only mean something on the
            // fabric that scope ran on.
            let mut by_scope: BTreeMap<&str, Vec<&HeatRow>> = BTreeMap::new();
            for h in &f.heatmap {
                by_scope.entry(h.scope.as_str()).or_default().push(h);
            }
            for (scope, heat) in &by_scope {
                let (rows, cols) = fabric_dims(snap, scope, heat);
                let _ = writeln!(
                    out,
                    "  fabric heat {scope} ({rows}x{cols}, '#' = hottest PE):"
                );
                out.push_str(&render_fabric_heatmap(heat, rows, cols));
            }
        }
    }

    out.push_str("\n== span tree ==\n");
    match snap {
        None => out.push_str("  no metrics snapshot (--metrics not given)\n"),
        Some(s) => {
            let tree = render_span_tree(s);
            if tree.is_empty() {
                out.push_str("  no span timers recorded\n");
            } else {
                out.push_str(&tree);
            }
        }
    }

    if let Some(f) = flight {
        out.push_str("\n== flight summary ==\n");
        let _ = writeln!(out, "  {} events in ring, {} dropped", f.events, f.dropped);
        for (phase, n) in &f.phases {
            let _ = writeln!(out, "  phase {phase:<20} {n}x");
        }
        let stalls = f.phases.get("stall_detected").copied().unwrap_or(0);
        if stalls > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {stalls} stall(s) detected — attempts overshot their deadline"
            );
        }
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
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let ts = e
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
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
    use rewire_mappers::GiveUpReason;
    use rewire_obs::{ChromeTrace, FlightEvent, FlightRecorder};

    fn sample_flight_json() -> String {
        let r = FlightRecorder::new(64);
        r.enable(0);
        for _ in 0..3 {
            r.record_in(
                "PF*/fir",
                FlightEvent::RouteFailed {
                    edge: (1, 2),
                    ii: 3,
                    reason: "no_path",
                },
            );
        }
        r.record_in(
            "PF*/fir",
            FlightEvent::RouteFailed {
                edge: (0, 4),
                ii: 3,
                reason: "no_path",
            },
        );
        r.record_in(
            "PF*/fir",
            FlightEvent::AttemptPhase {
                phase: "stall_detected",
                ii: 3,
            },
        );
        r.heat("PF*/fir@4x4/r4", 5, "link", 1, 7);
        r.heat("PF*/fir@4x4/r4", 2, "fu", 0, 3);
        r.snapshot().to_json()
    }

    #[test]
    fn flight_parse_ranks_edges_and_heat() {
        let data = parse_flight(&sample_flight_json()).unwrap();
        assert_eq!(data.events, 5);
        assert_eq!(data.dropped, 0);
        assert_eq!(data.failed_edges[0].1, 3, "most frequent edge first");
        assert_eq!(data.failed_edges[0].0.src, 1);
        assert_eq!(data.heatmap[0].pe, 5, "hottest cell first");
        assert_eq!(data.heatmap[0].scope, "PF*/fir@4x4/r4");
        assert_eq!(data.phases.get("stall_detected"), Some(&1));
    }

    #[test]
    fn flight_parse_rejects_bad_versions() {
        assert!(parse_flight("{\"version\":99,\"events\":[],\"heatmap\":[]}").is_err());
        assert!(parse_flight("not json").is_err());
    }

    #[test]
    fn diagnosis_covers_all_sections() {
        let runs = [MapStats {
            mapper: "PF*".into(),
            kernel: "fir".into(),
            fabric: "4x4/r4".into(),
            mii: 3,
            gave_up: Some(GiveUpReason::MaxIiReached),
            iis_explored: 1,
            ..MapStats::default()
        }];
        let flight = parse_flight(&sample_flight_json()).unwrap();
        let report = diagnose(&runs, None, Some(&flight), 5);
        let failed = report
            .lines()
            .find(|l| l.contains("FAILED"))
            .unwrap_or_else(|| panic!("{report}"));
        assert!(failed.contains("PF*/fir@4x4/r4"), "{report}");
        assert!(
            failed.contains("FAILED (max_ii_reached) after 1 IIs"),
            "{report}"
        );
        assert!(report.contains("edge 1 -> 2 failed 3x"), "{report}");
        assert!(report.contains("PE   5"), "{report}");
        assert!(report.contains("fabric heat"), "{report}");
        assert!(report.contains("stall"), "{report}");
        // No metrics snapshot: the span section says so instead of vanishing.
        assert!(report.contains("no metrics snapshot"), "{report}");
    }

    #[test]
    fn diagnosis_is_never_empty() {
        let report = diagnose(&[], None, None, 5);
        assert!(report.contains("no runs"), "{report}");
        assert!(report.contains("no flight log"), "{report}");
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
    fn heatmap_is_drawn_per_scope_at_its_own_shape() {
        // PE 5 overused on a 4×4 run and on an 8×8 run: two cells, two
        // grids, each sized from its own scope's gauges.
        let r = FlightRecorder::new(8);
        r.enable(0);
        r.heat("PF*/k@4x4/r4", 5, "fu", 0, 3);
        r.heat("PF*/k@8x8/r4", 5, "fu", 0, 7);
        r.heat("PF*/k@8x8/r4", 9, "fu", 0, 1);
        let flight = parse_flight(&r.snapshot().to_json()).unwrap();
        assert_eq!(flight.heatmap.len(), 3, "no cell is shared across scopes");
        let gauges = |n: u32| {
            format!(
                r#"{{"counters":{{}},"gauges":{{"engine.fabric_cols":{n},"engine.fabric_rows":{n}}},"histograms":{{}},"spans":{{}}}}"#
            )
        };
        let snap = Snapshot::from_json(&format!(
            r#"{{"version":1,"scopes":{{"PF*/k@4x4/r4":{},"PF*/k@8x8/r4":{}}}}}"#,
            gauges(4),
            gauges(8)
        ))
        .unwrap();
        let report = diagnose(&[], Some(&snap), Some(&flight), 5);
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
