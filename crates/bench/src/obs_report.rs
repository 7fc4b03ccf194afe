//! Aggregation behind the `rewire-report` binary: reads a `--trace` file
//! of run records ([`MapStats`], one JSON line per run) and any number of
//! metrics snapshots, and renders one row per record joined with the
//! counters and span timings recorded under the record's scope
//! ([`MapStats::scope`], `mapper/kernel@fabric`).

use rewire_mappers::MapStats;
use rewire_obs::Snapshot;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Parses a `--trace` file into its run records, in file order. Blank
/// lines are skipped; any malformed line is an error naming the line (a
/// truncated trace should fail the report, not thin it out).
pub fn parse_records(text: &str) -> Result<Vec<MapStats>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| MapStats::from_json(line).map_err(|e| format!("line {}: {e}", idx + 1)))
        .collect()
}

/// Parses and merges metrics snapshot files (the counters are additive, so
/// snapshots from separate processes merge into one view).
pub fn load_snapshots(texts: &[(String, String)]) -> Result<Snapshot, String> {
    let mut merged = Snapshot::default();
    for (name, text) in texts {
        let snap = Snapshot::from_json(text).map_err(|e| format!("{name}: {e}"))?;
        merged.merge(&snap);
    }
    Ok(merged)
}

fn counter(snap: &Snapshot, scope: &str, name: &str) -> u64 {
    snap.scopes
        .get(scope)
        .and_then(|s| s.counters.get(name))
        .copied()
        .unwrap_or(0)
}

/// Renders the per-run table (one row per record), one `MapStats` line
/// per run, and (when a snapshot is present) the per-scope span time
/// breakdown.
///
/// `route_ms` is the scope's `router.route_ns` and `ns/exp` that time per
/// `router.expansions` — the router DP's cost per relaxed transition;
/// both read `-` for a run that never routed.
pub fn render_report(runs: &[MapStats], snap: Option<&Snapshot>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<14} {:<8} {:>4} {:>4} {:>5} {:>10} {:>10} {:>12} {:>10} {:>7} {:>10}",
        "mapper",
        "kernel",
        "fabric",
        "II",
        "MII",
        "IIs",
        "iters",
        "time_ms",
        "expansions",
        "route_ms",
        "ns/exp",
        "rip_ups"
    );
    for run in runs {
        let ii = run
            .achieved_ii
            .map_or_else(|| "-".to_string(), |ii| ii.to_string());
        let scope = run.scope();
        let [expansions, route_ns, rip_ups] =
            ["router.expansions", "router.route_ns", "pf.rip_ups"]
                .map(|name| snap.map_or(0, |s| counter(s, &scope, name)));
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
            "{:<8} {:<14} {:<8} {:>4} {:>4} {:>5} {:>10} {:>10.1} {:>12} {:>10} {:>7} {:>10}",
            run.mapper,
            run.kernel,
            run.fabric,
            ii,
            run.mii,
            run.iis_explored,
            run.remap_iterations,
            run.elapsed.as_secs_f64() * 1000.0,
            expansions,
            route_ms,
            ns_per_expansion,
            rip_ups
        );
    }
    out.push('\n');
    for run in runs {
        let _ = writeln!(out, "{run}");
    }
    if let Some(snap) = snap {
        let scope_names: BTreeSet<String> = runs.iter().map(MapStats::scope).collect();
        let present: Vec<&String> = scope_names
            .iter()
            .filter(|name| snap.scopes.contains_key(name.as_str()))
            .collect();
        if !present.is_empty() {
            let _ = writeln!(out, "\ntime breakdown (per scope):");
        }
        for scope_name in present {
            let scope = &snap.scopes[scope_name.as_str()];
            let _ = writeln!(out, "  {scope_name}");
            for (path, span) in &scope.spans {
                let _ = writeln!(
                    out,
                    "    {:<28} {:>6}x {:>10.1} ms",
                    path,
                    span.count,
                    span.total_ms()
                );
            }
            // Gauges carry point-in-time sizes (fabric PEs, distance-table
            // bytes) so memory growth is visible next to the timings.
            for (name, v) in &scope.gauges {
                let _ = writeln!(out, "    {name:<28} {v:>18} (gauge)");
            }
            // Histogram tails, estimated from the log2 buckets: the p99 of
            // e.g. route lengths or attempt times is what regressions show
            // up in long before the mean moves.
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
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_mappers::GiveUpReason;
    use std::time::Duration;

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

    fn trace(records: &[MapStats]) -> String {
        records.iter().map(|r| r.to_json() + "\n").collect()
    }

    #[test]
    fn records_parse_in_file_order() {
        let records = vec![record("4x4/r4", Some(4)), record("8x8/r4", None)];
        let text = format!("\n{}\n", trace(&records));
        assert_eq!(parse_records(&text).unwrap(), records);
    }

    #[test]
    fn malformed_lines_fail_with_position() {
        let good = trace(&[record("4x4/r4", Some(4))]);
        let err = parse_records(&format!("{good}this is not json\n")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let out_of_range = good.replace("\"mii\":3", "\"mii\":4294967296");
        let err = parse_records(&format!("{good}{out_of_range}")).unwrap_err();
        assert_eq!(err, "line 2: field \"mii\": 4294967296 does not fit u32");
        let missing = good.replace(",\"seed\":7", "");
        assert!(parse_records(&missing).unwrap_err().contains("seed"));
    }

    #[test]
    fn report_has_one_row_per_record_joined_by_scope() {
        let runs = vec![
            record("4x4/r4", Some(4)),
            record("8x8/r4", None),
            record("2x2/r1", None),
        ];
        let snap_json = r#"{"version":1,"scopes":{"PF*/fir@4x4/r4":{"counters":{"pf.rip_ups":9,"router.expansions":432100,"router.route_ns":8642000},"gauges":{"engine.fabric_pes":16,"router.distance_table_bytes":16384},"histograms":{},"spans":{"run":{"count":1,"total_ns":12300000}}},"PF*/fir@8x8/r4":{"counters":{"router.expansions":8765,"router.route_ns":131475},"gauges":{},"histograms":{},"spans":{}}}}"#;
        let snap = load_snapshots(&[("m.json".to_string(), snap_json.to_string())]).unwrap();
        let report = render_report(&runs, Some(&snap));
        let header: Vec<&str> = report.lines().next().unwrap().split_whitespace().collect();
        let rows: Vec<Vec<&str>> = report
            .lines()
            .filter(|l| l.starts_with("PF* "))
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(rows.len(), 3, "{report}");
        let column = |row: &[&str], name: &str| {
            let at = header.iter().position(|h| *h == name).unwrap();
            row[at].to_string()
        };
        // Each row carries its own scope's router counters: expansions,
        // route time (8.642 ms, 0.131 ms) and time per expansion (20 ns,
        // 15 ns).
        assert_eq!(rows[0][2], "4x4/r4", "{report}");
        assert_eq!(column(&rows[0], "expansions"), "432100", "{report}");
        assert_eq!(column(&rows[0], "route_ms"), "8.6", "{report}");
        assert_eq!(column(&rows[0], "ns/exp"), "20.0", "{report}");
        assert_eq!(column(&rows[0], "rip_ups"), "9", "{report}");
        assert_eq!(rows[1][2], "8x8/r4", "{report}");
        assert_eq!(column(&rows[1], "expansions"), "8765", "{report}");
        assert_eq!(column(&rows[1], "route_ms"), "0.1", "{report}");
        assert_eq!(column(&rows[1], "ns/exp"), "15.0", "{report}");
        // A run without a scope in the snapshot never routed.
        assert_eq!(rows[2][2], "2x2/r1", "{report}");
        assert_eq!(column(&rows[2], "expansions"), "0", "{report}");
        assert_eq!(column(&rows[2], "route_ms"), "-", "{report}");
        assert_eq!(column(&rows[2], "ns/exp"), "-", "{report}");
        assert!(
            report.contains("PF*/fir: II 4 (MII 3) on 4x4/r4"),
            "{report}"
        );
        assert!(
            report.contains("PF*/fir: failed (MII 3) on 8x8/r4"),
            "{report}"
        );
        assert!(report.contains("time breakdown"), "{report}");
        assert!(report.contains("PF*/fir@4x4/r4"), "{report}");
        assert!(report.contains("engine.fabric_pes"), "{report}");
        assert!(
            report.contains("router.distance_table_bytes") && report.contains("16384"),
            "{report}"
        );
    }

    #[test]
    fn report_renders_histogram_quantiles() {
        let runs = vec![record("4x4/r4", Some(4))];
        // Values {1, 2, 3, 900}: log2 buckets [(1,1),(2,2),(10,1)]. The
        // interpolated quantiles are pinned by the snapshot unit tests:
        // p50 = 2.25, p90 = p99 = 767.5.
        let snap_json = r#"{"version":1,"scopes":{"PF*/fir@4x4/r4":{"counters":{},"gauges":{},"histograms":{"pf.route_len":{"count":4,"sum":906,"min":1,"max":900,"buckets":[[1,1],[2,2],[10,1]]}},"spans":{}}}}"#;
        let snap = load_snapshots(&[("m.json".to_string(), snap_json.to_string())]).unwrap();
        let report = render_report(&runs, Some(&snap));
        assert!(report.contains("pf.route_len"), "{report}");
        assert!(report.contains("p50"), "{report}");
        assert!(report.contains("2.2"), "{report}");
        assert!(report.contains("767.5"), "{report}");
        assert!(report.contains("900"), "{report}");
    }

    #[test]
    fn snapshots_merge_across_files() {
        let a = r#"{"version":1,"scopes":{"PF*/fir@4x4/r4":{"counters":{"pf.rip_ups":1},"gauges":{},"histograms":{},"spans":{}}}}"#;
        let b = r#"{"version":1,"scopes":{"PF*/fir@4x4/r4":{"counters":{"pf.rip_ups":2},"gauges":{},"histograms":{},"spans":{}}}}"#;
        let snap = load_snapshots(&[
            ("a.json".to_string(), a.to_string()),
            ("b.json".to_string(), b.to_string()),
        ])
        .unwrap();
        assert_eq!(counter(&snap, "PF*/fir@4x4/r4", "pf.rip_ups"), 3);
        let err = load_snapshots(&[("c.json".to_string(), "{}".to_string())]).unwrap_err();
        assert!(err.starts_with("c.json:"), "{err}");
    }
}
