//! End-to-end check of the observability pipeline: real mapper runs must
//! come back from their `--trace` records and a metrics snapshot as one
//! `rewire-report` row per run, each joined with the counters of its own
//! `mapper/kernel@fabric` scope, and a failed run must reach
//! `rewire-doctor` as `FAILED (<reason>)`.

use rewire_arch::{presets, OpKind};
use rewire_bench::obs_report::parse_records;
use rewire_bench::write_trace;
use rewire_dfg::Dfg;
use rewire_mappers::{MapLimits, MapStats, Mapper, PathFinderMapper, SaMapper};
use std::process::Command;
use std::time::Duration;

fn spawn(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn one_kernel_on_two_fabrics_under_two_mappers_reports_four_runs() {
    // A uniquely named chain keeps this test's metric scopes apart from
    // every other run in the process, and maps at its MII on both fabrics
    // long before any deadline.
    let mut dfg = Dfg::new("obs-report-probe");
    let mut prev = dfg.add_node("ld", OpKind::Load);
    for i in 0..4 {
        let n = dfg.add_node(format!("a{i}"), OpKind::Add);
        dfg.add_edge(prev, n, 0).unwrap();
        prev = n;
    }
    let mappers: [Box<dyn Mapper>; 2] =
        [Box::new(PathFinderMapper::new()), Box::new(SaMapper::new())];
    let mut records: Vec<MapStats> = Vec::new();
    for cgra in [presets::paper_4x4_r4(), presets::paper_8x8_r4()] {
        for mapper in &mappers {
            // SA on the 8×8 fabric gets an II ceiling below any MII, so it
            // gives up without attempting anything.
            let mut limits = MapLimits::fast().with_seed(11);
            if mapper.name() == "SA" && cgra.rows() == 8 {
                limits = limits.with_max_ii(0);
            }
            records.push(mapper.map(&dfg, &cgra, &limits).stats);
        }
    }
    let scopes: Vec<String> = records.iter().map(MapStats::scope).collect();
    assert_eq!(
        scopes,
        [
            "PF*/obs-report-probe@4x4/r4",
            "SA/obs-report-probe@4x4/r4",
            "PF*/obs-report-probe@8x8/r4",
            "SA/obs-report-probe@8x8/r4",
        ]
    );
    assert!(records[..3].iter().all(MapStats::success), "{records:#?}");
    assert!(!records[3].success());

    let dir = std::env::temp_dir().join(format!("rewire-obsreport-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl");
    let metrics = dir.join("m.json");
    write_trace(trace.to_str().unwrap(), &records);
    let snapshot = rewire_obs::metrics().snapshot();
    std::fs::write(&metrics, snapshot.to_json()).unwrap();
    // The trace holds exactly the run records, elapsed time at µs.
    let at_us: Vec<MapStats> = records
        .iter()
        .map(|r| MapStats {
            elapsed: Duration::from_micros(r.elapsed.as_micros() as u64),
            ..r.clone()
        })
        .collect();
    assert_eq!(
        parse_records(&std::fs::read_to_string(&trace).unwrap()).unwrap(),
        at_us
    );

    let report = spawn(
        env!("CARGO_BIN_EXE_rewire-report"),
        &[trace.to_str().unwrap(), metrics.to_str().unwrap()],
    );
    let rows: Vec<Vec<&str>> = report
        .lines()
        .filter(|l| l.contains("obs-report-probe") && !l.contains(':') && !l.contains('@'))
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(rows.len(), 4, "one row per record: {report}");
    for (row, record) in rows.iter().zip(&records) {
        assert_eq!(row[0], record.mapper, "{report}");
        assert_eq!(row[2], record.fabric, "{report}");
        let own = snapshot
            .scopes
            .get(&record.scope())
            .and_then(|s| s.counters.get("router.expansions"))
            .copied()
            .unwrap_or(0);
        assert_eq!(row[8], own.to_string(), "{}: {report}", record.scope());
        assert_eq!(own > 0, record.success(), "{}", record.scope());
    }

    let diagnosis = spawn(
        env!("CARGO_BIN_EXE_rewire-doctor"),
        &["--trace", trace.to_str().unwrap()],
    );
    let failed: Vec<&str> = diagnosis.lines().filter(|l| l.contains("FAILED")).collect();
    assert_eq!(failed.len(), 1, "{diagnosis}");
    assert!(
        failed[0].contains("SA/obs-report-probe@8x8/r4")
            && failed[0].contains("FAILED (max_ii_reached) after 0 IIs"),
        "{diagnosis}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
