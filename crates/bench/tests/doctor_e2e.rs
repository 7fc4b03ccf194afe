//! End-to-end exercise of the observe directory and `rewire-doctor`: real
//! mapper runs write their artifacts through the observe writer, then the
//! actual binary reads the directory back.
//!
//! The flight recorder and Chrome collector are process-global, so the
//! tests take one lock: parallel test threads would interleave their
//! streams.

use rewire_arch::{presets, OpKind};
use rewire_dfg::Dfg;
use rewire_fuzz::Artifact;
use rewire_mappers::{
    observe, MapLimits, MapStats, Mapper, PathFinderConfig, PathFinderMapper, SaMapper,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::Duration;

static COLLECTORS: Mutex<()> = Mutex::new(());

fn corpus_artifact(name: &str) -> Artifact {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fuzz/corpus")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read corpus artifact {}: {e}", path.display()));
    Artifact::from_text(&text).expect("corpus artifact parses")
}

fn out_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rewire-doctor-e2e-{name}-{}", std::process::id()))
}

fn doctor(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rewire-doctor"))
        .args(args)
        .output()
        .expect("spawn rewire-doctor");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The doctor's per-run table rows, as whitespace-split cells.
fn table_rows<'a>(diagnosis: &'a str, kernel: &str) -> Vec<Vec<&'a str>> {
    diagnosis
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|cells| cells.len() > 2 && cells[1] == kernel && !cells[0].contains('/'))
        .collect()
}

/// The index of a table column, from the header line.
fn column(diagnosis: &str, name: &str) -> usize {
    diagnosis
        .lines()
        .find(|l| l.trim_start().starts_with("mapper "))
        .and_then(|header| header.split_whitespace().position(|h| h == name))
        .unwrap_or_else(|| panic!("no {name} column: {diagnosis}"))
}

/// A PF* starved enough that the fan-out-hub corpus kernel cannot be
/// routed at its MII of 1 (the artifact itself allows II up to 5; capping
/// `max_ii` at the MII forces the failure deterministically).
fn starved_pf() -> PathFinderMapper {
    PathFinderMapper::with_config(PathFinderConfig {
        max_iterations_per_ii: 60,
        max_full_evals: 4,
        ..Default::default()
    })
}

#[test]
fn doctor_diagnoses_a_corpus_failure() {
    let _collectors = COLLECTORS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = out_dir("corpus");

    let artifact = corpus_artifact("seed0004-pass.dfg");
    let cgra = artifact.spec.build().expect("corpus fabric builds");
    let mii = artifact.dfg.mii(&cgra).expect("corpus kernel has an MII");

    observe::enable_collectors();
    rewire_obs::flight().reset();
    rewire_obs::chrome().reset();

    // A fuzz-corpus failure: the fan-out hub needs II above its MII, so
    // capping max_ii at the MII makes the starved PF* give up after
    // genuinely attempting (and failing to route at) that II.
    let fail_limits = MapLimits::fast()
        .with_max_ii(mii)
        .with_ii_time_budget(Duration::from_secs(30));
    let failed = starved_pf().map(&artifact.dfg, &cgra, &fail_limits);
    assert!(
        failed.mapping.is_none(),
        "the starved run must fail (mapped at II {:?})",
        failed.stats.achieved_ii
    );
    observe::write(&dir, [&failed.stats]).expect("observe directory written");
    rewire_obs::flight().disable();
    rewire_obs::chrome().disable();
    let observed = observe::load(&dir).expect("the directory loads");
    assert!(
        observed
            .flight
            .get("events")
            .and_then(|e| e.as_array())
            .is_some_and(|e| !e.is_empty()),
        "the failed run must leave flight events"
    );

    // The doctor turns the directory into a non-empty diagnosis naming
    // the failure.
    let (ok, stdout, stderr) = doctor(&[dir.to_str().unwrap()]);
    assert!(ok, "doctor failed: {stderr}");
    assert!(stdout.contains("== II vs MII =="), "{stdout}");
    let rows = table_rows(&stdout, &failed.stats.kernel);
    assert_eq!(rows.len(), 1, "{stdout}");
    assert_eq!(rows[0][column(&stdout, "II")], "-", "{stdout}");
    assert_eq!(
        rows[0][column(&stdout, "gave_up")],
        "max_ii_reached",
        "the failure is missing: {stdout}"
    );
    assert!(
        stdout.contains("-> ") && stdout.contains("failed"),
        "most-failed edges missing: {stdout}"
    );
    assert!(stdout.contains("== span tree =="), "{stdout}");
    assert!(
        stdout.contains("run"),
        "span tree content missing: {stdout}"
    );
    assert!(stdout.contains("== per-scope breakdown =="), "{stdout}");

    // The Chrome export from the same run validates: balanced B/E pairs,
    // monotonic per-thread timestamps.
    let chrome = dir.join(observe::CHROME);
    let (ok, stdout, stderr) = doctor(&["--validate-chrome", chrome.to_str().unwrap()]);
    assert!(ok, "chrome validation failed: {stderr}");
    assert!(stdout.contains("valid chrome trace"), "{stdout}");

    // A corrupted trace is rejected with a non-zero exit.
    let bad_path = dir.join("bad.json");
    std::fs::write(
        &bad_path,
        "{\"traceEvents\":[{\"ph\":\"E\",\"tid\":1,\"ts\":1,\"name\":\"x\"}]}",
    )
    .unwrap();
    let (ok, _, stderr) = doctor(&["--validate-chrome", bad_path.to_str().unwrap()]);
    assert!(!ok, "corrupt trace must fail validation");
    assert!(stderr.contains("without open B"), "{stderr}");

    // A directory missing one of its files is malformed input, and no
    // directory at all is a usage error.
    std::fs::remove_file(dir.join(observe::FLIGHT)).unwrap();
    let (ok, _, stderr) = doctor(&[dir.to_str().unwrap()]);
    assert!(!ok && stderr.contains(observe::FLIGHT), "{stderr}");
    let out = Command::new(env!("CARGO_BIN_EXE_rewire-doctor"))
        .output()
        .expect("spawn rewire-doctor");
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_kernel_on_two_fabrics_under_two_mappers_reports_four_runs() {
    let _collectors = COLLECTORS.lock().unwrap_or_else(|e| e.into_inner());
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

    let dir = out_dir("probe");
    observe::write(&dir, &records).expect("observe directory written");
    // The directory holds exactly the run records, elapsed time at µs.
    let at_us: Vec<MapStats> = records
        .iter()
        .map(|r| MapStats {
            elapsed: Duration::from_micros(r.elapsed.as_micros() as u64),
            ..r.clone()
        })
        .collect();
    let observed = observe::load(&dir).expect("the directory loads");
    assert_eq!(observed.runs, at_us);

    let (ok, diagnosis, stderr) = doctor(&[dir.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(ok, "doctor failed: {stderr}");
    let rows = table_rows(&diagnosis, "obs-report-probe");
    assert_eq!(rows.len(), 4, "one row per record: {diagnosis}");
    let [fabric, expansions, gave_up, iis] =
        ["fabric", "expansions", "gave_up", "IIs"].map(|name| column(&diagnosis, name));
    for record in &records {
        let row = rows
            .iter()
            .find(|row| row[0] == record.mapper && row[fabric] == record.fabric)
            .unwrap_or_else(|| panic!("no row for {}: {diagnosis}", record.scope()));
        let own = observed
            .metrics
            .scopes
            .get(&record.scope())
            .and_then(|s| s.counters.get("router.expansions"))
            .copied()
            .unwrap_or(0);
        assert_eq!(
            row[expansions],
            own.to_string(),
            "{}: {diagnosis}",
            record.scope()
        );
        assert_eq!(own > 0, record.success(), "{}", record.scope());
    }
    let failed: Vec<&Vec<&str>> = rows.iter().filter(|row| row[gave_up] != "-").collect();
    assert_eq!(failed.len(), 1, "{diagnosis}");
    assert_eq!(
        (
            failed[0][0],
            failed[0][fabric],
            failed[0][gave_up],
            failed[0][iis]
        ),
        ("SA", "8x8/r4", "max_ii_reached", "0"),
        "{diagnosis}"
    );
}
