//! End-to-end exercise of `rewire-doctor`: run real mappers on a
//! fuzz-corpus kernel, capture every observability artefact (run records,
//! metrics snapshot, flight log, Chrome trace), then spawn the actual
//! binary on those files and check the diagnosis.
//!
//! One `#[test]` drives the run and every doctor invocation because the
//! flight recorder and Chrome collector are process-global: parallel test
//! threads would interleave their streams.

use rewire_bench::write_trace;
use rewire_fuzz::Artifact;
use rewire_mappers::{MapLimits, Mapper, PathFinderConfig, PathFinderMapper};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

fn corpus_artifact(name: &str) -> Artifact {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fuzz/corpus")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read corpus artifact {}: {e}", path.display()));
    Artifact::from_text(&text).expect("corpus artifact parses")
}

fn out_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rewire-doctor-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
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
    let dir = out_dir();
    let trace_path = dir.join("trace.jsonl");
    let metrics_path = dir.join("metrics.json");
    let flight_path = dir.join("flight.json");
    let chrome_path = dir.join("chrome.json");

    let artifact = corpus_artifact("seed0004-pass.dfg");
    let cgra = artifact.spec.build().expect("corpus fabric builds");
    let mii = artifact.dfg.mii(&cgra).expect("corpus kernel has an MII");

    rewire_obs::flight().enable(0);
    rewire_obs::flight().reset();
    rewire_obs::chrome().enable(0);
    rewire_obs::chrome().reset();

    {
        // A fuzz-corpus failure: the fan-out hub needs II above its MII,
        // so capping max_ii at the MII makes the starved PF* give up
        // after genuinely attempting (and failing to route at) that II.
        let fail_limits = MapLimits::fast()
            .with_max_ii(mii)
            .with_ii_time_budget(Duration::from_secs(30));
        let failed = starved_pf().map(&artifact.dfg, &cgra, &fail_limits);
        assert!(
            failed.mapping.is_none(),
            "the starved run must fail (mapped at II {:?})",
            failed.stats.achieved_ii
        );

        write_trace(trace_path.to_str().unwrap(), [&failed.stats]);
    }

    let flight_log = rewire_obs::flight().snapshot();
    assert!(
        !flight_log.events.is_empty(),
        "the failed run must leave flight events"
    );
    std::fs::write(&flight_path, flight_log.to_json()).unwrap();
    std::fs::write(
        &chrome_path,
        rewire_obs::chrome().export_json(Some(&flight_log)),
    )
    .unwrap();
    std::fs::write(&metrics_path, rewire_obs::metrics().snapshot().to_json()).unwrap();
    rewire_obs::flight().disable();
    rewire_obs::chrome().disable();

    // The doctor turns the three artefacts into a non-empty diagnosis
    // naming the failure.
    let (ok, stdout, stderr) = doctor(&[
        "--trace",
        trace_path.to_str().unwrap(),
        "--metrics",
        metrics_path.to_str().unwrap(),
        "--flight",
        flight_path.to_str().unwrap(),
    ]);
    assert!(ok, "doctor failed: {stderr}");
    assert!(!stdout.trim().is_empty(), "diagnosis must be non-empty");
    assert!(stdout.contains("== II vs MII =="), "{stdout}");
    assert!(
        stdout.contains("FAILED (max_ii_reached)"),
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

    // The Chrome export from the same runs validates: balanced B/E pairs,
    // monotonic per-thread timestamps.
    let (ok, stdout, stderr) = doctor(&["--validate-chrome", chrome_path.to_str().unwrap()]);
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

    let _ = std::fs::remove_dir_all(&dir);
}
