//! Integration tests of the `rewire-map` CLI binary.

use rewire::mappers::observe;
use std::process::Command;
use std::time::Instant;

fn rewire_map() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rewire-map"))
}

#[test]
fn maps_a_kernel_and_reports() {
    let out = rewire_map()
        .args(["--kernel", "fir", "--budget-ms", "2000", "--verify", "4"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The success summary is the `MapStats` Display one-liner.
    assert!(stdout.contains("Rewire/fir: II "), "summary: {stdout}");
    assert!(stdout.contains("semantics verified"));
}

#[test]
fn unknown_kernel_is_a_usage_error() {
    let out = rewire_map()
        .args(["--kernel", "not-a-kernel"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    // An `--arch` that is neither a preset nor a fabric spec, likewise.
    let out = rewire_map()
        .args(["--kernel", "fir", "--arch", "3x3 regs=2 frob"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown token 'frob'"), "{stderr}");
}

#[test]
fn missing_input_prints_usage() {
    let out = rewire_map().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"));
}

#[test]
fn maps_a_dfg_file_on_a_custom_fabric() {
    let dir = std::env::temp_dir().join("rewire-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.dfg");
    std::fs::write(
        &path,
        "dfg tiny\nnode a ld\nnode b add\nnode c st\nedge a b\nedge b c\n",
    )
    .unwrap();
    let out = rewire_map()
        .args([
            "--dfg",
            path.to_str().unwrap(),
            "--arch",
            "3x3 regs=2 banks=1 memcols=0",
            "--mapper",
            "pf",
            "--show-grid",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("slot 0"), "grid rendered: {stdout}");
}

#[test]
fn an_unroutably_long_back_edge_fails_within_its_budget() {
    // At II ≤ 3 the 3x3/r2 fabric has at most 126 link and register
    // cells, far fewer than the ~1000·II steps the back edge needs, so the
    // router answers `NoPath` at once instead of running its DP.
    let dir = std::env::temp_dir().join("rewire-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("long-back-edge.dfg");
    std::fs::write(
        &path,
        "dfg long\nnode a add\nnode b add\nedge a b\nedge b a 1000\n",
    )
    .unwrap();
    for mapper in ["rewire", "pf", "sa"] {
        let start = Instant::now();
        let out = rewire_map()
            .args([
                "--dfg",
                path.to_str().unwrap(),
                "--arch",
                "3x3 regs=2",
                "--budget-ms",
                "300",
                "--max-ii",
                "3",
                "--mapper",
                mapper,
            ])
            .output()
            .expect("binary runs");
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{mapper}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(secs < 20.0, "{mapper} took {secs:.1} s for 3 IIs of 0.3 s");
    }
}

#[test]
fn maps_a_corpus_artifact_and_dumps_forensics() {
    let dir = std::env::temp_dir().join(format!("rewire-cli-forensics-{}", std::process::id()));
    let artifact = concat!(env!("CARGO_MANIFEST_DIR"), "/fuzz/corpus/seed0004-pass.dfg");
    let out = rewire_map()
        .args([
            "--artifact",
            artifact,
            "--mapper",
            "pf",
            "--observe",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Fabric, kernel and II ceiling all come from the artifact file.
    assert!(stdout.contains("artifact:"), "provenance line: {stdout}");
    assert!(stdout.contains("CGRA 3x3"), "artifact fabric: {stdout}");
    assert!(stdout.contains("PF*/hand-backedge-hub: II "), "{stdout}");
    // `--observe` writes all four files; the run comes back as one record.
    for name in [
        observe::RUNS,
        observe::METRICS,
        observe::FLIGHT,
        observe::CHROME,
    ] {
        assert!(dir.join(name).is_file(), "{name} written");
    }
    let observed = observe::load(&dir).expect("the directory loads");
    let chrome_json = std::fs::read_to_string(dir.join(observe::CHROME)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(observed.runs.len(), 1, "{:?}", observed.runs);
    let run = &observed.runs[0];
    assert_eq!(run.scope(), "PF*/hand-backedge-hub@3x3/r2");
    assert!(run.success(), "{run}");
    assert!(observed.metrics.scopes.contains_key(&run.scope()));
    assert!(observed.flight.get("events").is_some());
    assert!(chrome_json.contains("traceEvents"), "{chrome_json}");
}

#[test]
fn dot_export_writes_a_file() {
    let dir = std::env::temp_dir().join("rewire-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let dot = dir.join("out.dot");
    let out = rewire_map()
        .args([
            "--kernel",
            "atax",
            "--dot",
            dot.to_str().unwrap(),
            "--budget-ms",
            "1500",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&dot).unwrap();
    assert!(text.starts_with("digraph"));
}
