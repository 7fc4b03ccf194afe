//! The `ablation` binary honours the experiment flags it parses:
//! `--kernels` narrows its suite (rejecting unknown names like every other
//! experiment binary) and `--observe` writes an observe directory with one
//! run record per mapping run, which `rewire-doctor` reads back.

use rewire_mappers::observe;
use std::process::Command;

fn spawn(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

#[test]
fn kernel_filter_and_observe_are_honoured() {
    let dir = std::env::temp_dir().join(format!("rewire-ablation-{}", std::process::id()));
    let dir_arg = dir.to_str().unwrap();
    let out = spawn(
        env!("CARGO_BIN_EXE_ablation"),
        &[
            "0.02",
            "--jobs",
            "2",
            "--kernels",
            "fir",
            "--observe",
            dir_arg,
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let kernel_rows: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|first| !first.starts_with("==") && *first != "kernel")
        .collect();
    assert_eq!(kernel_rows, ["fir"; 3], "one fir row per table: {stdout}");

    for name in [
        observe::RUNS,
        observe::METRICS,
        observe::FLIGHT,
        observe::CHROME,
    ] {
        assert!(dir.join(name).is_file(), "--observe wrote {name}");
    }
    let records = observe::load(&dir).expect("the directory loads").runs;
    // 5 cluster caps + 3 search budgets + 2 restart settings.
    assert_eq!(records.len(), 10, "{records:#?}");
    for r in &records {
        assert_eq!(
            (r.mapper.as_str(), r.kernel.as_str(), r.fabric.as_str()),
            ("Rewire", "fir", "4x4/r4")
        );
    }

    // The doctor prints one row per record. All ten share the scope
    // `Rewire/fir@4x4/r4`, so each row says its counters total ten runs.
    let out = spawn(env!("CARGO_BIN_EXE_rewire-doctor"), &[dir_arg]);
    let _ = std::fs::remove_dir_all(&dir);
    let diagnosis = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let header: Vec<&str> = diagnosis
        .lines()
        .find(|l| l.trim_start().starts_with("mapper "))
        .unwrap_or_else(|| panic!("no run table: {diagnosis}"))
        .split_whitespace()
        .collect();
    let scope_runs = header.iter().position(|h| *h == "scope_runs").unwrap();
    let rows: Vec<Vec<&str>> = diagnosis
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|cells| cells.starts_with(&["Rewire", "fir", "4x4/r4"]))
        .collect();
    assert_eq!(rows.len(), 10, "{diagnosis}");
    for row in &rows {
        assert_eq!(row[scope_runs], "10", "{diagnosis}");
    }
}

#[test]
fn unknown_kernels_are_rejected() {
    let out = spawn(
        env!("CARGO_BIN_EXE_ablation"),
        &["0.02", "--kernels", "not_a_kernel"],
    );
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("matches no kernel"), "{stderr}");
}
