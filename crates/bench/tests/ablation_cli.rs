//! `repro` honours the experiment flags it parses: `--kernels` narrows
//! every selected experiment (rejecting names that match none, skipping
//! experiments it empties) and `--observe` writes one observe directory
//! with one run record per mapping run, which `rewire-doctor` reads back.

use rewire_mappers::observe;
use std::collections::BTreeSet;
use std::process::Command;

fn spawn(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rewire-{name}-{}", std::process::id()))
}

#[test]
fn ablation_variants_run_under_their_own_scopes() {
    let dir = temp_dir("ablation");
    let dir_arg = dir.to_str().unwrap();
    let out = spawn(
        env!("CARGO_BIN_EXE_repro"),
        &[
            "ablation",
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
    // The default configuration, four other cluster caps, two search
    // budgets and the single-restart setting.
    assert_eq!(records.len(), 8, "{records:#?}");
    let scopes: BTreeSet<String> = records.iter().map(|r| r.scope()).collect();
    assert_eq!(scopes.len(), 8, "one scope per variant: {scopes:?}");
    for r in &records {
        assert!(r.mapper.starts_with("Rewire:"), "{}", r.mapper);
        assert_eq!((r.kernel.as_str(), r.fabric.as_str()), ("fir", "4x4/r4"));
    }

    // The doctor prints one row per record, each its own scope's only run.
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
        .filter(|cells| cells.len() > 2 && cells[0].starts_with("Rewire:"))
        .filter(|cells| cells[1..3] == ["fir", "4x4/r4"])
        .collect();
    assert_eq!(rows.len(), 8, "{diagnosis}");
    for row in &rows {
        assert_eq!(row[scope_runs], "1", "{diagnosis}");
    }
}

#[test]
fn kernel_filter_spans_experiments_and_skips_emptied_ones() {
    // Table I's eight kernels have no `fir`: the default selection runs
    // Fig 5, Fig 6 and the verification pass on it and skips Table I.
    let dir = temp_dir("repro-fir");
    let out = spawn(
        env!("CARGO_BIN_EXE_repro"),
        &[
            "0.01",
            "--kernels",
            "fir",
            "--observe",
            dir.to_str().unwrap(),
        ],
    );
    let records = observe::load(&dir).map(|o| o.runs);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("Table I"), "{stdout}");
    assert!(stdout.contains("Placement(U) verification success rate"));
    let runs: Vec<(String, String)> = records
        .expect("the directory loads")
        .iter()
        .map(|r| (r.mapper.clone(), r.fabric.clone()))
        .collect();
    let run = |mapper: &str, fabric: &str| (mapper.to_string(), fabric.to_string());
    // Fig 5: three mappers on three 4x4 fabrics; Fig 6: three on 4x4/r2;
    // the verification pass: Rewire on 4x4/r4. Table I would add PF* and
    // SA on 4x4/r1 and 4x4/r4.
    let mut expected = Vec::new();
    for fabric in ["4x4/r4", "4x4/r2", "4x4/r1"] {
        expected.extend([run("Rewire", fabric), run("PF*", fabric), run("SA", fabric)]);
    }
    expected.extend([
        run("Rewire", "4x4/r2"),
        run("PF*", "4x4/r2"),
        run("SA", "4x4/r2"),
    ]);
    expected.push(run("Rewire", "4x4/r4"));
    assert_eq!(runs, expected);
}

#[test]
fn unknown_kernels_are_rejected() {
    let out = spawn(
        env!("CARGO_BIN_EXE_repro"),
        &["ablation", "0.02", "--kernels", "fir,not_a_kernel"],
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("matches no kernel"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
}
