//! The `ablation` binary honours the experiment flags it parses:
//! `--kernels` narrows its suite (rejecting unknown names like every other
//! experiment binary) and `--trace` writes one run record per mapping run.

use rewire_bench::obs_report::parse_records;
use std::process::Command;

fn ablation(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ablation"))
        .args(args)
        .output()
        .expect("spawn ablation")
}

#[test]
fn kernel_filter_and_trace_are_honoured() {
    let trace = std::env::temp_dir().join(format!("rewire-ablation-{}.jsonl", std::process::id()));
    let out = ablation(&[
        "0.02",
        "--jobs",
        "2",
        "--kernels",
        "fir",
        "--trace",
        trace.to_str().unwrap(),
    ]);
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

    let text = std::fs::read_to_string(&trace).expect("--trace wrote the records");
    let _ = std::fs::remove_file(&trace);
    let records = parse_records(&text).unwrap();
    // 5 cluster caps + 3 search budgets + 2 restart settings.
    assert_eq!(records.len(), 10, "{text}");
    for r in &records {
        assert_eq!(
            (r.mapper.as_str(), r.kernel.as_str(), r.fabric.as_str()),
            ("Rewire", "fir", "4x4/r4")
        );
    }
}

#[test]
fn unknown_kernels_are_rejected() {
    let out = ablation(&["0.02", "--kernels", "not_a_kernel"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("matches no kernel"), "{stderr}");
}
