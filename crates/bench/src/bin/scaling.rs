//! The fabric-scaling curve: map time and achieved II as the fabric grows
//! from 4×4 to 64×64 (EXPERIMENTS.md §scaling). Each rung of the ladder
//! maps `fir` plus unrolled variants sized to the fabric, all with the
//! Rewire mapper, and the table reports the distance-oracle tier and heap
//! footprint alongside so the dense→tiered switch at 256 PEs is visible.
//!
//! `--smoke` runs the CI large-fabric gate instead: map a few kernels on
//! the 32×32 mesh, require every one to succeed within the budget, and
//! require the peak `router.distance_table_bytes` gauge to stay under a
//! pinned cap (2 MB — the dense table on 32×32 alone is 4.2 MB, so a
//! regression to the dense tier past [`DENSE_PE_LIMIT`] trips it).
//!
//! Usage: `cargo run -p rewire-bench --release --bin scaling [seconds_per_ii] [--smoke] [--jobs N] [--trace FILE] [--metrics FILE]`
//!
//! [`DENSE_PE_LIMIT`]: rewire_mrrg::DistanceOracle

use rewire_bench::{run_workloads, scaling_workloads, write_trace, MapperKind, Row, Workload};
use rewire_dfg::kernels;
use rewire_mrrg::DistanceOracle;
use std::process::exit;

/// Peak summed `router.distance_table_bytes` allowed in smoke mode. The
/// tiered oracle on the 32×32 mesh is ~131 KB per worker thread; the dense
/// table it replaced is 4.2 MB, so even one thread regressing to dense
/// blows through this cap.
const SMOKE_ORACLE_CAP_BYTES: i64 = 2_000_000;

struct Args {
    smoke: bool,
    seconds_per_ii: Option<f64>,
    jobs: usize,
    trace: Option<String>,
    metrics: Option<String>,
}

/// Hand-rolled CLI: the shared `parse_cli` rejects flags it does not know,
/// and `--smoke` is specific to this binary.
fn parse_args(mut args: impl Iterator<Item = String>) -> Args {
    let mut parsed = Args {
        smoke: false,
        seconds_per_ii: None,
        jobs: 1,
        trace: None,
        metrics: None,
    };
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            parsed.smoke = true;
        } else if arg == "--jobs" {
            parsed.jobs = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--jobs needs a positive integer");
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            parsed.jobs = v.parse().expect("--jobs needs a positive integer");
        } else if arg == "--trace" {
            parsed.trace = Some(args.next().expect("--trace needs a file path"));
        } else if let Some(v) = arg.strip_prefix("--trace=") {
            parsed.trace = Some(v.to_string());
        } else if arg == "--metrics" {
            parsed.metrics = Some(args.next().expect("--metrics needs a file path"));
        } else if let Some(v) = arg.strip_prefix("--metrics=") {
            parsed.metrics = Some(v.to_string());
        } else if let Ok(v) = arg.parse::<f64>() {
            parsed.seconds_per_ii = Some(v);
        } else {
            panic!(
                "unrecognised argument {arg:?} (expected [seconds_per_ii] [--smoke] [--jobs N] [--trace FILE] [--metrics FILE])"
            );
        }
    }
    parsed.jobs = parsed.jobs.max(1);
    parsed
}

fn write_metrics(path: &str) {
    let mut json = rewire_obs::metrics().snapshot().to_json();
    json.push('\n');
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write metrics file {path}: {e}"));
    eprintln!("metrics written to {path}");
}

/// Max `router.distance_table_bytes` over every metric scope. Gauges sum
/// per-thread values, so under `--jobs` fan-out this over-counts shared
/// oracles — fine for a cap: the bound is conservative.
fn peak_oracle_bytes() -> Option<i64> {
    rewire_obs::metrics()
        .snapshot()
        .scopes
        .values()
        .filter_map(|s| s.gauges.get("router.distance_table_bytes").copied())
        .max()
}

/// Maps the smoke kernels on the 32×32 mesh.
fn run_smoke(secs: f64, jobs: usize) -> Vec<Row> {
    let by = |n: &str| kernels::by_name(n).unwrap_or_else(|| panic!("unknown kernel {n}"));
    let workload = Workload {
        label: "32x32",
        budget_scale: 1.0,
        cgra: rewire_arch::presets::mesh32(),
        kernels: vec![by("fir"), by("atax"), by("fir(u)")],
    };
    eprintln!("scaling --smoke: 3 kernels on 32x32, {secs}s per II, {jobs} job(s)");
    run_workloads(&[workload], &[MapperKind::Rewire], secs, jobs, |row| {
        eprintln!(
            "  {} / {}: II {:?} in {:?}",
            row.config, row.kernel, row.results[0].achieved_ii, row.results[0].elapsed
        );
    })
}

/// The smoke gate: every kernel mapped and the peak oracle footprint
/// stayed under [`SMOKE_ORACLE_CAP_BYTES`]. Returns that peak.
fn check_smoke(rows: &[Row]) -> Result<i64, String> {
    let failed: Vec<&str> = rows
        .iter()
        .filter(|r| r.results[0].achieved_ii.is_none())
        .map(|r| r.kernel.as_str())
        .collect();
    if !failed.is_empty() {
        return Err(format!("no mapping within budget for {failed:?}"));
    }
    let peak = peak_oracle_bytes()
        .ok_or("router.distance_table_bytes gauge never published".to_string())?;
    if peak > SMOKE_ORACLE_CAP_BYTES {
        return Err(format!(
            "peak router.distance_table_bytes = {peak} \
             exceeds the {SMOKE_ORACLE_CAP_BYTES}-byte cap (dense-tier regression?)"
        ));
    }
    Ok(peak)
}

fn run_curve(secs: f64, jobs: usize) -> Vec<Row> {
    let workloads = scaling_workloads();
    // Fabric-level facts the result rows don't carry: PE count and the
    // distance-oracle tier/footprint for each rung of the ladder.
    let fabric: Vec<(&'static str, usize, &'static str, usize)> = workloads
        .iter()
        .map(|w| {
            let oracle = DistanceOracle::build(&w.cgra);
            let tier = if oracle.is_exact() { "dense" } else { "tiered" };
            (w.label, w.cgra.num_pes(), tier, oracle.heap_bytes())
        })
        .collect();
    eprintln!("scaling: {secs}s per II (scaled per fabric), {jobs} job(s)");
    let rows = run_workloads(&workloads, &[MapperKind::Rewire], secs, jobs, |row| {
        eprintln!(
            "  {} / {}: II {:?} in {:?}",
            row.config, row.kernel, row.results[0].achieved_ii, row.results[0].elapsed
        );
    });
    println!("| Fabric | PEs | Oracle | Oracle heap | Kernel | Nodes | MII | II | Map time |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for row in &rows {
        let &(_, pes, tier, bytes) = fabric
            .iter()
            .find(|(label, ..)| *label == row.config)
            .expect("every row comes from a ladder workload");
        let nodes = kernels::by_name(&row.kernel).map_or(0, |d| d.num_nodes());
        let r = &row.results[0];
        let ii = r
            .achieved_ii
            .map_or("fail".to_string(), |ii| ii.to_string());
        println!(
            "| {} | {} | {} | {:.1} KB | {} | {} | {} | {} | {:.2} s |",
            row.config,
            pes,
            tier,
            bytes as f64 / 1024.0,
            row.kernel,
            nodes,
            row.mii,
            ii,
            r.elapsed.as_secs_f64(),
        );
    }
    rows
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    let rows = if args.smoke {
        run_smoke(args.seconds_per_ii.unwrap_or(10.0), args.jobs)
    } else {
        run_curve(args.seconds_per_ii.unwrap_or(2.0), args.jobs)
    };
    if let Some(path) = &args.trace {
        write_trace(path, rows.iter().flat_map(|row| &row.results));
    }
    if let Some(path) = &args.metrics {
        write_metrics(path);
    }
    if args.smoke {
        match check_smoke(&rows) {
            Ok(peak) => eprintln!(
                "scaling --smoke OK: all kernels mapped, peak oracle bytes {peak} <= {SMOKE_ORACLE_CAP_BYTES}"
            ),
            Err(e) => {
                eprintln!("scaling --smoke FAILED: {e}");
                exit(1);
            }
        }
    }
}
