//! Regenerates Fig 5: mapping quality (II) of Rewire vs PF* vs SA on the
//! paper's four CGRA configurations.
//!
//! Usage: `cargo run -p rewire-bench --release --bin fig5 [seconds_per_ii] [--jobs N] [--trace FILE] [--metrics FILE] [--kernels a,b]`

use rewire_bench::{fig5_workloads, parse_cli, print_fig5, run_workloads, MapperKind};

fn main() {
    let args = parse_cli(2.0);
    let (secs, jobs) = (args.seconds_per_ii, args.jobs);
    eprintln!("fig5: per-II budget {secs}s per mapper, {jobs} job(s)");
    let rows = run_workloads(
        &args.filter_workloads(fig5_workloads()),
        &[
            MapperKind::Rewire,
            MapperKind::PathFinder,
            MapperKind::Annealing,
        ],
        secs,
        jobs,
        |row| {
            eprintln!(
                "  {} / {}: mii={} {:?}",
                row.config,
                row.kernel,
                row.mii,
                row.results
                    .iter()
                    .map(|r| (r.mapper.as_str(), r.achieved_ii))
                    .collect::<Vec<_>>()
            );
        },
    );
    print_fig5(&rows);
    args.write_outputs(rows.iter().flat_map(|row| &row.results));
}
