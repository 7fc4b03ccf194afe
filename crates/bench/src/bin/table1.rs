//! Regenerates Table I: number of single-node remapping iterations for PF*
//! and SA on 4×4 CGRAs with one and with four registers per PE, averaged
//! per explored II.
//!
//! Usage: `cargo run -p rewire-bench --release --bin table1 [seconds_per_ii] [--jobs N] [--trace FILE] [--metrics FILE] [--kernels a,b]`

use rewire_bench::{parse_cli, print_table1, run_workloads, table1_workloads, MapperKind};

fn main() {
    let args = parse_cli(2.0);
    let (secs, jobs) = (args.seconds_per_ii, args.jobs);
    eprintln!("table1: per-II budget {secs}s per mapper, {jobs} job(s)");
    let rows = run_workloads(
        &args.filter_workloads(table1_workloads()),
        &[MapperKind::PathFinder, MapperKind::Annealing],
        secs,
        jobs,
        |row| {
            eprintln!(
                "  {} / {}: {:?}",
                row.config,
                row.kernel,
                row.results
                    .iter()
                    .map(|r| (r.mapper.as_str(), r.remap_iterations_per_ii() as u64))
                    .collect::<Vec<_>>()
            );
        },
    );
    print_table1(&rows);
    args.write_outputs(rows.iter().flat_map(|row| &row.results));
}
