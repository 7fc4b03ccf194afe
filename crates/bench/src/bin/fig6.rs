//! Regenerates Fig 6: compilation time on the 4×4/2-reg and 8×8/4-reg
//! fabrics under equal per-II budgets (every mapper may consume its whole
//! budget at a failing II; see DESIGN.md §2 on the wall-clock
//! substitution).
//!
//! Usage: `cargo run -p rewire-bench --release --bin fig6 [seconds_per_ii] [--jobs N] [--trace FILE] [--metrics FILE] [--kernels a,b]`

use rewire_bench::{fig6_workloads, parse_cli, print_fig6, run_workloads, MapperKind};

fn main() {
    let args = parse_cli(2.0);
    let (secs, jobs) = (args.seconds_per_ii, args.jobs);
    eprintln!("fig6: per-II budget {secs}s per mapper (equal-budget mode), {jobs} job(s)");
    let rows = run_workloads(
        &args.filter_workloads(fig6_workloads()),
        &[
            MapperKind::Rewire,
            MapperKind::PathFinderFullBudget,
            MapperKind::Annealing,
        ],
        secs,
        jobs,
        |row| {
            eprintln!(
                "  {} / {}: {:?}",
                row.config,
                row.kernel,
                row.results
                    .iter()
                    .map(|r| (r.mapper.as_str(), r.elapsed))
                    .collect::<Vec<_>>()
            );
        },
    );
    print_fig6(&rows);
    args.write_outputs(rows.iter().flat_map(|row| &row.results));
}
