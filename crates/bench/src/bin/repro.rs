//! Runs the complete reproduction (Fig 5, Fig 6, Table I) in one go and
//! prints every table plus the Rewire verification-success statistic.
//!
//! Usage: `cargo run -p rewire-bench --release --bin repro [seconds_per_ii] [--jobs N] [--trace FILE] [--metrics FILE] [--kernels a,b]`

use rewire_bench::{
    fig5_workloads, fig6_workloads, parallel_map, parse_cli, print_fig5, print_fig6, print_table1,
    run_workloads, table1_workloads, MapperKind,
};
use rewire_core::RewireMapper;
use rewire_mappers::MapLimits;
use std::time::Duration;

fn main() {
    let args = parse_cli(2.0);
    let (secs, jobs) = (args.seconds_per_ii, args.jobs);
    eprintln!("repro: per-II budget {secs}s per mapper, {jobs} job(s)");

    eprintln!("== running Fig 5 (quality) ==");
    let fig5 = run_workloads(
        &args.filter_workloads(fig5_workloads()),
        &[
            MapperKind::Rewire,
            MapperKind::PathFinder,
            MapperKind::Annealing,
        ],
        secs,
        jobs,
        |row| eprintln!("  fig5 {} / {}", row.config, row.kernel),
    );
    print_fig5(&fig5);

    eprintln!("\n== running Fig 6 (compilation time) ==");
    let fig6 = run_workloads(
        &args.filter_workloads(fig6_workloads()),
        &[
            MapperKind::Rewire,
            MapperKind::PathFinderFullBudget,
            MapperKind::Annealing,
        ],
        secs,
        jobs,
        |row| eprintln!("  fig6 {} / {}", row.config, row.kernel),
    );
    print_fig6(&fig6);

    eprintln!("\n== running Table I (iterations) ==");
    let table1 = run_workloads(
        &args.filter_workloads(table1_workloads()),
        &[MapperKind::PathFinder, MapperKind::Annealing],
        secs,
        jobs,
        |row| eprintln!("  table1 {} / {}", row.config, row.kernel),
    );
    print_table1(&table1);

    // §IV-D: verification success rate of generated Placement(U). Each
    // kernel's run is independent, so the suite fans out over the worker
    // pool; the merge happens on the main thread in input order.
    eprintln!("\n== measuring Placement(U) verification success rate ==");
    let cgra = rewire_arch::presets::paper_4x4_r4();
    let limits =
        MapLimits::benchmark().with_ii_time_budget(Duration::from_millis((secs * 1000.0) as u64));
    let suite = rewire_dfg::kernels::all();
    let per_kernel = parallel_map(&suite, jobs, |(_, dfg)| {
        let (outcome, rstats) = RewireMapper::new().map_with_stats(dfg, &cgra, &limits);
        (outcome.stats, rstats)
    });
    let mut total = rewire_core::RewireStats::default();
    for (_, rs) in &per_kernel {
        total.merge(rs);
    }
    println!(
        "\nPlacement(U) verification success rate: {:.1}% ({} / {})",
        100.0 * total.verification_success_rate(),
        total.verification_successes,
        total.verifications
    );
    println!(
        "propagation tuples generated: {} across {} cluster attempts",
        total.tuples_generated, total.clusters_attempted
    );
    let experiments = [fig5, fig6, table1];
    let rows = experiments.iter().flatten();
    args.write_outputs(
        rows.flat_map(|row| &row.results)
            .chain(per_kernel.iter().map(|(stats, _)| stats)),
    );
}
