//! Runs the reproduction's experiments and prints their tables: Fig 5
//! (`fig5`), Fig 6 (`fig6`), Table I (`table1`) and the §IV-D
//! Placement(U) verification rate (`placement`) by default, plus the
//! `ablation`, `scaling` and `mii_tightness` studies on request.
//!
//! Usage: `cargo run -p rewire-bench --release --bin repro [EXPERIMENT...] [seconds_per_ii] [--jobs N] [--kernels a,b] [--observe DIR]`
//!
//! Each experiment keeps its own per-II budget unless `seconds_per_ii` is
//! given (2 s, `ablation` 1.5 s; `mii_tightness` is cap-bound and takes
//! none). `--kernels` narrows every selected experiment and skips those it
//! empties. `--observe DIR` writes every run record, in run order, once
//! the last experiment ends.

use rewire_bench::{parse_cli, run_workloads};
use rewire_mappers::observe;

fn main() {
    let args = parse_cli();
    eprintln!("repro: {} job(s)", args.jobs);
    let mut records = Vec::new();
    for (experiment, workloads) in args.plan() {
        let budget = args.budget(experiment);
        eprintln!("\n== running {} ({budget}) ==", experiment.title);
        let rows = run_workloads(
            &workloads,
            &(experiment.mappers)(),
            budget,
            args.jobs,
            |row| {
                let runs: Vec<String> = row
                    .results
                    .iter()
                    .map(|r| {
                        let ii = r.achieved_ii.map_or("-".into(), |ii| ii.to_string());
                        format!("{} II {ii} in {:.2} s", r.mapper, r.elapsed.as_secs_f64())
                    })
                    .collect();
                eprintln!(
                    "  {} {} / {}: MII {}; {}",
                    experiment.name,
                    row.config,
                    row.kernel,
                    row.mii,
                    runs.join(", ")
                );
            },
        );
        (experiment.print)(&workloads, &rows);
        records.extend(rows.into_iter().flat_map(|row| row.results));
    }
    if let Some(dir) = &args.observe {
        observe::write(dir, &records).unwrap_or_else(|e| panic!("--observe: {e}"));
    }
}
