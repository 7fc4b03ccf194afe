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
//!
//! Exit codes: 0 = the experiments ran, 2 = bad command line (an unknown
//! experiment or flag, a flag without a valid value, or a `--kernels`
//! name no selected experiment has; the usage is printed).

use rewire_bench::{parse_cli, run_workloads, EXPERIMENTS};
use rewire_mappers::observe;
use std::process::ExitCode;

fn main() -> ExitCode {
    let planned = parse_cli().and_then(|args| Ok((args.plan()?, args)));
    let (plan, args) = match planned {
        Ok(planned) => planned,
        Err(msg) => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            eprintln!(
                "repro: {msg}\nusage: repro [{}]... [seconds_per_ii] [--jobs N] [--kernels a,b] [--observe DIR]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    eprintln!("repro: {} job(s)", args.jobs);
    let mut records = Vec::new();
    for (experiment, workloads) in plan {
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
    ExitCode::SUCCESS
}
