//! Ablations of Rewire's design choices (DESIGN.md §7), printed as tables:
//!
//! * cluster size cap α ∈ {1, 5, 10, 15, 25},
//! * Algorithm 2 search budgets (tiny verification budget vs default),
//! * amendment restarts on vs off.
//!
//! Usage: `cargo run -p rewire-bench --release --bin ablation [seconds_per_ii] [--jobs N] [--kernels a,b] [--observe DIR]`

use rewire_arch::presets;
use rewire_bench::{parallel_map, parse_cli, Workload};
use rewire_core::{RewireConfig, RewireMapper};
use rewire_dfg::{kernels, Dfg};
use rewire_mappers::{observe, MapLimits, MapStats, Mapper};
use std::time::Duration;

fn achieved(stats: &MapStats) -> String {
    stats.achieved_ii.map_or("-".into(), |ii| ii.to_string())
}

fn main() {
    let args = parse_cli(1.5);
    let (secs, jobs) = (args.seconds_per_ii, args.jobs);
    let cgra = presets::paper_4x4_r4();
    let limits =
        MapLimits::benchmark().with_ii_time_budget(Duration::from_millis((secs * 1000.0) as u64));
    // `--kernels` narrows the suite with the same unknown-name check as
    // every other experiment binary.
    let suite: Vec<Dfg> = args
        .filter_workloads(vec![Workload {
            label: "4x4 4reg",
            budget_scale: 1.0,
            cgra: cgra.clone(),
            kernels: ["gesummv", "atax", "bicg", "mvt", "fir", "viterbi"]
                .into_iter()
                .map(|name| kernels::by_name(name).expect("ablation kernels are in the suite"))
                .collect(),
        }])
        .into_iter()
        .flat_map(|w| w.kernels)
        .collect();
    let run = |config: RewireConfig, dfg: &Dfg| {
        RewireMapper::with_config(config)
            .map(dfg, &cgra, &limits)
            .stats
    };
    // Every run's record, in table order, for `--observe`.
    let mut records: Vec<MapStats> = Vec::new();

    println!("== ablation: cluster size cap α ==");
    print!("{:<10}", "kernel");
    let alphas = [1usize, 5, 10, 15, 25];
    for a in alphas {
        print!(" {:>6}", format!("α={a}"));
    }
    println!();
    // Every (kernel, variant) run is independent, so each ablation table
    // fans its cell computations out over the worker pool and prints rows
    // once all cells for the table are back (input order is preserved).
    let alpha_cells: Vec<(&Dfg, usize)> = suite
        .iter()
        .flat_map(|dfg| alphas.iter().map(move |&alpha| (dfg, alpha)))
        .collect();
    let alpha_runs = parallel_map(&alpha_cells, jobs, |&(dfg, alpha)| {
        let config = RewireConfig {
            alpha,
            initial_cluster_size: alpha.min(3),
            ..Default::default()
        };
        run(config, dfg)
    });
    for (dfg, row) in suite.iter().zip(alpha_runs.chunks(alphas.len())) {
        print!("{:<10}", dfg.name());
        for stats in row {
            print!(" {:>6}", achieved(stats));
        }
        println!();
    }
    records.extend(alpha_runs);

    println!("\n== ablation: Algorithm 2 budgets ==");
    println!(
        "{:<10} {:>8} {:>8} {:>8}",
        "kernel", "default", "verif=8", "steps=1k"
    );
    let budget_rows = parallel_map(&suite, jobs, |dfg| {
        [
            run(RewireConfig::default(), dfg),
            run(
                RewireConfig {
                    max_verifications: 8,
                    ..Default::default()
                },
                dfg,
            ),
            run(
                RewireConfig {
                    max_search_steps: 1000,
                    ..Default::default()
                },
                dfg,
            ),
        ]
    });
    for (dfg, [default, tiny_verif, tiny_steps]) in suite.iter().zip(&budget_rows) {
        println!(
            "{:<10} {:>8} {:>8} {:>8}",
            dfg.name(),
            achieved(default),
            achieved(tiny_verif),
            achieved(tiny_steps)
        );
    }
    records.extend(budget_rows.into_iter().flatten());

    println!("\n== ablation: restarts per II ==");
    println!("{:<10} {:>9} {:>9}", "kernel", "restarts", "single");
    let restart_rows = parallel_map(&suite, jobs, |dfg| {
        [
            run(RewireConfig::default(), dfg),
            run(
                RewireConfig {
                    max_restarts_per_ii: 1,
                    ..Default::default()
                },
                dfg,
            ),
        ]
    });
    for (dfg, [with, single]) in suite.iter().zip(&restart_rows) {
        println!(
            "{:<10} {:>9} {:>9}",
            dfg.name(),
            achieved(with),
            achieved(single)
        );
    }
    records.extend(restart_rows.into_iter().flatten());

    if let Some(dir) = &args.observe {
        observe::write(dir, &records).unwrap_or_else(|e| panic!("--observe: {e}"));
    }
}
