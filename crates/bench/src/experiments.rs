//! The study's experiments, one row each: its workloads, mappers, default
//! budget and printer. `repro` selects rows by name and runs each through
//! [`run_workloads`](crate::run_workloads).

use crate::mii_tightness::{render_markdown, study_mappers, study_workloads, tightness_rows};
use crate::report::{fmt_ii, print_fig5, print_fig6, print_table1};
use crate::runner::{Budget, MapperKind, Row};
use crate::workloads::{
    ablation_workloads, fig5_workloads, fig6_workloads, placement_workloads, scaling_workloads,
    table1_workloads, Workload,
};
use rewire_core::RewireConfig;
use rewire_dfg::Dfg;
use rewire_mappers::{PathFinderConfig, SaConfig};

/// One experiment of the study.
pub struct Experiment {
    /// The name `repro` selects it by.
    pub name: &'static str,
    /// What it measures, for the progress heading on stderr.
    pub title: &'static str,
    /// Its per-II budget when the command line gives no seconds.
    pub budget: Budget,
    /// The (kernel, fabric) groups it maps.
    pub workloads: fn() -> Vec<Workload>,
    /// The mappers every row runs, in column order.
    pub mappers: fn() -> Vec<MapperKind>,
    /// Prints its tables to stdout from the (filtered) workloads and the
    /// rows they produced.
    pub print: fn(&[Workload], &[Row]),
}

/// What `repro` runs when no experiment is named: the paper's Fig 5,
/// Fig 6, Table I and §IV-D verification rate.
pub const DEFAULT_EXPERIMENTS: [&str; 4] = ["fig5", "fig6", "table1", "placement"];

/// Every experiment, in the order `repro` lists them.
pub const EXPERIMENTS: [Experiment; 7] = [
    Experiment {
        name: "fig5",
        title: "Fig 5 (quality)",
        budget: Budget::Seconds(2.0),
        workloads: fig5_workloads,
        mappers: || vec![MapperKind::rewire(), pathfinder(), annealing()],
        print: |_, rows| print_fig5(rows),
    },
    Experiment {
        name: "fig6",
        title: "Fig 6 (compilation time)",
        budget: Budget::Seconds(2.0),
        workloads: fig6_workloads,
        mappers: || {
            vec![
                MapperKind::rewire(),
                MapperKind::PathFinder(PathFinderConfig {
                    use_full_budget: true,
                    ..Default::default()
                }),
                annealing(),
            ]
        },
        print: |_, rows| print_fig6(rows),
    },
    Experiment {
        name: "table1",
        title: "Table I (iterations)",
        budget: Budget::Seconds(2.0),
        workloads: table1_workloads,
        mappers: || vec![pathfinder(), annealing()],
        print: |_, rows| print_table1(rows),
    },
    Experiment {
        name: "placement",
        title: "Placement(U) verification success rate",
        budget: Budget::Seconds(2.0),
        workloads: placement_workloads,
        mappers: || vec![MapperKind::rewire()],
        print: |_, rows| print_placement(rows),
    },
    Experiment {
        name: "ablation",
        title: "ablations of Rewire's design choices",
        budget: Budget::Seconds(1.5),
        workloads: ablation_workloads,
        mappers: ablation_variants,
        print: |_, rows| print_ablation(rows),
    },
    Experiment {
        name: "scaling",
        title: "fabric scaling",
        budget: Budget::Seconds(2.0),
        workloads: scaling_workloads,
        mappers: || vec![MapperKind::rewire()],
        print: print_scaling,
    },
    Experiment {
        name: "mii_tightness",
        title: "MII tightness (exact SAT floor vs MII vs capped heuristics)",
        budget: Budget::Caps,
        workloads: study_workloads,
        mappers: study_mappers,
        print: |_, rows| print!("{}", render_markdown(&tightness_rows(rows))),
    },
];

fn pathfinder() -> MapperKind {
    MapperKind::PathFinder(PathFinderConfig::default())
}

fn annealing() -> MapperKind {
    MapperKind::Annealing(SaConfig::default())
}

/// The ablation's Rewire variants (DESIGN.md §7), each under a run-record
/// name of its own. The default configuration is mapped once: it is the
/// α = 15 cell (α 15 gives the default initial cluster size 3), the budget
/// table's `default` column and the restart table's `restarts` column.
fn ablation_variants() -> Vec<MapperKind> {
    let variant = |name, config| MapperKind::Rewire { name, config };
    vec![
        variant("Rewire:default", RewireConfig::default()),
        variant("Rewire:alpha=1", alpha(1)),
        variant("Rewire:alpha=5", alpha(5)),
        variant("Rewire:alpha=10", alpha(10)),
        variant("Rewire:alpha=25", alpha(25)),
        variant(
            "Rewire:verif=8",
            RewireConfig {
                max_verifications: 8,
                ..Default::default()
            },
        ),
        variant(
            "Rewire:steps=1k",
            RewireConfig {
                max_search_steps: 1000,
                ..Default::default()
            },
        ),
        variant(
            "Rewire:restarts=1",
            RewireConfig {
                max_restarts_per_ii: 1,
                ..Default::default()
            },
        ),
    ]
}

/// Cluster size cap `alpha`, starting from clusters of at most three.
fn alpha(alpha: usize) -> RewireConfig {
    RewireConfig {
        alpha,
        ..Default::default()
    }
}

/// Prints §IV-D's verification success rate of generated `Placement(U)`
/// over every row's Rewire runs.
fn print_placement(rows: &[Row]) {
    let mut total = rewire_core::RewireStats::default();
    for row in rows {
        total.merge(&row.rewire);
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
}

/// Prints the three ablation tables, each cell an achieved II looked up
/// by its variant's name.
fn print_ablation(rows: &[Row]) {
    let tables: [(&str, &[(&str, &str)]); 3] = [
        (
            "cluster size cap α",
            &[
                ("α=1", "Rewire:alpha=1"),
                ("α=5", "Rewire:alpha=5"),
                ("α=10", "Rewire:alpha=10"),
                ("α=15", "Rewire:default"),
                ("α=25", "Rewire:alpha=25"),
            ],
        ),
        (
            "Algorithm 2 budgets",
            &[
                ("default", "Rewire:default"),
                ("verif=8", "Rewire:verif=8"),
                ("steps=1k", "Rewire:steps=1k"),
            ],
        ),
        (
            "restarts per II",
            &[
                ("restarts", "Rewire:default"),
                ("single", "Rewire:restarts=1"),
            ],
        ),
    ];
    for (i, (title, columns)) in tables.iter().enumerate() {
        let gap = if i == 0 { "" } else { "\n" };
        println!("{gap}== ablation: {title} ==");
        print!("{:<10}", "kernel");
        for (heading, _) in *columns {
            print!(" {heading:>9}");
        }
        println!();
        for row in rows {
            print!("{:<10}", row.kernel);
            for (_, variant) in *columns {
                let stats = row
                    .results
                    .iter()
                    .find(|r| r.mapper == *variant)
                    .expect("every variant runs on every row");
                print!(" {:>9}", fmt_ii(stats.achieved_ii));
            }
            println!();
        }
    }
}

/// Prints the fabric-scaling table: map time and achieved II per rung of
/// the ladder.
fn print_scaling(workloads: &[Workload], rows: &[Row]) {
    println!("| Fabric | PEs | Kernel | Nodes | MII | II | Map time |");
    println!("|---|---|---|---|---|---|---|");
    for row in rows {
        let w = workloads
            .iter()
            .find(|w| w.label == row.config)
            .expect("every row comes from a ladder workload");
        let nodes = w
            .kernels
            .iter()
            .find(|dfg| dfg.name() == row.kernel)
            .map_or(0, Dfg::num_nodes);
        let r = &row.results[0];
        println!(
            "| {} | {} | {} | {} | {} | {} | {:.2} s |",
            row.config,
            w.cgra.num_pes(),
            row.kernel,
            nodes,
            row.mii,
            r.achieved_ii
                .map_or("fail".to_string(), |ii| ii.to_string()),
            r.elapsed.as_secs_f64(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_variants_have_distinct_scope_safe_names() {
        let names: Vec<&str> = ablation_variants()
            .iter()
            .map(|kind| match kind {
                MapperKind::Rewire { name, .. } => *name,
                other => panic!("not a Rewire variant: {other:?}"),
            })
            .collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), 8);
        for name in names {
            assert!(!name.contains([' ', '/', '@']), "{name}");
        }
        assert_eq!(
            alpha(15).alpha,
            RewireConfig::default().alpha,
            "the α=15 cell is the default configuration"
        );
    }
}
