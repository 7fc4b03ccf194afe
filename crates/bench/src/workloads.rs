//! The benchmark–architecture combinations of the paper's evaluation.
//!
//! The paper evaluates 47 DFG/architecture combinations over four CGRA
//! configurations, dropping combinations that none of the three mappers can
//! map (e.g. unrolled loops on register-starved fabrics) and stressing the
//! 8×8 fabric with unroll-by-2 variants.

use rewire_arch::{presets, Cgra};
use rewire_dfg::{kernels, Dfg};

/// One evaluation group: an architecture and the kernels run on it.
pub struct Workload {
    /// Figure label, e.g. `"4x4 4reg"`.
    pub label: &'static str,
    /// The architecture.
    pub cgra: Cgra,
    /// The kernels (base and unrolled variants).
    pub kernels: Vec<Dfg>,
    /// Per-II budget multiplier: the 8×8 group gets more wall-clock, like
    /// the paper's observation that "the compilation time on 8×8 CGRA is
    /// significantly higher than 4×4 CGRA due to the larger search space".
    pub budget_scale: f64,
}

fn by_names(names: &[&str]) -> Vec<Dfg> {
    names
        .iter()
        .map(|n| kernels::by_name(n).unwrap_or_else(|| panic!("unknown kernel {n}")))
        .collect()
}

/// Fig 5's four groups — 47 combinations in total (12 + 13 + 12 + 10),
/// mirroring the paper's setup: every 4×4 group runs the core suite, the
/// 8×8 group adds unrolled variants, and the one-register extreme case
/// keeps only the kernels with enough routing slack to be mappable at all.
pub fn fig5_workloads() -> Vec<Workload> {
    vec![
        Workload {
            label: "4x4 4reg",
            budget_scale: 1.0,
            cgra: presets::paper_4x4_r4(),
            kernels: by_names(&[
                "gramschmidt",
                "ludcmp",
                "lu",
                "gemver",
                "cholesky",
                "gesummv",
                "atax",
                "bicg",
                "mvt",
                "fir",
                "jacobi2d",
                "viterbi",
            ]),
        },
        Workload {
            label: "8x8 4reg",
            budget_scale: 3.0,
            cgra: presets::paper_8x8_r4(),
            kernels: by_names(&[
                "gramschmidt",
                "ludcmp",
                "lu",
                "cholesky",
                "gesummv",
                "atax",
                "bicg",
                "mvt",
                "bicg(u)",
                "gesummv(u)",
                "atax(u)",
                "mvt(u)",
                "fir(u)",
            ]),
        },
        Workload {
            label: "4x4 2reg",
            budget_scale: 1.0,
            cgra: presets::paper_4x4_r2(),
            kernels: by_names(&[
                "gramschmidt",
                "ludcmp",
                "lu",
                "gemver",
                "cholesky",
                "gesummv",
                "atax",
                "bicg",
                "mvt",
                "fir",
                "jacobi2d",
                "viterbi",
            ]),
        },
        Workload {
            label: "4x4 1reg",
            budget_scale: 1.0,
            cgra: presets::paper_4x4_r1(),
            kernels: by_names(&[
                "gramschmidt",
                "ludcmp",
                "lu",
                "gemver",
                "cholesky",
                "gesummv",
                "atax",
                "bicg",
                "mvt",
                "fir",
            ]),
        },
    ]
}

/// Fig 6's two compile-time groups: 4×4 with two registers per PE and the
/// 8×8 fabric.
pub fn fig6_workloads() -> Vec<Workload> {
    fig5_workloads()
        .into_iter()
        .filter(|w| w.label == "4x4 2reg" || w.label == "8x8 4reg")
        .collect()
}

/// The fabric-scaling ladder (`repro scaling`, EXPERIMENTS.md §scaling):
/// every fabric from 4×4 to 64×64 runs a fixed small kernel (`fir`, so the
/// fabric is the only axis that moves) plus unrolled variants sized to the
/// fabric, produced through `Dfg::unroll` via the `"<name>(uN)"` lookup.
/// Budgets grow with the search space the way the 8×8 paper group's does.
pub fn scaling_workloads() -> Vec<Workload> {
    presets::scaling_configs()
        .into_iter()
        .map(|(label, cgra)| {
            let (names, budget_scale): (&[&str], f64) = match label {
                "4x4" => (&["fir", "atax"], 1.0),
                "8x8" => (&["fir", "fir(u)", "atax(u)"], 3.0),
                "16x16" => (&["fir", "fir(u4)", "atax(u)"], 6.0),
                "32x32" => (&["fir", "fir(u)", "atax(u)"], 10.0),
                "64x64" => (&["fir", "fir(u)", "atax(u)"], 20.0),
                other => unreachable!("unknown scaling fabric {other}"),
            };
            Workload {
                label,
                cgra,
                kernels: by_names(names),
                budget_scale,
            }
        })
        .collect()
}

/// Table I's two groups (4×4 with four registers and with one register) and
/// its eight kernels.
pub fn table1_workloads() -> Vec<Workload> {
    let names = [
        "gramschmidt",
        "ludcmp",
        "lu",
        "gemver",
        "cholesky",
        "gesummv",
        "atax",
        "bicg(u)",
    ];
    vec![
        Workload {
            label: "4x4 1reg",
            budget_scale: 1.0,
            cgra: presets::paper_4x4_r1(),
            kernels: by_names(&names),
        },
        Workload {
            label: "4x4 4reg",
            budget_scale: 1.0,
            cgra: presets::paper_4x4_r4(),
            kernels: by_names(&names),
        },
    ]
}

/// §IV-D's verification-rate pass: the whole suite on the paper's 4×4
/// fabric with four registers per PE.
pub fn placement_workloads() -> Vec<Workload> {
    vec![Workload {
        label: "4x4 4reg",
        budget_scale: 1.0,
        cgra: presets::paper_4x4_r4(),
        kernels: kernels::all().into_iter().map(|(_, dfg)| dfg).collect(),
    }]
}

/// The ablation's six kernels (DESIGN.md §7) on the paper's 4×4 fabric
/// with four registers per PE.
pub fn ablation_workloads() -> Vec<Workload> {
    vec![Workload {
        label: "4x4 4reg",
        budget_scale: 1.0,
        cgra: presets::paper_4x4_r4(),
        kernels: by_names(&["gesummv", "atax", "bicg", "mvt", "fir", "viterbi"]),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_has_47_combinations() {
        let total: usize = fig5_workloads().iter().map(|w| w.kernels.len()).sum();
        assert_eq!(total, 47);
    }

    #[test]
    fn every_workload_kernel_has_a_mii() {
        for w in fig5_workloads() {
            for dfg in &w.kernels {
                assert!(
                    dfg.mii(&w.cgra).is_some(),
                    "{} on {}: no MII",
                    dfg.name(),
                    w.label
                );
            }
        }
    }

    #[test]
    fn fig6_uses_the_papers_two_configs() {
        let labels: Vec<_> = fig6_workloads().iter().map(|w| w.label).collect();
        assert_eq!(labels, vec!["8x8 4reg", "4x4 2reg"]);
    }

    #[test]
    fn scaling_ladder_covers_4x4_through_64x64() {
        let workloads = scaling_workloads();
        let labels: Vec<_> = workloads.iter().map(|w| w.label).collect();
        assert_eq!(labels, vec!["4x4", "8x8", "16x16", "32x32", "64x64"]);
        for w in &workloads {
            for dfg in &w.kernels {
                assert!(
                    dfg.mii(&w.cgra).is_some(),
                    "{} on {}: no MII",
                    dfg.name(),
                    w.label
                );
            }
        }
    }

    #[test]
    fn table1_has_eight_kernels_per_config() {
        for w in table1_workloads() {
            assert_eq!(w.kernels.len(), 8, "{}", w.label);
        }
    }
}
