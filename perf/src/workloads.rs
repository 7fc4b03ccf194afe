//! The workload table: which mapper maps which kernels on which fabrics,
//! under which deterministic caps, and why each workload is in the set.

use rewire::prelude::*;

/// Fig 5's 4×4 kernel list.
pub const K12: [&str; 12] = [
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
];

/// The mapper a workload runs, with its fixed configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapperKind {
    /// `PathFinderMapper::new()`: faithful early stop, 900 negotiation
    /// iterations per II.
    PathFinder,
    /// `RewireMapper` with three amendment restarts per II.
    Rewire,
    /// `ExactSatMapper` with a deterministic budget of 1000 conflicts per II.
    Exact,
}

impl MapperKind {
    /// A fresh mapper of this kind.
    pub fn build(self) -> Box<dyn Mapper> {
        match self {
            MapperKind::PathFinder => Box::new(PathFinderMapper::new()),
            MapperKind::Rewire => Box::new(RewireMapper::with_config(RewireConfig {
                max_restarts_per_ii: 3,
                ..RewireConfig::default()
            })),
            MapperKind::Exact => Box::new(ExactSatMapper::new().with_conflict_budget(1_000)),
        }
    }
}

/// One benchmark workload: every kernel of `kernels` on every fabric of
/// `fabrics`, mapped by `mapper` with `max_ii = MII + ii_slack`.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub mapper: MapperKind,
    pub ii_slack: u32,
    pub fabrics: &'static [&'static str],
    pub kernels: &'static [&'static str],
}

/// One `(fabric, kernel)` pair of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Task {
    pub fabric: &'static str,
    pub kernel: &'static str,
}

impl Task {
    /// `kernel@fabric`, the name failures and tables report.
    pub fn label(&self) -> String {
        format!("{}@{}", self.kernel, self.fabric)
    }
}

impl Workload {
    /// The tasks in pass order: fabric-major, kernels in table order.
    pub fn tasks(&self) -> Vec<Task> {
        self.fabrics
            .iter()
            .flat_map(|&fabric| {
                self.kernels
                    .iter()
                    .map(move |&kernel| Task { fabric, kernel })
            })
            .collect()
    }
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pf-4x4",
        why: "PF* on the three 4x4 paper fabrics: the negotiated-congestion router dominates map time; Rewire's amend stages and SAT are bypassed",
        mapper: MapperKind::PathFinder,
        ii_slack: 3,
        fabrics: &["4x4r4", "4x4r2", "4x4r1"],
        kernels: &K12,
    },
    Workload {
        name: "rewire-4x4",
        why: "Rewire on the Fig 6 4x4 fabric: exclusive-cost verification routes inside cluster amendment, plus propagation and enumeration",
        mapper: MapperKind::Rewire,
        ii_slack: 3,
        fabrics: &["4x4r2"],
        kernels: &K12,
    },
    Workload {
        name: "exact-4x4",
        why: "exact SAT mapper under a fixed conflict budget: CNF encoding and CDCL solving dominate; the router is bypassed",
        mapper: MapperKind::Exact,
        ii_slack: 2,
        fabrics: &["4x4r2"],
        kernels: &K12,
    },
    Workload {
        name: "rewire-mesh32",
        why: "Rewire on a 1024-PE mesh: tiered distance oracle, sparse router rows and lazy occupancy, the costs small fabrics hide",
        mapper: MapperKind::Rewire,
        ii_slack: 6,
        fabrics: &["mesh32"],
        kernels: &["atax(u)", "bicg(u)", "gesummv", "atax", "bicg", "viterbi"],
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Builds a fabric by its table name.
pub fn fabric(name: &str) -> Option<Cgra> {
    match name {
        "4x4r4" => Some(presets::paper_4x4_r4()),
        "4x4r2" => Some(presets::paper_4x4_r2()),
        "4x4r1" => Some(presets::paper_4x4_r1()),
        "mesh32" => Some(presets::mesh32()),
        _ => None,
    }
}

#[cfg(test)]
/// Whether `name` is a valid workload or metric name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn is_valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        for w in &WORKLOADS {
            assert!(is_valid_name(w.name), "{}", w.name);
            assert!(!w.why.is_empty() && w.why.len() <= 200, "{}", w.name);
            assert!(!w.why.contains('\n'), "{}", w.name);
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(!is_valid_name(""));
        assert!(!is_valid_name("-lead"));
        assert!(!is_valid_name("has space"));
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn task_counts() {
        let counts: Vec<usize> = WORKLOADS.iter().map(|w| w.tasks().len()).collect();
        assert_eq!(counts, [36, 12, 12, 6]);
        assert_eq!(
            WORKLOADS[0].tasks()[13],
            Task {
                fabric: "4x4r2",
                kernel: "ludcmp"
            }
        );
    }

    #[test]
    fn every_task_has_an_mii_on_its_fabric() {
        for w in &WORKLOADS {
            for task in w.tasks() {
                let cgra = fabric(task.fabric).expect("known fabric");
                let dfg = kernels::by_name(task.kernel).expect("known kernel");
                assert!(dfg.mii(&cgra).is_some(), "{}: {}", w.name, task.label());
            }
        }
    }
}
