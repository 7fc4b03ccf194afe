//! Runs mappers over workloads and collects result rows.

use crate::workloads::Workload;
use rewire_core::RewireMapper;
use rewire_mappers::{MapLimits, MapStats, Mapper, PathFinderConfig, PathFinderMapper, SaMapper};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// The three mappers of the evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapperKind {
    /// The paper's contribution.
    Rewire,
    /// PathFinder-style baseline, faithful early termination.
    PathFinder,
    /// PathFinder-style baseline consuming the full per-II budget with
    /// randomised restarts (the equal-budget compile-time setup).
    PathFinderFullBudget,
    /// Simulated-annealing baseline (re-anneals until the budget).
    Annealing,
}

impl MapperKind {
    /// Instantiates the mapper.
    pub fn build(self) -> Box<dyn Mapper> {
        match self {
            MapperKind::Rewire => Box::new(RewireMapper::new()),
            MapperKind::PathFinder => Box::new(PathFinderMapper::new()),
            MapperKind::PathFinderFullBudget => {
                Box::new(PathFinderMapper::with_config(PathFinderConfig {
                    use_full_budget: true,
                    ..Default::default()
                }))
            }
            MapperKind::Annealing => Box::new(SaMapper::new()),
        }
    }
}

/// One row of an experiment: a kernel on an architecture, with all mappers'
/// run records.
#[derive(Clone, Debug)]
pub struct Row {
    /// Architecture label.
    pub config: &'static str,
    /// Kernel name.
    pub kernel: String,
    /// Theoretical minimum II.
    pub mii: u32,
    /// Per-mapper run records, in the order the mappers were passed.
    pub results: Vec<MapStats>,
}

/// One `(kernel, architecture, mapper)` unit of work for the fan-out.
struct Task<'a> {
    row: usize,
    slot: usize,
    kind: MapperKind,
    dfg: &'a rewire_dfg::Dfg,
    cgra: &'a rewire_arch::Cgra,
    label: &'static str,
    limits: MapLimits,
}

impl Task<'_> {
    fn run(&self) -> MapStats {
        let outcome = self.kind.build().map(self.dfg, self.cgra, &self.limits);
        if let Some(m) = &outcome.mapping {
            assert!(
                m.is_valid(self.dfg, self.cgra),
                "{} on {}",
                self.dfg.name(),
                self.label
            );
        }
        outcome.stats
    }
}

/// Runs every `(kernel, architecture)` combination of `workloads` through
/// `mappers` with the given per-II budget on `jobs` OS threads, calling
/// `progress` after each row (for live output).
///
/// Work is pulled from a shared atomic index, so thread scheduling decides
/// only *who* runs a combination — each combination itself is mapped with
/// exactly the same limits and seed as with `jobs = 1`, and the returned
/// rows are assembled in the serial order regardless of completion order.
/// `progress` fires on the calling thread as rows *complete*, which under
/// `jobs > 1` may be out of row order.
pub fn run_workloads(
    workloads: &[Workload],
    mappers: &[MapperKind],
    seconds_per_ii: f64,
    jobs: usize,
    mut progress: impl FnMut(&Row),
) -> Vec<Row> {
    // Flatten into row skeletons (one per kernel × architecture) and
    // per-mapper tasks, preserving the serial iteration order.
    let mut skeletons: Vec<Row> = Vec::new();
    let mut tasks: Vec<Task> = Vec::new();
    for w in workloads {
        let limits = MapLimits::benchmark().with_ii_time_budget(Duration::from_millis(
            (seconds_per_ii * w.budget_scale * 1000.0) as u64,
        ));
        for dfg in &w.kernels {
            let Some(mii) = dfg.mii(&w.cgra) else {
                continue;
            };
            let row = skeletons.len();
            skeletons.push(Row {
                config: w.label,
                kernel: dfg.name().to_string(),
                mii,
                results: Vec::new(),
            });
            for (slot, &kind) in mappers.iter().enumerate() {
                tasks.push(Task {
                    row,
                    slot,
                    kind,
                    dfg,
                    cgra: &w.cgra,
                    label: w.label,
                    limits,
                });
            }
        }
    }

    if jobs <= 1 {
        // Serial path: run in order, fire progress per finished row.
        for task in &tasks {
            let result = task.run();
            skeletons[task.row].results.push(result);
            if skeletons[task.row].results.len() == mappers.len() {
                progress(&skeletons[task.row]);
            }
        }
        return skeletons;
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, MapStats)>();
    let mut slots: Vec<Vec<Option<MapStats>>> = vec![vec![None; mappers.len()]; skeletons.len()];
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(tasks.len().max(1)) {
            let tx = tx.clone();
            let next = &next;
            let tasks = &tasks;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                if tx.send((i, task.run())).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Collect on the calling thread; fire progress as rows fill up.
        for (i, result) in rx {
            let task = &tasks[i];
            slots[task.row][task.slot] = Some(result);
            if slots[task.row].iter().all(Option::is_some) {
                let results: Vec<MapStats> = slots[task.row]
                    .iter_mut()
                    .map(|s| s.take().expect("slot just checked full"))
                    .collect();
                skeletons[task.row].results = results;
                progress(&skeletons[task.row]);
            }
        }
    });
    skeletons
}

/// Applies `f` to every item on `jobs` threads, returning results in input
/// order. With `jobs <= 1` this is a plain serial map. Used by the
/// experiment binaries for coarse-grained fan-out of independent mapper
/// runs (each item's computation must not depend on the others).
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()) {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if tx.send((i, f(item))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in rx {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every index visited exactly once"))
        .collect()
}

/// Parsed common experiment-binary CLI options.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArgs {
    /// Per-II wall-clock budget in seconds.
    pub seconds_per_ii: f64,
    /// Worker threads for the workload fan-out (`--jobs N`, default 1).
    pub jobs: usize,
    /// Kernel-name filter (`--kernels a,b,c`): restrict every workload to
    /// the named kernels. `None` runs the full suite.
    pub kernels: Option<Vec<String>>,
    /// Observe directory (`--observe DIR`), if requested: the binary
    /// writes its run records and the collectors' output there with
    /// [`rewire_mappers::observe::write`] when the experiment ends.
    pub observe: Option<PathBuf>,
}

impl BenchArgs {
    /// Applies the `--kernels` filter to a workload list: every workload
    /// keeps only the named kernels, and workloads left empty are dropped.
    /// Panics when a requested name matches no kernel anywhere — a typo'd
    /// filter should fail loudly, not silently run nothing.
    pub fn filter_workloads(&self, workloads: Vec<Workload>) -> Vec<Workload> {
        let Some(keep) = &self.kernels else {
            return workloads;
        };
        let mut matched: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let filtered: Vec<Workload> = workloads
            .into_iter()
            .filter_map(|mut w| {
                w.kernels.retain(|dfg| {
                    keep.iter().any(|k| {
                        let hit = k == dfg.name();
                        if hit {
                            matched.insert(dfg.name().to_string());
                        }
                        hit
                    })
                });
                (!w.kernels.is_empty()).then_some(w)
            })
            .collect();
        for k in keep {
            assert!(
                matched.contains(k),
                "--kernels: `{k}` matches no kernel in this experiment"
            );
        }
        filtered
    }
}

/// Parses the common experiment-binary CLI: an optional positional per-II
/// budget in seconds plus optional `--jobs N` (or `--jobs=N`),
/// `--kernels a,b` (or `--kernels=a,b`) and `--observe DIR` (or
/// `--observe=DIR`) flags. Every mapper routes with the one pruned, tree
/// fan-out router; there is no mode to pick.
///
/// With `--observe`, switches the flight recorder and Chrome collector on
/// before returning.
pub fn parse_cli(default_secs: f64) -> BenchArgs {
    let parsed = parse_cli_from(std::env::args().skip(1), default_secs);
    if parsed.observe.is_some() {
        rewire_mappers::observe::enable_collectors();
    }
    parsed
}

fn parse_cli_from(args: impl IntoIterator<Item = String>, default_secs: f64) -> BenchArgs {
    let mut parsed = BenchArgs {
        seconds_per_ii: default_secs,
        jobs: 1,
        kernels: None,
        observe: None,
    };
    let parse_kernels = |v: &str| {
        v.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            parsed.jobs = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--jobs needs a positive integer");
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            parsed.jobs = v.parse().expect("--jobs needs a positive integer");
        } else if arg == "--observe" {
            parsed.observe = Some(args.next().expect("--observe needs a directory").into());
        } else if let Some(v) = arg.strip_prefix("--observe=") {
            parsed.observe = Some(v.into());
        } else if arg == "--kernels" {
            parsed.kernels = Some(parse_kernels(
                &args.next().expect("--kernels needs a comma-separated list"),
            ));
        } else if let Some(v) = arg.strip_prefix("--kernels=") {
            parsed.kernels = Some(parse_kernels(v));
        } else if let Ok(v) = arg.parse::<f64>() {
            parsed.seconds_per_ii = v;
        } else {
            panic!(
                "unrecognised argument {arg:?} (expected [seconds_per_ii] [--jobs N] [--kernels a,b] [--observe DIR])"
            );
        }
    }
    parsed.jobs = parsed.jobs.max(1);
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use rewire_arch::presets;
    use rewire_dfg::kernels;

    #[test]
    fn runner_produces_one_row_per_combination() {
        let w = Workload {
            label: "test",
            budget_scale: 1.0,
            cgra: presets::paper_4x4_r4(),
            kernels: vec![kernels::fir(), kernels::atax()],
        };
        let mut seen = 0;
        let rows = run_workloads(&[w], &[MapperKind::PathFinder], 0.3, 1, |_| seen += 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(seen, 2);
        for row in &rows {
            assert_eq!(row.results.len(), 1);
            let record = &row.results[0];
            assert_eq!(record.mapper, "PF*");
            assert_eq!(record.kernel, row.kernel);
            assert_eq!(record.fabric, "4x4/r4");
            assert_eq!(record.seed, MapLimits::benchmark().seed);
            assert_eq!(record.mii, row.mii);
            assert!(row.mii >= 1);
        }
    }

    #[test]
    fn parallel_runner_matches_serial() {
        // Kernels that map at their first feasible II under a budget far
        // larger than they need, so attempt caps bind instead of the
        // wall-clock deadline — the documented precondition (DESIGN.md
        // §6b) for jobs-independent achieved IIs. Deadline-bound kernels
        // (e.g. fir/atax at a tight budget) are NOT stable under 4-way
        // contention on a small machine.
        let mk = || Workload {
            label: "test",
            budget_scale: 1.0,
            cgra: presets::paper_4x4_r4(),
            kernels: vec![
                kernels::by_name("bicg").unwrap(),
                kernels::by_name("mvt").unwrap(),
            ],
        };
        let serial = run_workloads(&[mk()], &[MapperKind::PathFinder], 60.0, 1, |_| {});
        let mut seen = 0;
        let parallel = run_workloads(&[mk()], &[MapperKind::PathFinder], 60.0, 4, |_| seen += 1);
        assert_eq!(seen, serial.len());
        assert_eq!(parallel.len(), serial.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.config, p.config);
            assert_eq!(s.kernel, p.kernel, "row order is the serial order");
            assert_eq!(s.mii, p.mii);
            assert_eq!(s.results.len(), p.results.len());
            for (sr, pr) in s.results.iter().zip(&p.results) {
                assert_eq!(sr.mapper, pr.mapper);
                assert_eq!(sr.achieved_ii, pr.achieved_ii);
            }
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..40).collect();
        let doubled = parallel_map(&items, 8, |&x| 2 * x);
        assert_eq!(doubled, (0..40).map(|x| 2 * x).collect::<Vec<_>>());
        let serial = parallel_map(&items, 1, |&x| 2 * x);
        assert_eq!(doubled, serial);
    }

    #[test]
    fn cli_parsing_accepts_secs_jobs_and_observe() {
        let arg = |s: &str| s.to_string();
        let base = parse_cli_from([], 2.0);
        assert_eq!(base.seconds_per_ii, 2.0);
        assert_eq!(base.jobs, 1);
        assert_eq!(base.observe, None);
        assert_eq!(parse_cli_from([arg("0.5")], 2.0).seconds_per_ii, 0.5);
        assert_eq!(parse_cli_from([arg("--jobs"), arg("4")], 2.0).jobs, 4);
        let combined = parse_cli_from([arg("--jobs=8"), arg("1.5")], 2.0);
        assert_eq!(combined.jobs, 8);
        assert_eq!(combined.seconds_per_ii, 1.5);
        assert_eq!(parse_cli_from([arg("--jobs=0")], 2.0).jobs, 1, "clamped");
        assert_eq!(
            parse_cli_from([arg("--observe"), arg("obs")], 2.0).observe,
            Some(PathBuf::from("obs"))
        );
        assert_eq!(
            parse_cli_from([arg("--observe=out/obs")], 2.0).observe,
            Some(PathBuf::from("out/obs"))
        );
    }

    #[test]
    #[should_panic(expected = "unrecognised argument")]
    fn cli_parsing_rejects_junk() {
        parse_cli_from(["--frobnicate".to_string()], 2.0);
    }

    #[test]
    fn cli_parsing_accepts_kernels() {
        let arg = |s: &str| s.to_string();
        assert_eq!(parse_cli_from([], 2.0).kernels, None);
        assert_eq!(
            parse_cli_from([arg("--kernels"), arg("fir,atax")], 2.0).kernels,
            Some(vec!["fir".to_string(), "atax".to_string()])
        );
        assert_eq!(
            parse_cli_from([arg("--kernels=fir, atax,")], 2.0).kernels,
            Some(vec!["fir".to_string(), "atax".to_string()]),
            "whitespace and empty segments are dropped"
        );
    }

    #[test]
    fn kernel_filter_restricts_workloads() {
        let args = parse_cli_from(["--kernels=fir".to_string()], 2.0);
        let w = Workload {
            label: "test",
            budget_scale: 1.0,
            cgra: presets::paper_4x4_r4(),
            kernels: vec![kernels::fir(), kernels::atax()],
        };
        let only_atax = Workload {
            label: "other",
            budget_scale: 1.0,
            cgra: presets::paper_4x4_r4(),
            kernels: vec![kernels::atax()],
        };
        let filtered = args.filter_workloads(vec![w, only_atax]);
        assert_eq!(filtered.len(), 1, "emptied workloads are dropped");
        assert_eq!(filtered[0].kernels.len(), 1);
        assert_eq!(filtered[0].kernels[0].name(), "fir");
    }

    #[test]
    #[should_panic(expected = "matches no kernel")]
    fn kernel_filter_rejects_typos() {
        let args = parse_cli_from(["--kernels=not_a_kernel".to_string()], 2.0);
        let w = Workload {
            label: "test",
            budget_scale: 1.0,
            cgra: presets::paper_4x4_r4(),
            kernels: vec![kernels::fir()],
        };
        args.filter_workloads(vec![w]);
    }

    #[test]
    fn mapper_kinds_build_under_their_table_names() {
        let names: Vec<&str> = [
            MapperKind::Rewire,
            MapperKind::PathFinder,
            MapperKind::PathFinderFullBudget,
            MapperKind::Annealing,
        ]
        .into_iter()
        .map(|kind| kind.build().name())
        .collect();
        assert_eq!(names, ["Rewire", "PF*", "PF*", "SA"]);
    }
}
