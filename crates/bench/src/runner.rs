//! Runs mappers over workloads and collects result rows, and parses the
//! `repro` command line that selects them.

use crate::experiments::{Experiment, DEFAULT_EXPERIMENTS, EXPERIMENTS};
use crate::workloads::Workload;
use rewire_arch::Cgra;
use rewire_core::{RewireConfig, RewireMapper, RewireStats};
use rewire_dfg::Dfg;
use rewire_mappers::{
    ExactSatMapper, IiSearch, MapLimits, MapOutcome, MapStats, Mapper, PathFinderConfig,
    PathFinderMapper, SaConfig, SaMapper,
};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// A mapper of the evaluation under the configuration its experiment sets.
#[derive(Clone, Debug)]
pub enum MapperKind {
    /// Rewire under `config`, recorded as `name`: `"Rewire"` for the
    /// paper's mapper, a name of its own (no spaces, `/` or `@`) for an
    /// ablation variant, so that every variant has its own metric scope.
    Rewire {
        /// Mapper name in the run record and its metric scope.
        name: &'static str,
        /// The variant's configuration.
        config: RewireConfig,
    },
    /// The PF* baseline (`use_full_budget` for Fig 6's equal budgets).
    PathFinder(PathFinderConfig),
    /// The simulated-annealing baseline.
    Annealing(SaConfig),
    /// The exact SAT backend under a conflict budget per II.
    Exact(u64),
}

impl MapperKind {
    /// The paper's Rewire mapper under its default configuration.
    pub fn rewire() -> Self {
        MapperKind::Rewire {
            name: "Rewire",
            config: RewireConfig::default(),
        }
    }

    /// Maps `dfg`, returning the outcome and, for Rewire, its Algorithm 2
    /// tallies (zero for the other mappers).
    fn run(&self, dfg: &Dfg, cgra: &Cgra, limits: &MapLimits) -> (MapOutcome, RewireStats) {
        let mapped = |mapper: &dyn Mapper| (mapper.map(dfg, cgra, limits), RewireStats::default());
        match self {
            MapperKind::Rewire { name, config } => {
                let mapper = RewireMapper::with_config(config.clone());
                let mut attempt = mapper.ii_attempt(limits);
                let outcome = IiSearch::new(name).run(dfg, cgra, limits, &mut attempt);
                (outcome, attempt.rstats)
            }
            MapperKind::PathFinder(config) => {
                mapped(&PathFinderMapper::with_config(config.clone()))
            }
            MapperKind::Annealing(config) => mapped(&SaMapper::with_config(config.clone())),
            MapperKind::Exact(conflicts) => {
                mapped(&ExactSatMapper::new().with_conflict_budget(*conflicts))
            }
        }
    }
}

/// How long each II of a run may search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Wall-clock seconds per II per mapper, scaled by the workload's
    /// `budget_scale`, under [`MapLimits::benchmark`].
    Seconds(f64),
    /// Cap-bound: the [MII-tightness study](crate::mii_tightness)'s
    /// limits — II ceiling MII + [`EXTRA_II`](crate::mii_tightness::EXTRA_II),
    /// a fixed seed, and a per-II wall clock that never binds, so every
    /// search ends on its mapper's own caps.
    Caps,
}

impl std::fmt::Display for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Budget::Seconds(secs) => write!(f, "{secs} s per II"),
            Budget::Caps => f.write_str("cap-bound"),
        }
    }
}

impl Budget {
    fn limits(self, workload: &Workload, mii: u32) -> MapLimits {
        match self {
            Budget::Seconds(secs) => MapLimits::benchmark().with_ii_time_budget(
                Duration::from_millis((secs * workload.budget_scale * 1000.0) as u64),
            ),
            Budget::Caps => crate::mii_tightness::study_limits(mii),
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
    /// Algorithm 2's tallies summed over the row's Rewire runs (§IV-D's
    /// verification rate).
    pub rewire: RewireStats,
}

/// Runs every `(kernel, architecture)` combination of `workloads` through
/// `mappers` under `budget` on `jobs` OS threads, calling `progress` as
/// each row completes (for live output).
///
/// Each row is one [`parallel_map`] item, so thread scheduling decides
/// only *who* maps a row — every run uses exactly the limits and seed it
/// gets with `jobs = 1`, and the rows come back in the serial order.
/// `progress` may fire out of row order under `jobs > 1`. Kernels without
/// an MII on their fabric are skipped.
pub fn run_workloads(
    workloads: &[Workload],
    mappers: &[MapperKind],
    budget: Budget,
    jobs: usize,
    progress: impl FnMut(&Row) + Send,
) -> Vec<Row> {
    let cells: Vec<(&Workload, &Dfg, u32)> = workloads
        .iter()
        .flat_map(|w| {
            w.kernels
                .iter()
                .filter_map(move |dfg| Some((w, dfg, dfg.mii(&w.cgra)?)))
        })
        .collect();
    let progress = Mutex::new(progress);
    parallel_map(&cells, jobs, |&(w, dfg, mii)| {
        let limits = budget.limits(w, mii);
        let mut rewire = RewireStats::default();
        let results = mappers
            .iter()
            .map(|kind| {
                let (outcome, rstats) = kind.run(dfg, &w.cgra, &limits);
                if let Some(m) = &outcome.mapping {
                    assert!(m.is_valid(dfg, &w.cgra), "{} on {}", dfg.name(), w.label);
                }
                rewire.merge(&rstats);
                outcome.stats
            })
            .collect();
        let row = Row {
            config: w.label,
            kernel: dfg.name().to_string(),
            mii,
            results,
            rewire,
        };
        (progress.lock().expect("a progress callback panicked"))(&row);
        row
    })
}

/// Applies `f` to every item on `jobs` threads, returning results in input
/// order. With `jobs <= 1` this is a plain serial map. The one worker pool
/// of the experiments and the fuzzer (each item's computation must not
/// depend on the others).
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

/// The parsed `repro` command line.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArgs {
    /// The experiments to run, in command-line order (default: Fig 5,
    /// Fig 6, Table I and the §IV-D verification rate).
    pub experiments: Vec<&'static str>,
    /// Per-II wall-clock budget in seconds; `None` keeps each experiment's
    /// own default. Cap-bound experiments take none.
    pub seconds_per_ii: Option<f64>,
    /// Worker threads for the row fan-out (`--jobs N`, default 1).
    pub jobs: usize,
    /// Kernel-name filter (`--kernels a,b,c`): restrict every experiment to
    /// the named kernels. `None` runs the full suites.
    pub kernels: Option<Vec<String>>,
    /// Observe directory (`--observe DIR`), if requested: `repro` writes
    /// every run record and the collectors' output there with
    /// [`rewire_mappers::observe::write`] once the last experiment ends.
    pub observe: Option<PathBuf>,
}

impl BenchArgs {
    /// The selected experiments with their workloads narrowed by
    /// `--kernels`: every workload keeps only the named kernels, and
    /// workloads and experiments left empty are dropped.
    ///
    /// # Errors
    ///
    /// A `--kernels` name that matches no kernel of any selected
    /// experiment, so a typo'd filter fails loudly instead of silently
    /// running nothing.
    pub fn plan(&self) -> Result<Vec<(&'static Experiment, Vec<Workload>)>, String> {
        let planned = self
            .experiments
            .iter()
            .map(|name| {
                let e = EXPERIMENTS
                    .iter()
                    .find(|e| e.name == *name)
                    .expect("parsed names are experiments");
                (e, (e.workloads)())
            })
            .collect();
        filter_workloads(self.kernels.as_deref(), planned)
    }

    /// The budget `experiment` runs under: its own, with the command
    /// line's seconds in place of its default ones.
    pub fn budget(&self, experiment: &Experiment) -> Budget {
        match (experiment.budget, self.seconds_per_ii) {
            (Budget::Seconds(_), Some(secs)) => Budget::Seconds(secs),
            (budget, _) => budget,
        }
    }
}

/// The `--kernels` filter behind [`BenchArgs::plan`]. A name must match a
/// kernel of at least one experiment.
fn filter_workloads<E>(
    keep: Option<&[String]>,
    planned: Vec<(E, Vec<Workload>)>,
) -> Result<Vec<(E, Vec<Workload>)>, String> {
    let Some(keep) = keep else {
        return Ok(planned);
    };
    let mut matched: BTreeSet<String> = BTreeSet::new();
    let filtered = planned
        .into_iter()
        .filter_map(|(experiment, workloads)| {
            let workloads: Vec<Workload> = workloads
                .into_iter()
                .filter_map(|mut w| {
                    w.kernels.retain(|dfg| keep.iter().any(|k| k == dfg.name()));
                    (!w.kernels.is_empty()).then_some(w)
                })
                .collect();
            for dfg in workloads.iter().flat_map(|w| &w.kernels) {
                matched.insert(dfg.name().to_string());
            }
            (!workloads.is_empty()).then_some((experiment, workloads))
        })
        .collect();
    match keep.iter().find(|k| !matched.contains(*k)) {
        Some(k) => Err(format!(
            "--kernels: `{k}` matches no kernel in the selected experiments"
        )),
        None => Ok(filtered),
    }
}

/// Parses the `repro` command line: experiment names, an optional
/// positional per-II budget in seconds, and optional `--jobs N` (or
/// `--jobs=N`), `--kernels a,b` (or `--kernels=a,b`) and `--observe DIR`
/// (or `--observe=DIR`) flags.
///
/// With `--observe`, switches the flight recorder and Chrome collector on
/// before returning.
///
/// # Errors
///
/// An unknown experiment or flag, or a flag without a valid value.
pub fn parse_cli() -> Result<BenchArgs, String> {
    let parsed = parse_cli_from(std::env::args().skip(1))?;
    if parsed.observe.is_some() {
        rewire_mappers::observe::enable_collectors();
    }
    Ok(parsed)
}

fn parse_cli_from(args: impl IntoIterator<Item = String>) -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs {
        experiments: Vec::new(),
        seconds_per_ii: None,
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
    let parse_jobs = |v: Option<&str>| {
        v.and_then(|v| v.parse().ok())
            .ok_or("--jobs needs a positive integer")
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            parsed.jobs = parse_jobs(args.next().as_deref())?;
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            parsed.jobs = parse_jobs(Some(v))?;
        } else if arg == "--observe" {
            parsed.observe = Some(args.next().ok_or("--observe needs a directory")?.into());
        } else if let Some(v) = arg.strip_prefix("--observe=") {
            parsed.observe = Some(v.into());
        } else if arg == "--kernels" {
            let list = args
                .next()
                .ok_or("--kernels needs a comma-separated list")?;
            parsed.kernels = Some(parse_kernels(&list));
        } else if let Some(v) = arg.strip_prefix("--kernels=") {
            parsed.kernels = Some(parse_kernels(v));
        } else if let Ok(v) = arg.parse::<f64>() {
            parsed.seconds_per_ii = Some(v);
        } else if let Some(e) = EXPERIMENTS.iter().find(|e| e.name == arg) {
            parsed.experiments.push(e.name);
        } else {
            return Err(format!("unrecognised argument {arg:?}"));
        }
    }
    if parsed.experiments.is_empty() {
        parsed.experiments = DEFAULT_EXPERIMENTS.to_vec();
    }
    parsed.jobs = parsed.jobs.max(1);
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use rewire_arch::presets;
    use rewire_dfg::kernels;

    fn pf() -> MapperKind {
        MapperKind::PathFinder(PathFinderConfig::default())
    }

    fn workload(label: &'static str, names: &[&str]) -> Workload {
        Workload {
            label,
            budget_scale: 1.0,
            cgra: presets::paper_4x4_r4(),
            kernels: names.iter().map(|n| kernels::by_name(n).unwrap()).collect(),
        }
    }

    /// `repro`'s parse of `args`, which must be a valid command line.
    fn parsed(args: &[&str]) -> BenchArgs {
        parse_cli_from(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn runner_produces_one_row_per_combination() {
        let w = workload("test", &["fir", "atax"]);
        let mut seen = 0;
        let rows = run_workloads(&[w], &[pf()], Budget::Seconds(0.3), 1, |_| seen += 1);
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
        let mk = || workload("test", &["bicg", "mvt"]);
        let serial = run_workloads(&[mk()], &[pf()], Budget::Seconds(60.0), 1, |_| {});
        let mut seen = 0;
        let parallel = run_workloads(&[mk()], &[pf()], Budget::Seconds(60.0), 4, |_| seen += 1);
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
    fn cli_parsing_accepts_experiments_secs_jobs_and_observe() {
        let base = parsed(&[]);
        assert_eq!(base.experiments, DEFAULT_EXPERIMENTS);
        assert_eq!(base.seconds_per_ii, None);
        assert_eq!(base.jobs, 1);
        assert_eq!(base.observe, None);
        assert_eq!(parsed(&["0.5"]).seconds_per_ii, Some(0.5));
        assert_eq!(parsed(&["--jobs", "4"]).jobs, 4);
        let combined = parsed(&["table1", "--jobs=8", "1.5", "fig5"]);
        assert_eq!(
            combined.experiments,
            ["table1", "fig5"],
            "command-line order"
        );
        assert_eq!(combined.jobs, 8);
        assert_eq!(combined.seconds_per_ii, Some(1.5));
        assert_eq!(parsed(&["--jobs=0"]).jobs, 1, "clamped");
        assert_eq!(
            parsed(&["--observe", "obs"]).observe,
            Some(PathBuf::from("obs"))
        );
        assert_eq!(
            parsed(&["--observe=out/obs"]).observe,
            Some(PathBuf::from("out/obs"))
        );
    }

    #[test]
    fn command_line_seconds_replace_only_wall_clock_defaults() {
        let experiment = |name| EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
        let defaults = parsed(&[]);
        assert_eq!(defaults.budget(experiment("fig5")), Budget::Seconds(2.0));
        assert_eq!(
            defaults.budget(experiment("ablation")),
            Budget::Seconds(1.5)
        );
        let fast = parsed(&["0.1"]);
        assert_eq!(fast.budget(experiment("ablation")), Budget::Seconds(0.1));
        assert_eq!(fast.budget(experiment("mii_tightness")), Budget::Caps);
    }

    #[test]
    fn cli_parsing_rejects_junk() {
        let err = |args: &[&str]| parse_cli_from(args.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["--frobnicate"]).contains("unrecognised argument"));
        assert!(err(&["fig7"]).contains("unrecognised argument"));
        for jobs in [&["--jobs", "x"][..], &["--jobs"], &["--jobs=-1"]] {
            assert!(
                err(jobs).contains("--jobs needs a positive integer"),
                "{jobs:?}"
            );
        }
        assert!(err(&["--observe"]).contains("--observe needs a directory"));
        assert!(err(&["--kernels"]).contains("--kernels needs"));
    }

    #[test]
    fn cli_parsing_accepts_kernels() {
        assert_eq!(parsed(&[]).kernels, None);
        assert_eq!(
            parsed(&["--kernels", "fir,atax"]).kernels,
            Some(vec!["fir".to_string(), "atax".to_string()])
        );
        assert_eq!(
            parsed(&["--kernels=fir, atax,"]).kernels,
            Some(vec!["fir".to_string(), "atax".to_string()]),
            "whitespace and empty segments are dropped"
        );
    }

    fn kernels_of(planned: &[(&str, Vec<Workload>)]) -> Vec<(String, Vec<String>)> {
        planned
            .iter()
            .map(|(name, workloads)| {
                let names = workloads
                    .iter()
                    .flat_map(|w| {
                        w.kernels
                            .iter()
                            .map(|d| format!("{}:{}", w.label, d.name()))
                    })
                    .collect();
                (name.to_string(), names)
            })
            .collect()
    }

    #[test]
    fn kernel_filter_restricts_workloads() {
        let keep = ["fir".to_string()];
        let planned = vec![(
            "a",
            vec![
                workload("test", &["fir", "atax"]),
                workload("other", &["atax"]),
            ],
        )];
        let filtered = filter_workloads(Some(&keep), planned).unwrap();
        assert_eq!(
            kernels_of(&filtered),
            [("a".to_string(), vec!["test:fir".to_string()])],
            "emptied workloads are dropped"
        );
    }

    #[test]
    fn kernel_filter_spans_experiments_and_skips_emptied_ones() {
        // `fir` is in the first experiment only and `atax` in both: each
        // name needs one match across the selection, and the experiment
        // the filter empties is dropped rather than rejected.
        let keep = ["fir".to_string(), "atax".to_string()];
        let planned = vec![
            ("fig5", vec![workload("4x4", &["fir", "atax", "mvt"])]),
            ("table1", vec![workload("4x4", &["atax", "bicg"])]),
            ("placement", vec![workload("4x4", &["bicg"])]),
        ];
        let filtered = filter_workloads(Some(&keep), planned).unwrap();
        assert_eq!(
            kernels_of(&filtered),
            [
                (
                    "fig5".to_string(),
                    vec!["4x4:fir".to_string(), "4x4:atax".to_string()]
                ),
                ("table1".to_string(), vec!["4x4:atax".to_string()]),
            ]
        );
        let unfiltered =
            filter_workloads(None, vec![("x", vec![workload("4x4", &["mvt"])])]).unwrap();
        assert_eq!(unfiltered.len(), 1, "no filter keeps everything");
    }

    #[test]
    fn kernel_filter_rejects_typos() {
        let keep = ["fir".to_string(), "not_a_kernel".to_string()];
        let planned = vec![("a", vec![workload("test", &["fir"])])];
        let Err(err) = filter_workloads(Some(&keep), planned) else {
            panic!("a name that matches no kernel is accepted");
        };
        assert!(err.contains("`not_a_kernel` matches no kernel"), "{err}");
    }

    #[test]
    fn mapper_kinds_build_under_their_table_names() {
        let variant = MapperKind::Rewire {
            name: "Rewire:alpha=5",
            config: RewireConfig {
                alpha: 5,
                ..Default::default()
            },
        };
        let kinds = [
            MapperKind::rewire(),
            variant,
            pf(),
            MapperKind::Annealing(SaConfig::default()),
            MapperKind::Exact(1000),
        ];
        let rows = run_workloads(
            &[workload("test", &["fir"])],
            &kinds,
            Budget::Seconds(0.01),
            1,
            |_| {},
        );
        let names: Vec<&str> = rows[0].results.iter().map(|r| r.mapper.as_str()).collect();
        assert_eq!(names, ["Rewire", "Rewire:alpha=5", "PF*", "SA", "Exact"]);
    }
}
