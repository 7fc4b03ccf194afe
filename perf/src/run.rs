//! One benchmark run of one workload: set up, a check pass, then timed
//! passes in a closed loop until the time window is spent.
//!
//! Every search is bounded by deterministic caps (the per-II wall-clock
//! budget is far out of reach), so every pass does identical work and only
//! time varies. The run checks that claim: every later pass must reproduce
//! the check pass's II, MRRG cells, router expansions and SAT conflicts.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{geomean, median};
use crate::workloads::{self, MapperKind, Task, Workload};
use rewire::mrrg::{install_thread_distance_table, DistanceOracle};
use rewire::obs;
use rewire::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-II wall-clock budget handed to every mapper. Far above the slowest
/// task, so it never steers a search.
const II_TIME_BUDGET: Duration = Duration::from_secs(600);
/// A task slower than this fails the run: a tenth of the per-II budget, so
/// no budget can have come close to binding.
const TASK_LIMIT_S: f64 = 60.0;
/// Set-ups repeated after every pass. Spreading them over the run exposes
/// them to the same machine load as the passes; `setup_s` is their median.
const SETUP_REPS_PER_PASS: usize = 3;
/// Timed passes an untraced run makes even when the window is spent.
const MIN_TIMED_PASSES: usize = 3;
/// Seed of every mapper's search, and the default input seed (0xFACADE).
/// The search seed is fixed so that every input seed does the same work.
pub const SEED: u64 = 16_435_934;

/// What one run does.
pub struct RunArgs {
    pub workload: &'static Workload,
    /// Seed of the simulator's input values.
    pub seed: u64,
    /// Length of the measuring window, check pass included.
    pub seconds: f64,
    /// Report per-layer metrics from traced passes instead of end-to-end
    /// metrics from untraced ones.
    pub trace: bool,
    /// Where traced runs write `<workload>.chrome.json` and
    /// `<workload>.layers.txt`.
    pub out_dir: PathBuf,
}

/// The outcome of one run, as printed on the last line.
pub struct RunResult {
    pub correct: bool,
    /// Map calls made.
    pub attempted: u64,
    /// Map calls whose output failed a check.
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Counter totals and span `(count, ns)` totals summed over every scope of
/// the global registry.
#[derive(Clone, Debug, Default)]
struct Totals {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, (u64, u64)>,
}

impl Totals {
    fn now() -> Self {
        let mut t = Totals::default();
        for scope in obs::metrics().snapshot().scopes.into_values() {
            for (name, v) in scope.counters {
                *t.counters.entry(name).or_default() += v;
            }
            for (path, s) in scope.spans {
                let e = t.spans.entry(path).or_default();
                e.0 += s.count;
                e.1 += s.total_ns;
            }
        }
        t
    }

    fn since(&self, earlier: &Totals) -> Totals {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - earlier.counter(k)))
            .filter(|(_, v)| *v > 0)
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, &(c, ns))| {
                let (c0, ns0) = earlier.spans.get(k).copied().unwrap_or_default();
                (k.clone(), (c - c0, ns - ns0))
            })
            .filter(|(_, (c, _))| *c > 0)
            .collect();
        Totals { counters, spans }
    }

    fn add(&mut self, other: &Totals) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, &(c, ns)) in &other.spans {
            let e = self.spans.entry(k.clone()).or_default();
            e.0 += c;
            e.1 += ns;
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total seconds of every span whose last path component is `name`.
    fn span_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(name))
            .map(|(_, &(_, ns))| ns)
            .sum();
        ns as f64 / 1e9
    }
}

/// Runs `f`, timing it, inside a benchmark span when `traced`.
fn timed<T>(traced: bool, span: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = traced.then(|| obs::span(span));
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// A task with its inputs built.
struct Prepared {
    task: Task,
    fabric: usize,
    dfg: Dfg,
    mii: u32,
}

/// Everything set-up builds.
struct Setup {
    fabrics: Vec<Cgra>,
    oracles: Vec<DistanceOracle>,
    tasks: Vec<Prepared>,
}

/// Seconds one set-up took: total, arch, oracle, dfg, mii.
type SetupTimes = [f64; 5];

/// Builds the fabrics, distance oracles, DFGs and MIIs once.
fn set_up(w: &Workload, traced: bool) -> Result<(Setup, SetupTimes), String> {
    let start = Instant::now();
    let span = traced.then(|| obs::span("setup"));
    let mut part = [0.0; 5];
    let mut fabrics = Vec::new();
    for &name in w.fabrics {
        let (cgra, s) = timed(traced, "arch.build", || workloads::fabric(name));
        fabrics.push(cgra.ok_or_else(|| format!("unknown fabric {name}"))?);
        part[1] += s;
    }
    let mut oracles = Vec::new();
    for cgra in &fabrics {
        let (oracle, s) = timed(traced, "mrrg.oracle_build", || DistanceOracle::build(cgra));
        oracles.push(oracle);
        part[2] += s;
    }
    let mut tasks = Vec::new();
    for task in w.tasks() {
        let fabric = w
            .fabrics
            .iter()
            .position(|&f| f == task.fabric)
            .unwrap_or(0);
        let (dfg, s) = timed(traced, "dfg.build", || kernels::by_name(task.kernel));
        part[3] += s;
        let dfg = dfg.ok_or_else(|| format!("unknown kernel {}", task.kernel))?;
        let (mii, s) = timed(traced, "dfg.mii", || dfg.mii(&fabrics[fabric]));
        part[4] += s;
        let mii = mii.ok_or_else(|| format!("{}: no MII", task.label()))?;
        tasks.push(Prepared {
            task,
            fabric,
            dfg,
            mii,
        });
    }
    drop(span);
    part[0] = start.elapsed().as_secs_f64();
    let setup = Setup {
        fabrics,
        oracles,
        tasks,
    };
    Ok((setup, part))
}

/// What the determinism gate compares between passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fingerprint {
    ii: Option<u32>,
    used_cells: usize,
    expansions: u64,
    conflicts: u64,
}

/// How a pass runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PassKind {
    /// First pass: validates and simulates every mapping; not timed.
    Check,
    /// Timed, with no benchmark spans and the Chrome collector off.
    Untraced,
    /// With benchmark spans and the Chrome collector on.
    Traced,
}

/// One pass's measurements.
struct Pass {
    kind: PassKind,
    /// Seconds per task inside `Mapper::map`.
    map_s: Vec<f64>,
    /// Wall time of the whole pass.
    wall_s: f64,
    /// Registry growth over the pass.
    delta: Totals,
}

/// Mutable state shared by all passes of a run.
struct Runner<'a> {
    args: &'a RunArgs,
    setup: &'a Setup,
    setup_reps: Vec<SetupTimes>,
    mapper: Box<dyn Mapper>,
    first: Vec<Fingerprint>,
    proven: usize,
    validate_s: f64,
    verify_s: f64,
    attempted: u64,
    failed_calls: u64,
    failures: Vec<String>,
}

impl Runner<'_> {
    fn pass(&mut self, kind: PassKind) -> Pass {
        // Untraced runs record no benchmark spans at all; traced runs
        // record them, with the Chrome collector on, everywhere except in
        // the untraced passes they interleave.
        let traced = self.args.trace && kind != PassKind::Untraced;
        if self.args.trace {
            if traced {
                obs::chrome().enable(0);
            } else {
                obs::chrome().disable();
            }
        }
        let span = traced.then(|| {
            obs::span(if kind == PassKind::Check {
                "check"
            } else {
                "pass"
            })
        });
        let start = Instant::now();
        let pass_start = Totals::now();
        let mut before = pass_start.clone();
        let setup = self.setup;
        let mut map_s = Vec::with_capacity(setup.tasks.len());
        for (i, p) in setup.tasks.iter().enumerate() {
            let cgra = &setup.fabrics[p.fabric];
            let limits = MapLimits::fast()
                .with_seed(SEED)
                .with_ii_time_budget(II_TIME_BUDGET)
                .with_max_ii(p.mii + self.args.workload.ii_slack);
            let (outcome, secs) = timed(traced, "map", || self.mapper.map(&p.dfg, cgra, &limits));
            self.attempted += 1;
            map_s.push(secs);
            let after = Totals::now();
            let d = after.since(&before);
            before = after;
            let print = Fingerprint {
                ii: outcome.stats.achieved_ii,
                used_cells: outcome
                    .mapping
                    .as_ref()
                    .map_or(0, |m| m.occupancy().used_cells()),
                expansions: d.counter("router.expansions"),
                conflicts: d.counter("sat.conflicts"),
            };
            let mut problems = Vec::new();
            if secs > TASK_LIMIT_S {
                problems.push(format!("took {secs:.1} s, over the {TASK_LIMIT_S} s limit"));
            }
            if d.counter("engine.stalls") > 0 {
                problems.push("the engine reported a deadline stall".to_string());
            }
            if kind == PassKind::Check {
                self.first.push(print);
                self.proven += usize::from(outcome.stats.proven_optimal());
                if let Some(m) = &outcome.mapping {
                    problems.extend(self.check_mapping(p, cgra, m, traced));
                }
            } else if print != self.first[i] {
                problems.push(format!(
                    "not reproducible: check pass gave {:?}, this pass {print:?}",
                    self.first[i]
                ));
            }
            if !problems.is_empty() {
                self.failed_calls += 1;
                for problem in problems {
                    self.failures.push(format!(
                        "{}/{}: {problem}",
                        self.args.workload.name,
                        p.task.label()
                    ));
                }
            }
        }
        let delta = Totals::now().since(&pass_start);
        drop(span);
        Pass {
            kind,
            map_s,
            wall_s: start.elapsed().as_secs_f64(),
            delta,
        }
    }

    /// Validates one check-pass mapping and simulates it against the
    /// reference interpreter.
    fn check_mapping(
        &mut self,
        p: &Prepared,
        cgra: &Cgra,
        m: &Mapping,
        traced: bool,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        let (valid, s) = timed(traced, "validate", || m.validate(&p.dfg, cgra));
        self.validate_s += s;
        if let Err(issues) = valid {
            problems.push(format!("invalid mapping: {issues:?}"));
        }
        let iterations = 2 * m.ii() + 8;
        let inputs = Inputs::new(self.args.seed);
        let (sim, s) = timed(traced, "verify", || {
            verify_semantics(&p.dfg, cgra, m, &inputs, iterations)
        });
        self.verify_s += s;
        if let Err(e) = sim {
            problems.push(format!("simulation disagrees with the reference: {e}"));
        }
        problems
    }
}

/// Runs one workload and returns its metrics. Progress and the human-
/// readable report go to stdout; the caller prints the JSON line last.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let w = args.workload;
    if args.trace {
        obs::chrome().reset();
        obs::chrome().enable(0);
    }
    let (setup, first_setup) = set_up(w, args.trace)?;
    // Warm the router's thread-local distance cache with the oracles just
    // built, so no pass builds one.
    for oracle in &setup.oracles {
        install_thread_distance_table(Arc::new(oracle.clone()));
    }
    let mut runner = Runner {
        args,
        setup: &setup,
        setup_reps: vec![first_setup],
        mapper: w.mapper.build(),
        first: Vec::new(),
        proven: 0,
        validate_s: 0.0,
        verify_s: 0.0,
        attempted: 0,
        failed_calls: 0,
        failures: Vec::new(),
    };
    let window = Instant::now();
    let check = runner.pass(PassKind::Check);
    let mut passes: Vec<Pass> = Vec::new();
    let mut last_wall = check.wall_s;
    loop {
        for _ in 0..SETUP_REPS_PER_PASS {
            runner.setup_reps.push(set_up(w, args.trace)?.1);
        }
        let (untraced, traced) = count_kinds(&passes);
        let enough = if args.trace {
            untraced >= 1 && traced >= 1
        } else {
            untraced >= MIN_TIMED_PASSES
        };
        if enough && window.elapsed().as_secs_f64() + last_wall > args.seconds {
            break;
        }
        let kind = if args.trace && traced <= untraced {
            PassKind::Traced
        } else {
            PassKind::Untraced
        };
        let pass = runner.pass(kind);
        last_wall = pass.wall_s;
        passes.push(pass);
    }
    obs::chrome().disable();

    let n = setup.tasks.len();
    let mapped = runner.first.iter().filter(|f| f.ii.is_some()).count();
    println!(
        "{}: {} tasks ({} x {}), {:?} mapper, max II = MII + {}, map seed {SEED}, input seed {}",
        w.name,
        n,
        w.kernels.len(),
        w.fabrics.join(","),
        w.mapper,
        w.ii_slack,
        args.seed
    );
    println!("why: {}", w.why);
    print_tasks(&setup, &runner.first, &passes, w.ii_slack);
    println!(
        "check pass: {mapped} of {n} mapped; every mapping validated and simulated over 2*II+8 iterations; {} later passes compared",
        passes.len()
    );
    for failure in &runner.failures {
        eprintln!("check failed: {failure}");
        println!("check failed: {failure}");
    }

    let metrics = if args.trace {
        per_layer(args, &runner, &passes)?
    } else {
        let check_map_s = check.map_s.iter().sum();
        end_to_end(&runner, check_map_s, &passes, w.ii_slack)?
    };
    Ok(RunResult {
        correct: runner.failures.is_empty(),
        attempted: runner.attempted,
        failed: runner.failed_calls,
        metrics,
    })
}

fn count_kinds(passes: &[Pass]) -> (usize, usize) {
    let traced = passes.iter().filter(|p| p.kind == PassKind::Traced).count();
    (passes.len() - traced, traced)
}

/// Per-task medians over the passes of `kind`.
fn task_medians(passes: &[Pass], kind: PassKind, tasks: usize) -> Vec<f64> {
    (0..tasks)
        .map(|t| {
            let samples: Vec<f64> = passes
                .iter()
                .filter(|p| p.kind == kind)
                .map(|p| p.map_s[t])
                .collect();
            median(&samples).unwrap_or(0.0)
        })
        .collect()
}

fn print_tasks(setup: &Setup, first: &[Fingerprint], passes: &[Pass], slack: u32) {
    let medians = task_medians(passes, PassKind::Untraced, setup.tasks.len());
    println!(
        "{:<22} {:>4} {:>4} {:>7} {:>12} {:>12}",
        "task", "MII", "II", "cells", "expansions", "median ms"
    );
    for ((p, f), med) in setup.tasks.iter().zip(first).zip(medians) {
        let ii =
            f.ii.map_or_else(|| format!(">{}", p.mii + slack), |ii| ii.to_string());
        println!(
            "{:<22} {:>4} {:>4} {:>7} {:>12} {:>12.3}",
            p.task.label(),
            p.mii,
            ii,
            f.used_cells,
            f.expansions,
            med * 1e3
        );
    }
}

/// `ii_sum`'s per-task term: the achieved II, or `MII + slack + 1` for a
/// task the mapper could not map within its caps.
pub fn ii_term(mii: u32, achieved: Option<u32>, slack: u32) -> u32 {
    achieved.unwrap_or(mii + slack + 1)
}

/// The highest percentile of `samples` with at least ten samples above it,
/// as `(percent, value)`; `None` below eleven samples.
fn tail_percentile(samples: &[f64]) -> Option<(usize, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - 10;
    Some((rank * 100 / n, sorted[rank - 1]))
}

fn setup_median(reps: &[SetupTimes], part: usize) -> f64 {
    let samples: Vec<f64> = reps.iter().map(|r| r[part]).collect();
    median(&samples).unwrap_or(0.0)
}

fn end_to_end(
    runner: &Runner<'_>,
    check_map_s: f64,
    passes: &[Pass],
    slack: u32,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let setup = runner.setup;
    let n = setup.tasks.len();
    let timed_passes = passes.len();
    let medians = task_medians(passes, PassKind::Untraced, n);
    let map_s: f64 = medians.iter().sum();
    let geo_ms = geomean(&medians).ok_or("a task took no measurable time")? * 1e3;
    let ii_sum: u32 = setup
        .tasks
        .iter()
        .zip(&runner.first)
        .map(|(p, f)| ii_term(p.mii, f.ii, slack))
        .sum();
    let mapped = runner.first.iter().filter(|f| f.ii.is_some()).count();
    let mapped_share = mapped as f64 / n as f64;
    let setup_s = setup_median(&runner.setup_reps, 0);
    let rss_mb = peak_rss_mb()?;

    let calls: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.map_s.iter().copied())
        .collect();
    let pass_s: Vec<f64> = passes.iter().map(|p| p.map_s.iter().sum()).collect();
    println!(
        "map call latency: median {:.3} ms over {} calls{}",
        median(&calls).unwrap_or(0.0) * 1e3,
        calls.len(),
        tail_percentile(&calls)
            .map(|(p, v)| format!(", p{p} {:.3} ms", v * 1e3))
            .unwrap_or_default(),
    );
    let listed: Vec<String> = pass_s.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "map time per pass (s): {} (check pass {:.4}, not counted)",
        listed.join(" "),
        check_map_s
    );
    let values = [
        (
            map_s,
            format!("sum over {n} tasks of each task's median over {timed_passes} passes"),
        ),
        (geo_ms, format!("geometric mean of the same {n} medians")),
        (
            f64::from(ii_sum),
            format!(
                "achieved II summed over {n} tasks; unmapped counts as MII+{}",
                slack + 1
            ),
        ),
        (mapped_share, format!("{mapped} of {n} tasks mapped")),
        (
            setup_s,
            format!("median of {} set-ups", runner.setup_reps.len()),
        ),
        (rss_mb, "VmHWM of this process".to_string()),
    ];
    let mut metrics = Vec::new();
    for (m, (value, note)) in END_TO_END.iter().zip(values) {
        println!("{:<16} {:>14.6} {:<7} {note}", m.name, value, m.unit);
        metrics.push((m.name, value, m.unit));
    }
    Ok(metrics)
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(
    args: &RunArgs,
    runner: &Runner<'_>,
    passes: &[Pass],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let traced: Vec<&Pass> = passes
        .iter()
        .filter(|p| p.kind == PassKind::Traced)
        .collect();
    let k = traced.len() as f64;
    let mut sum = Totals::default();
    for p in &traced {
        sum.add(&p.delta);
    }
    // Counts repeat exactly across passes; take them from one.
    let counts = &traced[0].delta;
    let c = |name: &str| counts.counter(name) as f64;
    let per_pass = |s: f64| s / k;
    let map_s = per_pass(traced.iter().map(|p| p.map_s.iter().sum::<f64>()).sum());
    let wall_s = per_pass(traced.iter().map(|p| p.wall_s).sum());
    let route_s = per_pass(sum.counter("router.route_ns") as f64 / 1e9);
    let solve_s = per_pass(sum.span_s("exact.solve"));
    let program_s = per_pass(
        sum.spans
            .iter()
            .filter(|(path, _)| path.starts_with("pass/map/") && path.matches('/').count() == 2)
            .map(|(_, &(_, ns))| ns as f64 / 1e9)
            .sum(),
    );
    let search_s = program_s - route_s - solve_s;
    let unattributed_s = wall_s - program_s;
    let pass_map = |kind| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.kind == kind)
            .map(|p| p.map_s.iter().sum())
            .collect()
    };
    let overhead = ratio(
        median(&pass_map(PassKind::Traced)).unwrap_or(0.0),
        median(&pass_map(PassKind::Untraced)).unwrap_or(0.0),
    ) - 1.0;
    let ms = |part| setup_median(&runner.setup_reps, part) * 1e3;
    let oracle_bytes: usize = runner
        .setup
        .oracles
        .iter()
        .map(DistanceOracle::heap_bytes)
        .sum();

    let values: BTreeMap<&str, f64> = [
        ("mrrg.route_calls", c("router.route_calls")),
        ("mrrg.expansions", c("router.expansions")),
        ("mrrg.route_s", route_s),
        (
            "mrrg.ns_per_expansion",
            ratio(route_s * 1e9, c("router.expansions")),
        ),
        ("mrrg.route_share", ratio(route_s, map_s)),
        (
            "mrrg.route_fail_ratio",
            ratio(c("router.route_failed"), c("router.route_calls")),
        ),
        ("mrrg.retries", c("router.retries")),
        ("mrrg.pruned_states", c("router.pruned_states")),
        ("mrrg.tree_reuse", c("router.tree_reuse")),
        ("mrrg.oracle_build_ms", ms(2)),
        ("mrrg.oracle_bytes", oracle_bytes as f64),
        ("core.clusters", c("rewire.clusters_attempted")),
        ("core.cluster_growths", c("rewire.cluster_growths")),
        ("core.tuples", c("rewire.tuples_generated")),
        ("core.combinations_pruned", c("rewire.combinations_pruned")),
        ("core.restarts", c("rewire.restarts")),
        ("core.verifications", c("rewire.verifications")),
        (
            "core.verify_success_ratio",
            ratio(
                c("rewire.verification_successes"),
                c("rewire.verifications"),
            ),
        ),
        ("mappers.attempts", c("engine.attempts")),
        ("mappers.iis_explored", c("engine.iis_explored")),
        (
            "mappers.mapped_per_attempt",
            ratio(c("engine.mapped"), c("engine.attempts")),
        ),
        ("mappers.search_s", map_s - route_s),
        ("mappers.pf_rip_ups", c("pf.rip_ups")),
        ("mappers.pf_evictions", c("pf.evictions")),
        (
            "mappers.consolidate_s",
            per_pass(sum.span_s("consolidate_fanout")),
        ),
        ("mappers.fanout_cells_saved", c("fanout.cells_saved")),
        ("mappers.exact_vars", c("exact.vars")),
        ("mappers.exact_clauses", c("exact.clauses")),
        (
            "mappers.used_cells",
            runner.first.iter().map(|f| f.used_cells as f64).sum(),
        ),
        ("mappers.proven_optimal", runner.proven as f64),
        ("sat.conflicts", c("sat.conflicts")),
        ("sat.decisions", c("sat.decisions")),
        ("sat.propagations", c("sat.propagations")),
        ("dfg.build_ms", ms(3)),
        ("dfg.mii_ms", ms(4)),
        ("arch.build_ms", ms(1)),
        ("mappers.validate_ms", runner.validate_s * 1e3),
        ("sim.verify_ms", runner.verify_s * 1e3),
        ("obs.trace_overhead", overhead),
        ("obs.unattributed_share", ratio(unattributed_s, wall_s)),
    ]
    .into_iter()
    .collect();

    let layers = [
        ("mrrg router (router.route_ns)", route_s),
        ("sat solve (span exact.solve)", solve_s),
        (search_label(args.workload.mapper), search_s),
    ];
    let (dominant, _) = layers
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("three layers");
    let mut table = format!(
        "{} per-layer table: mean of {} traced passes ({} untraced passes interleaved)\n\n",
        args.workload.name,
        traced.len(),
        passes.len() - traced.len()
    );
    let _ = writeln!(
        table,
        "{:<48} {:>10} {:>8}",
        "layer (exclusive)", "s/pass", "share"
    );
    for (name, s) in layers.iter().copied().chain([(
        "unattributed (benchmark loop, call boundary)",
        unattributed_s,
    )]) {
        let _ = writeln!(
            table,
            "{name:<48} {s:>10.4} {:>7.1}%",
            ratio(s, wall_s) * 100.0
        );
    }
    let _ = writeln!(table, "{:<48} {wall_s:>10.4}", "pass wall time");
    let _ = writeln!(table, "dominant layer: {dominant}\n");
    span_table(&mut table, &sum, k);
    let _ = writeln!(table, "\n{:<36} {:>16}", "counter", "delta/pass");
    for (name, v) in &counts.counters {
        let _ = writeln!(table, "{name:<36} {v:>16}");
    }
    let _ = writeln!(table, "\n{:<36} {:>16}", "per-layer metric", "value");
    for (name, unit) in PER_LAYER {
        let _ = writeln!(table, "{name:<36} {:>16.6} {unit}", values[name]);
    }
    print!("{table}");
    write_artifacts(args, &table)?;

    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect())
}

fn search_label(mapper: MapperKind) -> &'static str {
    match mapper {
        MapperKind::PathFinder => "mappers PF* search, router excluded",
        MapperKind::Rewire => "core Rewire search, router excluded",
        MapperKind::Exact => "mappers exact encode/decode, router excluded",
    }
}

/// Appends the span tree of the traced passes: count, total and self time
/// (total minus direct children) per pass.
fn span_table(out: &mut String, sum: &Totals, passes: f64) {
    let _ = writeln!(
        out,
        "{:<56} {:>9} {:>11} {:>11}",
        "span path (traced passes)", "count", "total ms", "self ms"
    );
    let pass_spans = sum.spans.iter().filter(|(p, _)| p.starts_with("pass"));
    for (path, &(count, ns)) in pass_spans {
        let children: u64 = sum
            .spans
            .iter()
            .filter(|(p, _)| {
                p.strip_prefix(path.as_str())
                    .and_then(|rest| rest.strip_prefix('/'))
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|(_, &(_, ns))| ns)
            .sum();
        let _ = writeln!(
            out,
            "{path:<56} {:>9.1} {:>11.3} {:>11.3}",
            count as f64 / passes,
            ns as f64 / 1e6 / passes,
            ns.saturating_sub(children) as f64 / 1e6 / passes
        );
    }
}

fn write_artifacts(args: &RunArgs, table: &str) -> Result<(), String> {
    let dir = &args.out_dir;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let name = args.workload.name;
    let chrome = dir.join(format!("{name}.chrome.json"));
    std::fs::write(&chrome, obs::chrome().export_json(None))
        .map_err(|e| format!("cannot write {}: {e}", chrome.display()))?;
    let layers = dir.join(format!("{name}.layers.txt"));
    std::fs::write(&layers, table)
        .map_err(|e| format!("cannot write {}: {e}", layers.display()))?;
    println!("wrote {} and {}", chrome.display(), layers.display());
    let dropped = obs::chrome().dropped();
    if dropped > 0 {
        println!("the Chrome trace buffer was full: {dropped} spans left out of the trace");
    }
    Ok(())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_tasks_count_one_past_the_slack() {
        assert_eq!(ii_term(3, Some(4), 3), 4);
        assert_eq!(ii_term(3, None, 3), 7);
        assert_eq!(ii_term(2, None, 6), 9);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_above() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90, 90.0)));
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((9, 1.0)));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("map_s", 1.25, "s"), ("bad", f64::NAN, "ms")],
        };
        let parsed = rewire::obs::json::parse(&r.to_json()).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = parsed.get("metrics").unwrap();
        let map_s = m.get("map_s").unwrap();
        assert_eq!(map_s.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(map_s.get("unit").and_then(|v| v.as_str()), Some("s"));
        assert_eq!(
            m.get("bad")
                .and_then(|b| b.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.0)
        );
    }
}
