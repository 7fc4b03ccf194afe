//! The fuzz loop: scenario → four mappers (three heuristics and the exact
//! SAT oracle) → oracle stack → (on failure) shrink → artifact.
//!
//! Determinism contract: the same seed produces a byte-identical scenario,
//! mapper outcomes, violations and shrink trace, because every search is
//! bounded by *deterministic caps* — the heuristics' iteration caps (the
//! same configuration `tests/engine_determinism.rs` pins) and the SAT
//! backend's conflict budget — under a wall-clock budget generous enough
//! never to bind. `--budget-ms` is a safety net for pathological
//! scenarios, not the intended stopping rule.

use crate::artifact::{Artifact, Expectation};
use crate::oracle::{run_oracle, CheckKind, MapperRun, OracleConfig, Violation};
use crate::scenario::Scenario;
use crate::shrink::{shrink, ShrinkResult};
use rewire_arch::random::CgraSpec;
use rewire_arch::Cgra;
use rewire_bench::parallel_map;
use rewire_core::{RewireConfig, RewireMapper};
use rewire_dfg::Dfg;
use rewire_mappers::{
    ExactSatMapper, MapLimits, MapStats, Mapper, PathFinderConfig, PathFinderMapper, SaConfig,
    SaMapper,
};
use rewire_obs as obs;
use std::time::Duration;

/// Knobs of one fuzz campaign.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Per-II wall-clock safety net per mapper, in milliseconds. The
    /// deterministic caps (iterations, restarts, SAT conflicts) are sized
    /// to finish far below it.
    pub budget_ms: u64,
    /// Sweep `mii..=mii + extra_ii` (bounds the differential comparison
    /// and the cross-mapper "full sweep" criterion).
    pub extra_ii: u32,
    /// Iterations simulated by the semantic check.
    pub sim_iterations: u32,
    /// Maximum candidate evaluations the shrinker may spend per failure.
    pub shrink_budget: u32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            budget_ms: 10_000,
            extra_ii: 3,
            sim_iterations: 8,
            shrink_budget: 300,
        }
    }
}

/// The four mappers of the differential stack: the three heuristics with
/// every stochastic loop bounded by deterministic caps (the
/// `tests/engine_determinism.rs` configuration), and the exact SAT backend
/// under its default conflict budget, so outcomes replay byte-identically.
/// The exact run is also the reference search: its per-II verdicts feed
/// the `exact_verdict` layer.
pub fn differential_mappers() -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(RewireMapper::with_config(RewireConfig {
            max_cluster_attempts: 6,
            max_restarts_per_ii: 1,
            ..Default::default()
        })),
        Box::new(PathFinderMapper::with_config(PathFinderConfig {
            max_iterations_per_ii: 60,
            max_full_evals: 6,
            ..Default::default()
        })),
        Box::new(SaMapper::with_config(SaConfig {
            max_iterations_per_ii: 150,
            max_restarts_per_ii: 1,
        })),
        Box::new(ExactSatMapper::new()),
    ]
}

/// Runs all four mappers on one instance and applies the oracle stack.
pub fn evaluate(
    dfg: &Dfg,
    cgra: &Cgra,
    mapper_seed: u64,
    input_seed: u64,
    cfg: &FuzzConfig,
) -> (Vec<MapperRun>, Vec<Violation>) {
    let mii = dfg.mii(cgra);
    let max_ii = mii.map_or(1, |m| m + cfg.extra_ii);
    let limits = MapLimits::fast()
        .with_seed(mapper_seed)
        .with_ii_time_budget(Duration::from_millis(cfg.budget_ms))
        .with_max_ii(max_ii);
    let runs: Vec<MapperRun> = differential_mappers()
        .iter()
        .map(|m| MapperRun {
            name: m.name().to_string(),
            outcome: m.map(dfg, cgra, &limits),
        })
        .collect();
    let oracle_cfg = OracleConfig {
        mii,
        max_ii,
        input_seed,
        sim_iterations: cfg.sim_iterations,
    };
    let violations = run_oracle(dfg, cgra, &runs, &oracle_cfg);
    (runs, violations)
}

/// Everything one seed produced.
#[derive(Clone, Debug)]
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// Stable scenario summary.
    pub summary: String,
    /// Per-mapper stable outcome lines (no wall-clock content).
    pub outcomes: Vec<String>,
    /// Oracle violations on the *original* scenario.
    pub violations: Vec<Violation>,
    /// Shrink result, when violations occurred.
    pub shrink: Option<ShrinkResult>,
    /// The minimal reproducer artifact, when violations occurred.
    pub artifact: Option<Artifact>,
    /// The differential mappers' run records on the original scenario.
    pub runs: Vec<MapStats>,
}

impl SeedReport {
    /// Whether the seed passed the whole stack.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic multi-line rendering (what the determinism test
    /// compares byte for byte): scenario, outcomes, violations, shrink
    /// trace — never timing.
    pub fn render(&self) -> String {
        let mut s = format!("seed {}: {}\n", self.seed, self.summary);
        for o in &self.outcomes {
            s.push_str("  ");
            s.push_str(o);
            s.push('\n');
        }
        for v in &self.violations {
            s.push_str(&format!("  VIOLATION {v}\n"));
        }
        if let Some(sh) = &self.shrink {
            s.push_str(&crate::shrink::render_trace(sh));
        }
        s
    }
}

/// Stable one-line description of a mapper outcome (deliberately excludes
/// elapsed time, the only nondeterministic field; the exact oracle's
/// verdicts appear as labels only, since `Unknown` conflict counts depend
/// on where a wall-clock deadline lands).
fn outcome_line(run: &MapperRun) -> String {
    let st = &run.outcome.stats;
    let mut line = match st.achieved_ii {
        Some(ii) => format!(
            "{}: II {ii} (MII {}) after {} IIs, {} iterations",
            run.name, st.mii, st.iis_explored, st.remap_iterations
        ),
        None => format!(
            "{}: failed (MII {}) after {} IIs, {} iterations",
            run.name, st.mii, st.iis_explored, st.remap_iterations
        ),
    };
    if !st.verdicts.is_empty() {
        let vs: Vec<String> = st
            .verdicts
            .iter()
            .map(|(ii, v)| format!("{ii}:{}", v.label()))
            .collect();
        line.push_str(&format!(" [{}]", vs.join(" ")));
    }
    line
}

/// Fuzzes one seed end to end. Records metrics under the `fuzz` scope of
/// the global registry (`fuzz.scenarios`, `fuzz.violations`,
/// `fuzz.checks.<kind>`, `fuzz.shrink_steps`, plus scenario-shape
/// histograms).
pub fn fuzz_one(seed: u64, cfg: &FuzzConfig) -> SeedReport {
    let _scope = obs::scope("fuzz");
    let scenario = Scenario::generate(seed);
    obs::counter("fuzz.scenarios").add(1);
    obs::histogram("fuzz.dfg_nodes").record(scenario.dfg.num_nodes() as u64);
    obs::histogram("fuzz.fabric_pes").record(scenario.cgra.num_pes() as u64);

    let (runs, violations) = evaluate(
        &scenario.dfg,
        &scenario.cgra,
        scenario.mapper_seed(),
        scenario.input_seed(),
        cfg,
    );
    for r in &runs {
        if r.outcome.stats.success() {
            obs::counter("fuzz.mapped").add(1);
        } else {
            obs::counter("fuzz.gave_up").add(1);
        }
    }
    for kind in CheckKind::all() {
        let fired = violations.iter().filter(|v| v.check == kind).count() as u64;
        obs::counter(&format!("fuzz.checks.{kind}")).add(fired);
    }

    let (shrink_result, artifact) = if violations.is_empty() {
        (None, None)
    } else {
        obs::counter("fuzz.violations").add(violations.len() as u64);
        let mut still_fails = |d: &Dfg, s: &CgraSpec| {
            let cgra = s.build().expect("shrink candidates build");
            let (_, vs) = evaluate(d, &cgra, scenario.mapper_seed(), scenario.input_seed(), cfg);
            !vs.is_empty()
        };
        let result = shrink(
            &scenario.dfg,
            &scenario.spec,
            &mut still_fails,
            cfg.shrink_budget,
        );
        obs::counter("fuzz.shrink_steps").add(result.steps.len() as u64);
        // Re-derive the violation on the minimal scenario for the note.
        let min_cgra = result.spec.build().expect("minimal spec builds");
        let (_, min_violations) = evaluate(
            &result.dfg,
            &min_cgra,
            scenario.mapper_seed(),
            scenario.input_seed(),
            cfg,
        );
        let lead = min_violations.first().unwrap_or(&violations[0]).clone();
        let max_ii = result.dfg.mii(&min_cgra).map_or(1, |m| m + cfg.extra_ii);
        let artifact = Artifact {
            seed,
            spec: result.spec.clone(),
            max_ii,
            expect: Expectation::Fail(lead.check),
            note: lead.to_string(),
            shrink_steps: result.steps.len() as u32,
            dfg: result.dfg.clone(),
        };
        (Some(result), Some(artifact))
    };

    SeedReport {
        seed,
        summary: scenario.summary(),
        outcomes: runs.iter().map(outcome_line).collect(),
        violations,
        shrink: shrink_result,
        artifact,
        runs: runs.into_iter().map(|r| r.outcome.stats).collect(),
    }
}

/// Fuzzes a seed range with `jobs` worker threads (reusing the bench
/// harness fan-out; reports come back in seed order regardless of
/// scheduling).
pub fn fuzz_range(seeds: std::ops::Range<u64>, cfg: &FuzzConfig, jobs: usize) -> Vec<SeedReport> {
    let seeds: Vec<u64> = seeds.collect();
    parallel_map(&seeds, jobs, |&seed| fuzz_one(seed, cfg))
}

/// Replays a persisted artifact: rebuilds the scenario it embeds, runs
/// the whole stack, and checks the observation against the artifact's
/// expectation. Returns an error message on mismatch.
///
/// # Errors
///
/// `Err(reason)` when an `expect pass` artifact produces any violation,
/// or an `expect fail <check>` artifact no longer reproduces one of the
/// named check.
pub fn replay(artifact: &Artifact, cfg: &FuzzConfig) -> Result<Vec<Violation>, String> {
    let cgra = artifact
        .spec
        .build()
        .map_err(|e| format!("artifact fabric does not build: {e}"))?;
    let scenario = Scenario::from_parts(artifact.seed, artifact.dfg.clone(), artifact.spec.clone());
    let mut replay_cfg = *cfg;
    // The artifact pins its own sweep depth.
    replay_cfg.extra_ii = artifact
        .max_ii
        .saturating_sub(artifact.dfg.mii(&cgra).unwrap_or(artifact.max_ii));
    let (_, violations) = evaluate(
        &artifact.dfg,
        &cgra,
        scenario.mapper_seed(),
        scenario.input_seed(),
        &replay_cfg,
    );
    match artifact.expect {
        Expectation::Pass => {
            if violations.is_empty() {
                Ok(violations)
            } else {
                Err(format!(
                    "expected a clean replay but got {} violation(s): {}",
                    violations.len(),
                    violations[0]
                ))
            }
        }
        Expectation::Fail(check) => {
            if violations.iter().any(|v| v.check == check) {
                Ok(violations)
            } else {
                Err(format!(
                    "expected a {check} violation but the replay produced {}",
                    if violations.is_empty() {
                        "none".to_string()
                    } else {
                        format!("only: {}", violations[0])
                    }
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FuzzConfig {
        FuzzConfig {
            budget_ms: 20_000, // caps bind, never the clock
            extra_ii: 2,
            sim_iterations: 6,
            shrink_budget: 60,
        }
    }

    #[test]
    fn a_few_seeds_run_clean() {
        for seed in 0..4 {
            let r = fuzz_one(seed, &quick());
            assert!(r.clean(), "seed {seed}:\n{}", r.render());
            assert_eq!(r.outcomes.len(), 4, "all four mappers ran");
            assert!(r.outcomes[3].starts_with("Exact:"), "{}", r.outcomes[3]);
            assert!(r.shrink.is_none());
            assert!(r.artifact.is_none());
        }
    }

    #[test]
    fn reports_render_deterministically() {
        let a = fuzz_one(11, &quick());
        let b = fuzz_one(11, &quick());
        assert_eq!(a.render(), b.render());
    }

    /// The wall-clock budget is only a safety net: every mapper's search
    /// is bounded by a deterministic cap, so two budgets far above the
    /// slowest attempt (the SAT run's, about 0.15 s on these seeds in a
    /// debug build) render byte-identical reports. These seeds are ones
    /// whose outcome lines once moved with the budget.
    #[test]
    fn reports_do_not_depend_on_the_wall_budget() {
        for seed in [8, 12, 18] {
            let render = |budget_ms| {
                let cfg = FuzzConfig {
                    budget_ms,
                    ..FuzzConfig::default()
                };
                fuzz_one(seed, &cfg).render()
            };
            assert_eq!(render(5_000), render(10_000), "seed {seed}");
        }
    }

    #[test]
    fn range_matches_individual_runs_regardless_of_jobs() {
        let cfg = quick();
        let serial = fuzz_range(0..6, &cfg, 1);
        let parallel = fuzz_range(0..6, &cfg, 3);
        assert_eq!(serial.len(), 6);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.render(), p.render());
        }
    }

    #[test]
    fn replay_round_trips_a_clean_scenario_as_artifact() {
        let cfg = quick();
        let scenario = Scenario::generate(2);
        let mii = scenario.dfg.mii(&scenario.cgra);
        let artifact = Artifact {
            seed: 2,
            spec: scenario.spec.clone(),
            max_ii: mii.map_or(1, |m| m + cfg.extra_ii),
            expect: Expectation::Pass,
            note: "round-trip test".into(),
            shrink_steps: 0,
            dfg: scenario.dfg.clone(),
        };
        let parsed = Artifact::from_text(&artifact.to_text()).unwrap();
        replay(&parsed, &cfg).expect("clean scenario replays clean");
    }

    #[test]
    fn replay_flags_a_wrong_expectation() {
        let cfg = quick();
        let scenario = Scenario::generate(2);
        let artifact = Artifact {
            seed: 2,
            spec: scenario.spec.clone(),
            max_ii: 4,
            expect: Expectation::Fail(CheckKind::Semantic),
            note: String::new(),
            shrink_steps: 0,
            dfg: scenario.dfg.clone(),
        };
        let err = replay(&artifact, &cfg).unwrap_err();
        assert!(err.contains("expected a semantic violation"), "{err}");
    }
}
