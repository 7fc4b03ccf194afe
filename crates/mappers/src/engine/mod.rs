//! The consolidated mapping engine: one II-search driver under every
//! mapper in the workspace.
//!
//! The paper's thesis is consolidation, and the outer mapping loop is the
//! same for every mapper the evaluation compares: compute the MII, try
//! each II in ascending order under a wall-clock budget, and assemble
//! [`MapStats`]. This module owns that loop once — [`IiSearch`] — while
//! each mapper implements only [`IiAttempt`]: *"try to map at this II
//! under this deadline."* Identical budget enforcement across mappers is
//! what makes the relative comparison fair (the same observation drives
//! mapper-agnostic harnesses like SAT-MapIt's modulo-scheduling loop).
//!
//! The engine also threads a typed [`MapEvent`] stream through every run;
//! see [`EventSink`] for the pluggable sinks.
//!
//! ```text
//! Mapper::map_with_events(dfg, cgra, limits, sink)
//!   └─ IiSearch::run
//!        ├─ MII, per-II deadline = min(ii_time_budget, total budget left)
//!        ├─ for ii in mii..=max_ii:
//!        │    emit IiStarted → IiAttempt::attempt → emit AttemptFinished
//!        └─ emit Mapped / GaveUp, assemble MapStats
//! ```

mod events;
mod sinks;

pub use events::{GiveUpReason, MapEvent, RunMeta};
pub use sinks::{EventSink, Fanout, JsonlTrace, MetricsSink, SharedSink, Silent, StderrProgress};

use crate::{MapLimits, MapOutcome, MapStats, Mapping};
use rewire_arch::Cgra;
use rewire_dfg::Dfg;
use rewire_obs as obs;
use rewire_obs::FlightEvent;
use std::time::{Duration, Instant};

/// The engine's passive stall watchdog.
///
/// No watchdog thread — a thread would observe wall-clock state
/// nondeterministically and could never be byte-identical-safe. Instead the
/// engine stamps a flight-recorder heartbeat at every attempt boundary and,
/// when an attempt *returns*, checks how far it overshot its deadline. An
/// overshoot beyond [`StallWatchdog::GRACE`] is a stall: the attempt sat
/// inside one inner iteration long past the budget — exactly the runtime
/// cliff the forensics pipeline exists to explain. Stalls are counted
/// (`engine.stalls`) and stamped into the flight record; nothing feeds back
/// into the search.
struct StallWatchdog {
    /// Deadline overshoot tolerated before an attempt counts as stalled.
    grace: Duration,
}

impl StallWatchdog {
    /// Overshoot tolerance: attempts legitimately finish their current
    /// inner iteration after the deadline, so only a 2× blowup (relative
    /// to a floor of 50 ms for tiny budgets) is flagged.
    fn new(ii_budget: Duration) -> Self {
        Self {
            grace: ii_budget.max(Duration::from_millis(50)),
        }
    }

    /// Heartbeat: the engine is about to hand control to an attempt.
    fn attempt_started(&self, ii: u32) {
        obs::flight_event(FlightEvent::AttemptPhase {
            phase: "attempt_start",
            ii,
        });
    }

    /// Heartbeat: the attempt returned. Flags a stall if control came
    /// back long after the deadline passed.
    fn attempt_finished(&self, ii: u32, routed: bool, deadline: Instant) {
        obs::flight_event(FlightEvent::AttemptPhase {
            phase: if routed { "attempt_ok" } else { "attempt_fail" },
            ii,
        });
        let overshoot = Instant::now().saturating_duration_since(deadline);
        if overshoot > self.grace {
            obs::counter("engine.stalls").incr();
            obs::flight_event(FlightEvent::AttemptPhase {
                phase: "stall_detected",
                ii,
            });
        }
    }

    /// Terminal heartbeat: the run is over. On failure this is the drain
    /// marker — export readers (the Chrome exporter merges the flight ring
    /// as instant events, `--flight` writes it verbatim) see the full
    /// decision record up to this stamp.
    fn run_ended(&self, phase: &'static str, ii: u32) {
        obs::flight_event(FlightEvent::AttemptPhase { phase, ii });
    }
}

/// The emitting half handed to attempts: a sink plus the run's identity.
///
/// Attempts call [`Emitter::emit`] for coarse-grained progress
/// ([`MapEvent::NegotiationRound`]); the engine uses the same channel for
/// the lifecycle events.
pub struct Emitter<'a> {
    meta: RunMeta<'a>,
    sink: &'a mut dyn EventSink,
    rounds: u64,
}

impl<'a> Emitter<'a> {
    /// Pairs a sink with a run identity. Public so the equivalence tests
    /// (and custom drivers) can feed attempts outside [`IiSearch`].
    pub fn new(meta: RunMeta<'a>, sink: &'a mut dyn EventSink) -> Self {
        Self {
            meta,
            sink,
            rounds: 0,
        }
    }

    /// Emits one event under this run's identity.
    pub fn emit(&mut self, event: MapEvent) {
        if matches!(event, MapEvent::NegotiationRound { .. }) {
            self.rounds += 1;
        }
        self.sink.emit(&self.meta, &event);
    }

    /// The run identity events are tagged with.
    pub fn meta(&self) -> &RunMeta<'a> {
        &self.meta
    }

    /// How many [`MapEvent::NegotiationRound`] events passed through —
    /// the engine copies this into [`MapStats::negotiation_rounds`].
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

/// Everything an attempt may depend on at one II.
///
/// The engine derives the deadline (per-II budget clamped to the total
/// budget) and a per-II seed; the attempt must not outlive the deadline
/// and must treat `seed` as its only source of per-II randomness *if* it
/// wants II-independent streams. (The workspace mappers instead carry one
/// RNG across IIs — the historical behaviour the determinism tests pin.)
#[derive(Clone, Copy, Debug)]
pub struct AttemptCtx<'a> {
    /// The II to attempt.
    pub ii: u32,
    /// The theoretical minimum II the search started from.
    pub mii: u32,
    /// Hard wall-clock deadline for this attempt.
    pub deadline: Instant,
    /// Per-II seed, [`worker_seed`]`(limits.seed, ii, 0)`.
    pub seed: u64,
    /// The run's budgets.
    pub limits: &'a MapLimits,
}

/// A machine-checked claim about one II, produced by *exact* attempts.
///
/// The heuristic mappers never set a verdict: their failures are upper
/// bounds ("didn't find a mapping"), not proofs. The exact SAT backend
/// sets one per attempt, which is what lets the engine, the MII-tightness
/// study, and the fuzz oracle treat a failure at an II as ground truth.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttemptVerdict {
    /// A mapping was found at this II *and* every lower II since MII was
    /// proven infeasible in the same sweep — the II is exactly minimal.
    Optimal,
    /// UNSAT: no mapping exists at this II (within the encoder's shared
    /// schedule horizon). A proof, trusted by the differential oracle.
    InfeasibleAtII,
    /// The deterministic conflict budget (or the wall-clock deadline)
    /// fired before a verdict; `conflicts` is how much search was spent.
    Unknown {
        /// Conflicts spent before giving up.
        conflicts: u64,
    },
}

impl AttemptVerdict {
    /// Stable label for traces and metrics: `"optimal"`,
    /// `"infeasible"`, or `"unknown"`.
    pub fn label(&self) -> &'static str {
        match self {
            AttemptVerdict::Optimal => "optimal",
            AttemptVerdict::InfeasibleAtII => "infeasible",
            AttemptVerdict::Unknown { .. } => "unknown",
        }
    }
}

/// What one II attempt produced.
#[derive(Debug, Default)]
pub struct AttemptOutcome {
    /// A complete, valid mapping at the attempted II, or `None`.
    pub mapping: Option<Mapping>,
    /// Single-node remapping iterations consumed (the Table I counter).
    pub iterations: u64,
    /// Residual resource overuse when the attempt failed (0 on success).
    pub overuse: u64,
    /// Exact backends attach a machine-checked per-II verdict; heuristic
    /// attempts leave `None`. The engine records it in
    /// [`MapStats::verdicts`].
    pub verdict: Option<AttemptVerdict>,
}

impl AttemptOutcome {
    /// A failed attempt with the given counters.
    pub fn failed(iterations: u64, overuse: u64) -> Self {
        Self {
            mapping: None,
            iterations,
            overuse,
            verdict: None,
        }
    }

    /// A successful attempt.
    pub fn mapped(mapping: Mapping, iterations: u64) -> Self {
        Self {
            mapping: Some(mapping),
            iterations,
            overuse: 0,
            verdict: None,
        }
    }

    /// Attaches an exact verdict to this outcome.
    pub fn with_verdict(mut self, verdict: AttemptVerdict) -> Self {
        self.verdict = Some(verdict);
        self
    }
}

/// One mapper's inner loop: *try to map at this II under this deadline.*
///
/// Implementations hold whatever state must persist across IIs (typically
/// the RNG stream) and are driven by [`IiSearch::run`]. The contract the
/// conformance suite audits:
///
/// * a returned mapping is complete, valid against the DFG/CGRA, and its
///   II equals `ctx.ii`;
/// * the attempt respects `ctx.deadline` (best effort — it may overshoot
///   by one inner iteration, never unboundedly);
/// * `iterations` counts the mapper's single-node remapping work so
///   [`MapStats::remap_iterations`] stays comparable across mappers.
pub trait IiAttempt {
    /// Attempts to map `dfg` onto `cgra` at `ctx.ii`.
    fn attempt(
        &mut self,
        dfg: &Dfg,
        cgra: &Cgra,
        ctx: &AttemptCtx<'_>,
        events: &mut Emitter<'_>,
    ) -> AttemptOutcome;
}

/// The shared ascending-II search driver.
///
/// Owns everything the three mappers used to duplicate: MII computation,
/// the `for ii in mii..=max_ii` loop, per-II *and* total wall-clock budget
/// enforcement, per-II seed derivation, [`MapStats`] assembly, and the
/// lifecycle events.
#[derive(Clone, Copy, Debug)]
pub struct IiSearch<'a> {
    name: &'a str,
}

impl<'a> IiSearch<'a> {
    /// A driver reporting `name` as the mapper name in stats and events.
    pub fn new(name: &'a str) -> Self {
        Self { name }
    }

    /// Runs the ascending-II search.
    ///
    /// Per II the attempt gets a deadline of `limits.ii_time_budget`,
    /// clamped so the whole run never exceeds
    /// [`MapLimits::total_time_budget`] (when set) — previously a failing
    /// workload could consume `max_ii × ii_time_budget`.
    pub fn run(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        limits: &MapLimits,
        attempt: &mut dyn IiAttempt,
        events: &mut dyn EventSink,
    ) -> MapOutcome {
        let start = Instant::now();
        let total_deadline = limits.total_time_budget.map(|budget| start + budget);
        // Observe-only: the scope attributes every metric recorded below
        // this frame (router counters included) to this run, and the spans
        // time the per-phase breakdown. Neither feeds back into mapping.
        let _scope = obs::scope(format!("{}/{}", self.name, dfg.name()));
        let run_span = obs::span("run");
        // Fabric size alongside the run's metrics, so `rewire-report` can
        // correlate map time and distance-table memory with PE count, and
        // the doctor can draw the fabric grid (PE ids are row-major).
        obs::gauge("engine.fabric_pes").set(cgra.num_pes() as i64);
        obs::gauge("engine.fabric_rows").set(i64::from(cgra.rows()));
        obs::gauge("engine.fabric_cols").set(i64::from(cgra.cols()));
        let watchdog = StallWatchdog::new(limits.ii_time_budget);
        let mut emitter = Emitter::new(
            RunMeta {
                mapper: self.name,
                kernel: dfg.name(),
                seed: limits.seed,
            },
            events,
        );
        let mut stats = MapStats {
            mapper: self.name.to_string(),
            kernel: dfg.name().to_string(),
            ..MapStats::default()
        };

        let mii = {
            let _mii_span = obs::span("mii");
            dfg.mii(cgra)
        };
        let Some(mii) = mii else {
            stats.elapsed = start.elapsed();
            emitter.emit(MapEvent::GaveUp {
                reason: GiveUpReason::NoMii,
                iis_explored: 0,
                elapsed_us: stats.elapsed.as_micros(),
            });
            obs::counter("engine.gave_up").incr();
            watchdog.run_ended("gave_up_no_mii", 0);
            drop(run_span);
            return MapOutcome {
                mapping: None,
                stats,
            };
        };
        stats.mii = mii;

        for ii in mii..=limits.max_ii {
            let now = Instant::now();
            if let Some(td) = total_deadline {
                if now >= td {
                    stats.elapsed = start.elapsed();
                    stats.negotiation_rounds = emitter.rounds();
                    emitter.emit(MapEvent::GaveUp {
                        reason: GiveUpReason::TotalBudget,
                        iis_explored: stats.iis_explored,
                        elapsed_us: stats.elapsed.as_micros(),
                    });
                    obs::counter("engine.gave_up").incr();
                    watchdog.run_ended("gave_up_total_budget", ii);
                    drop(run_span);
                    return MapOutcome {
                        mapping: None,
                        stats,
                    };
                }
            }
            stats.iis_explored += 1;
            obs::counter("engine.iis_explored").incr();
            let mut deadline = now + limits.ii_time_budget;
            if let Some(td) = total_deadline {
                deadline = deadline.min(td);
            }
            emitter.emit(MapEvent::IiStarted { ii });
            let ctx = AttemptCtx {
                ii,
                mii,
                deadline,
                seed: worker_seed(limits.seed, ii, 0),
                limits,
            };
            obs::counter("engine.attempts").incr();
            watchdog.attempt_started(ii);
            let attempt_start = Instant::now();
            let outcome = {
                let _attempt_span = obs::span("attempt");
                attempt.attempt(dfg, cgra, &ctx, &mut emitter)
            };
            let attempt_elapsed = attempt_start.elapsed();
            watchdog.attempt_finished(ii, outcome.mapping.is_some(), deadline);
            obs::histogram("engine.attempt_us")
                .record(u64::try_from(attempt_elapsed.as_micros()).unwrap_or(u64::MAX));
            stats.remap_iterations += outcome.iterations;
            if let Some(verdict) = outcome.verdict {
                stats.verdicts.push((ii, verdict));
            }
            emitter.emit(MapEvent::AttemptFinished {
                ii,
                routed: outcome.mapping.is_some(),
                overuse: outcome.overuse,
                iterations: outcome.iterations,
                elapsed_us: attempt_elapsed.as_micros(),
            });
            if let Some(mut m) = outcome.mapping {
                debug_assert!(m.is_valid(dfg, cgra), "attempt returned invalid mapping");
                debug_assert_eq!(m.ii(), ii, "attempt returned mapping at the wrong II");
                // Steiner consolidation: every successful mapping —
                // whichever mapper produced it — gets its multi-sink
                // signals re-routed as shared route trees. Strict-
                // improvement-only commits keep II and validity untouched
                // (see `crate::fanout`).
                {
                    let _consolidate_span = obs::span("consolidate_fanout");
                    crate::fanout::consolidate_fanout(dfg, cgra, &mut m);
                    debug_assert!(m.is_valid(dfg, cgra), "consolidation broke the mapping");
                }
                stats.achieved_ii = Some(ii);
                stats.elapsed = start.elapsed();
                stats.negotiation_rounds = emitter.rounds();
                emitter.emit(MapEvent::Mapped {
                    ii,
                    iis_explored: stats.iis_explored,
                    elapsed_us: stats.elapsed.as_micros(),
                });
                obs::counter("engine.mapped").incr();
                watchdog.run_ended("mapped", ii);
                drop(run_span);
                return MapOutcome {
                    mapping: Some(m),
                    stats,
                };
            }
        }

        stats.elapsed = start.elapsed();
        stats.negotiation_rounds = emitter.rounds();
        emitter.emit(MapEvent::GaveUp {
            reason: GiveUpReason::MaxIiReached,
            iis_explored: stats.iis_explored,
            elapsed_us: stats.elapsed.as_micros(),
        });
        obs::counter("engine.gave_up").incr();
        watchdog.run_ended("gave_up_max_ii", limits.max_ii);
        drop(run_span);
        MapOutcome {
            mapping: None,
            stats,
        }
    }
}

/// SplitMix64-style mix of `(base seed, II, stream rank)` into one derived
/// seed. A pure function of its inputs, so every derived stream is
/// reproducible: the engine uses rank 0 for [`AttemptCtx::seed`] and the
/// Rewire portfolio uses ranks `0..width` for its restart workers.
pub fn worker_seed(seed: u64, ii: u32, rank: u64) -> u64 {
    let mut z = seed ^ 0x5E11 ^ (u64::from(ii) << 32) ^ rank.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Collects every event for sequence assertions.
    #[derive(Default)]
    pub(crate) struct Recorder(pub Vec<MapEvent>);

    impl EventSink for Recorder {
        fn emit(&mut self, _meta: &RunMeta<'_>, event: &MapEvent) {
            self.0.push(event.clone());
        }
    }

    /// An attempt that always fails after sleeping, for budget tests.
    struct SleepyFail(Duration);

    impl IiAttempt for SleepyFail {
        fn attempt(
            &mut self,
            _dfg: &Dfg,
            _cgra: &Cgra,
            _ctx: &AttemptCtx<'_>,
            _events: &mut Emitter<'_>,
        ) -> AttemptOutcome {
            std::thread::sleep(self.0);
            AttemptOutcome::failed(1, 2)
        }
    }

    fn chain() -> Dfg {
        let mut dfg = Dfg::new("chain");
        let mut prev = dfg.add_node("ld", rewire_arch::OpKind::Load);
        for i in 0..3 {
            let n = dfg.add_node(format!("a{i}"), rewire_arch::OpKind::Add);
            dfg.add_edge(prev, n, 0).unwrap();
            prev = n;
        }
        dfg
    }

    #[test]
    fn total_budget_caps_the_ii_sweep() {
        let cgra = rewire_arch::presets::paper_4x4_r4();
        let dfg = chain();
        let limits = MapLimits::fast()
            .with_max_ii(1000)
            .with_ii_time_budget(Duration::from_millis(1))
            .with_total_time_budget(Duration::from_millis(40));
        let mut recorder = Recorder::default();
        let start = Instant::now();
        let out = IiSearch::new("test").run(
            &dfg,
            &cgra,
            &limits,
            &mut SleepyFail(Duration::from_millis(10)),
            &mut recorder,
        );
        assert!(out.mapping.is_none());
        // Without the total cap this would be 1000 × 10 ms; with it the
        // sweep stops after ~4 attempts.
        assert!(
            out.stats.iis_explored < 100,
            "explored {} IIs",
            out.stats.iis_explored
        );
        assert!(start.elapsed() < Duration::from_secs(5));
        match recorder.0.last() {
            Some(MapEvent::GaveUp { reason, .. }) => {
                assert_eq!(*reason, GiveUpReason::TotalBudget)
            }
            other => panic!("expected GaveUp, got {other:?}"),
        }
    }

    #[test]
    fn per_ii_deadline_is_clamped_to_the_total_budget() {
        struct DeadlineProbe(Vec<Duration>);
        impl IiAttempt for DeadlineProbe {
            fn attempt(
                &mut self,
                _dfg: &Dfg,
                _cgra: &Cgra,
                ctx: &AttemptCtx<'_>,
                _events: &mut Emitter<'_>,
            ) -> AttemptOutcome {
                self.0
                    .push(ctx.deadline.saturating_duration_since(Instant::now()));
                AttemptOutcome::failed(0, 0)
            }
        }
        let cgra = rewire_arch::presets::paper_4x4_r4();
        let dfg = chain();
        let limits = MapLimits::fast()
            .with_max_ii(4)
            .with_ii_time_budget(Duration::from_secs(3600))
            .with_total_time_budget(Duration::from_millis(200));
        let mut probe = DeadlineProbe(Vec::new());
        let _ = IiSearch::new("test").run(&dfg, &cgra, &limits, &mut probe, &mut Silent);
        assert!(!probe.0.is_empty());
        for remaining in &probe.0 {
            assert!(
                *remaining <= Duration::from_millis(200),
                "per-II deadline exceeds the total budget: {remaining:?}"
            );
        }
    }

    #[test]
    fn unmappable_dfg_gives_up_with_no_mii() {
        let cgra = rewire_arch::CgraBuilder::new(2, 2).build().unwrap();
        let mut dfg = Dfg::new("needs-mem");
        dfg.add_node("ld", rewire_arch::OpKind::Load);
        let mut recorder = Recorder::default();
        let out = IiSearch::new("test").run(
            &dfg,
            &cgra,
            &MapLimits::fast(),
            &mut SleepyFail(Duration::ZERO),
            &mut recorder,
        );
        assert!(out.mapping.is_none());
        assert_eq!(out.stats.iis_explored, 0);
        assert_eq!(recorder.0.len(), 1);
        assert!(matches!(
            recorder.0[0],
            MapEvent::GaveUp {
                reason: GiveUpReason::NoMii,
                ..
            }
        ));
    }

    #[test]
    fn exhausting_max_ii_gives_up_and_counts_iterations() {
        let cgra = rewire_arch::presets::paper_4x4_r4();
        let dfg = chain();
        let mii = dfg.mii(&cgra).unwrap();
        let limits = MapLimits::fast().with_max_ii(mii + 2);
        let mut recorder = Recorder::default();
        let out = IiSearch::new("test").run(
            &dfg,
            &cgra,
            &limits,
            &mut SleepyFail(Duration::ZERO),
            &mut recorder,
        );
        assert!(out.mapping.is_none());
        assert_eq!(out.stats.iis_explored, 3);
        assert_eq!(out.stats.remap_iterations, 3, "1 per attempted II");
        let starts = recorder
            .0
            .iter()
            .filter(|e| matches!(e, MapEvent::IiStarted { .. }))
            .count();
        let finishes = recorder
            .0
            .iter()
            .filter(|e| matches!(e, MapEvent::AttemptFinished { routed: false, .. }))
            .count();
        assert_eq!(starts, 3);
        assert_eq!(finishes, 3);
        assert!(matches!(
            recorder.0.last(),
            Some(MapEvent::GaveUp {
                reason: GiveUpReason::MaxIiReached,
                ..
            })
        ));
    }

    #[test]
    fn negotiation_rounds_are_totalled_into_stats() {
        struct TwoRounds;
        impl IiAttempt for TwoRounds {
            fn attempt(
                &mut self,
                _dfg: &Dfg,
                _cgra: &Cgra,
                ctx: &AttemptCtx<'_>,
                events: &mut Emitter<'_>,
            ) -> AttemptOutcome {
                for iteration in 1..=2 {
                    events.emit(MapEvent::NegotiationRound {
                        ii: ctx.ii,
                        iteration,
                        ill_nodes: 0,
                        overuse: 0,
                    });
                }
                AttemptOutcome::failed(0, 0)
            }
        }
        let cgra = rewire_arch::presets::paper_4x4_r4();
        let dfg = chain();
        let mii = dfg.mii(&cgra).unwrap();
        let limits = MapLimits::fast().with_max_ii(mii + 2);
        let out = IiSearch::new("test").run(&dfg, &cgra, &limits, &mut TwoRounds, &mut Silent);
        assert_eq!(out.stats.iis_explored, 3);
        assert_eq!(out.stats.negotiation_rounds, 6, "2 rounds × 3 IIs");
    }

    #[test]
    fn engine_metrics_are_scoped_per_run() {
        let cgra = rewire_arch::presets::paper_4x4_r4();
        let dfg = chain();
        let mii = dfg.mii(&cgra).unwrap();
        let limits = MapLimits::fast().with_max_ii(mii + 1);
        let _ = IiSearch::new("engine-metrics-test").run(
            &dfg,
            &cgra,
            &limits,
            &mut SleepyFail(Duration::ZERO),
            &mut Silent,
        );
        let snap = obs::metrics().snapshot();
        let s = &snap.scopes["engine-metrics-test/chain"];
        assert_eq!(s.counters["engine.iis_explored"], 2);
        assert_eq!(s.counters["engine.gave_up"], 1);
        assert_eq!(s.histograms["engine.attempt_us"].count, 2);
        assert_eq!(s.spans["run"].count, 1);
        assert_eq!(s.spans["run/mii"].count, 1);
        assert_eq!(s.spans["run/attempt"].count, 2);
        assert!(
            s.spans["run"].total_ns >= s.spans["run/attempt"].total_ns,
            "parent span covers its children"
        );
    }

    #[test]
    fn worker_seeds_are_distinct_and_stable() {
        let s0 = worker_seed(42, 2, 0);
        assert_eq!(s0, worker_seed(42, 2, 0), "pure function of its inputs");
        assert_ne!(s0, worker_seed(42, 2, 1), "ranks get distinct streams");
        assert_ne!(s0, worker_seed(42, 3, 0), "IIs get distinct streams");
        assert_ne!(s0, worker_seed(43, 2, 0), "seeds get distinct streams");
    }

    #[test]
    fn ctx_seed_is_the_rank_zero_worker_seed() {
        struct SeedProbe(Vec<(u32, u64)>);
        impl IiAttempt for SeedProbe {
            fn attempt(
                &mut self,
                _dfg: &Dfg,
                _cgra: &Cgra,
                ctx: &AttemptCtx<'_>,
                _events: &mut Emitter<'_>,
            ) -> AttemptOutcome {
                self.0.push((ctx.ii, ctx.seed));
                AttemptOutcome::failed(0, 0)
            }
        }
        let cgra = rewire_arch::presets::paper_4x4_r4();
        let dfg = chain();
        let limits = MapLimits::fast().with_seed(99).with_max_ii(3);
        let mut probe = SeedProbe(Vec::new());
        let _ = IiSearch::new("test").run(&dfg, &cgra, &limits, &mut probe, &mut Silent);
        for (ii, seed) in &probe.0 {
            assert_eq!(*seed, worker_seed(99, *ii, 0));
        }
    }
}
