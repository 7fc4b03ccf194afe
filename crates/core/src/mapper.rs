//! The Rewire driver (Algorithm 1): amend PF*'s initial mapping by
//! re-mapping clusters of ill-mapped nodes in one shot, raising II when a
//! cluster cannot be mapped within the size limit α.

use crate::cluster::Cluster;
use crate::intersect::{pcandidates, requirements_for, Requirement};
use crate::placement::ClusterPlacer;
use crate::propagate::{propagate, Direction, PropagationSeed};
use crate::{RewireConfig, RewireStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rewire_arch::Cgra;
use rewire_dfg::{Dfg, NodeId};
use rewire_mappers::engine::{
    worker_seed, AttemptCtx, AttemptOutcome, Emitter, EventSink, IiAttempt, IiSearch, MapEvent,
    Silent,
};
use rewire_mappers::{MapLimits, MapOutcome, Mapper, Mapping, PathFinderMapper};
use rewire_obs::{self as obs, FlightEvent};
use std::time::Instant;

/// Mirrors the growth of [`RewireStats`] between two snapshots into the
/// `rewire.*` metric counters of the current scope. Called once per II
/// attempt so the cluster-amendment hot loops never touch an atomic.
fn mirror_rstats_delta(before: &RewireStats, after: &RewireStats) {
    let add = |name: &str, b: u64, a: u64| {
        if a > b {
            obs::counter(name).add(a - b);
        }
    };
    add(
        "rewire.clusters_attempted",
        before.clusters_attempted,
        after.clusters_attempted,
    );
    add(
        "rewire.cluster_growths",
        before.cluster_growths,
        after.cluster_growths,
    );
    add(
        "rewire.tuples_generated",
        before.tuples_generated,
        after.tuples_generated,
    );
    add(
        "rewire.verifications",
        before.verifications,
        after.verifications,
    );
    add(
        "rewire.verification_successes",
        before.verification_successes,
        after.verification_successes,
    );
    add(
        "rewire.combinations_pruned",
        before.combinations_pruned,
        after.combinations_pruned,
    );
}

/// The Rewire mapper.
///
/// Orthogonal to the initial-mapping producer by design ("Rewire ... can
/// take any initial mapping from other mappers"); this implementation uses
/// PF*'s initial pass, exactly as the paper's evaluation does.
#[derive(Clone, Debug, Default)]
pub struct RewireMapper {
    config: RewireConfig,
}

impl RewireMapper {
    /// Creates a Rewire mapper with the paper's default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a Rewire mapper with an explicit configuration.
    pub fn with_config(config: RewireConfig) -> Self {
        Self { config }
    }

    /// Like [`Mapper::map`] but also returns the Rewire-specific counters
    /// (propagation tuples, verification success rate, cluster growth).
    pub fn map_with_stats(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        limits: &MapLimits,
    ) -> (MapOutcome, RewireStats) {
        self.map_with_stats_and_events(dfg, cgra, limits, &mut Silent)
    }

    /// [`map_with_stats`](RewireMapper::map_with_stats) with an event sink.
    pub fn map_with_stats_and_events(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        limits: &MapLimits,
        events: &mut dyn EventSink,
    ) -> (MapOutcome, RewireStats) {
        let mut attempt = self.ii_attempt(limits);
        let outcome = IiSearch::new(self.name()).run(dfg, cgra, limits, &mut attempt, events);
        (outcome, attempt.rstats)
    }

    /// Builds the [`IiAttempt`] adapter driving this mapper through the
    /// shared [`IiSearch`] engine. The restart RNG stream
    /// (`seed ^ 0x5E11`) is created once and carried across IIs exactly as
    /// the pre-engine loop did; the Rewire-specific counters accumulate in
    /// [`RewireAttempt::rstats`].
    pub fn ii_attempt(&self, limits: &MapLimits) -> RewireAttempt<'_> {
        RewireAttempt {
            mapper: self,
            // The initial mapping only needs to be cheap and roughly
            // sensible — Rewire amends it — so cap PF*'s per-placement
            // evaluations instead of using its exhaustive evaluation mode.
            pf: PathFinderMapper::with_config(rewire_mappers::PathFinderConfig {
                max_full_evals: 12,
                ..Default::default()
            }),
            rng: StdRng::seed_from_u64(limits.seed ^ 0x5E11),
            rstats: RewireStats::default(),
        }
    }

    /// Races `portfolio_width` independently seeded restart workers over
    /// one II's budget and reduces their results deterministically.
    ///
    /// Each worker owns a seed derived only from `(limits.seed, ii, rank)`
    /// — never from thread identity or timing — so every worker's search
    /// trajectory is reproducible in isolation. All workers are joined in
    /// rank order and the winner among same-II successes is the mapping
    /// with the fewest occupied MRRG cells, ties broken by lowest worker
    /// rank. Thread scheduling can therefore change *how fast* an answer
    /// arrives, but (whenever the attempt caps rather than the wall-clock
    /// deadline bind) not *which* answer is returned.
    #[allow(clippy::too_many_arguments)]
    fn portfolio_amend(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        initial: &Mapping,
        deadline: Instant,
        ii: u32,
        limits: &MapLimits,
        rstats: &mut RewireStats,
    ) -> Option<Mapping> {
        let width = self.config.portfolio_width;
        // Workers are fresh threads with no metric scope of their own:
        // carry the run's scope and span path across the spawn so their
        // counters and timers land under the same `mapper/kernel` scope as
        // the serial path.
        let metric_scope = obs::current_scope();
        let parent_span = obs::current_span_path();
        // Resolve (or build) this thread's hop-distance oracle once and
        // hand the Arc to every worker: the workers' routers then prune
        // from the shared table instead of re-running the all-pairs BFS
        // on each fresh thread.
        let distances = rewire_mrrg::thread_distance_table(cgra);
        let results: Vec<(Option<Mapping>, RewireStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..width)
                .map(|rank| {
                    let metric_scope = metric_scope.clone();
                    let parent_span = parent_span.clone();
                    let distances = std::sync::Arc::clone(&distances);
                    scope.spawn(move || {
                        let _scope = obs::scope(metric_scope);
                        let _span = obs::span_under(&parent_span, "worker");
                        rewire_mrrg::install_thread_distance_table(distances);
                        let mut rng =
                            StdRng::seed_from_u64(worker_seed(limits.seed, ii, rank as u64));
                        let mut stats = RewireStats::default();
                        let mut amended = None;
                        let mut restarts = 0;
                        while amended.is_none()
                            && restarts < self.config.max_restarts_per_ii
                            && Instant::now() < deadline
                        {
                            restarts += 1;
                            if restarts > 1 {
                                obs::counter("rewire.restarts").incr();
                            }
                            // Rank 0's first restart mirrors the serial
                            // path (no diversification); every other
                            // worker diversifies from its first attempt so
                            // the portfolio actually spreads the search.
                            amended = self.amend_with(
                                dfg,
                                cgra,
                                initial.clone(),
                                deadline,
                                &mut rng,
                                &mut stats,
                                rank > 0 || restarts > 1,
                            );
                        }
                        (amended, stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("portfolio worker panicked"))
                .collect()
        });
        let mut best: Option<(usize, usize, Mapping)> = None;
        for (rank, (mapping, stats)) in results.into_iter().enumerate() {
            rstats.merge(&stats);
            if let Some(m) = mapping {
                let cost = m.occupancy().used_cells();
                if best
                    .as_ref()
                    .is_none_or(|(bc, br, _)| (cost, rank) < (*bc, *br))
                {
                    best = Some((cost, rank, m));
                }
            }
        }
        best.map(|(_, _, m)| m)
    }

    /// Amends an initial (possibly invalid) mapping at its II. This is the
    /// heart of Rewire (Alg. 1 lines 5–15) and is public so that users can
    /// pair Rewire with their own initial-mapping producer.
    pub fn amend(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        mapping: Mapping,
        deadline: Instant,
        rng: &mut StdRng,
        stats: &mut RewireStats,
    ) -> Option<Mapping> {
        self.amend_with(dfg, cgra, mapping, deadline, rng, stats, false)
    }

    /// [`amend`](RewireMapper::amend) with optional search diversification
    /// (randomised cluster sizes and candidate ordering), used by the
    /// driver's randomised restarts.
    #[allow(clippy::too_many_arguments)]
    fn amend_with(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        mut mapping: Mapping,
        deadline: Instant,
        rng: &mut StdRng,
        stats: &mut RewireStats,
        diversify: bool,
    ) -> Option<Mapping> {
        // Unmap every ill node: unplaced stays unplaced, congested/unrouted
        // placements are released together with their routes.
        loop {
            let ill = mapping.ill_mapped_nodes(dfg);
            let placed_ill: Vec<NodeId> =
                ill.into_iter().filter(|&n| mapping.is_placed(n)).collect();
            if placed_ill.is_empty() {
                break;
            }
            for n in placed_ill {
                mapping.unplace(dfg, n);
            }
        }

        let mut attempts_this_ii = 0u64;
        loop {
            let unmapped = mapping.unplaced_nodes(dfg);
            if unmapped.is_empty() {
                return mapping.is_complete(dfg).then_some(mapping);
            }
            if Instant::now() >= deadline {
                return None;
            }

            let size = if diversify {
                use rand::Rng as _;
                rng.random_range(1..=self.config.initial_cluster_size + 2)
            } else {
                self.config.initial_cluster_size
            }
            .min(unmapped.len())
            .max(1);
            let mut cluster = Cluster::select(dfg, &unmapped, size, rng);
            loop {
                if Instant::now() >= deadline
                    || attempts_this_ii >= self.config.max_cluster_attempts
                {
                    return None;
                }
                attempts_this_ii += 1;
                stats.clusters_attempted += 1;
                let binding = match self.try_cluster(
                    dfg,
                    cgra,
                    &mut mapping,
                    &cluster,
                    deadline,
                    stats,
                    diversify,
                    rng,
                ) {
                    Ok(()) => break, // back to the outer loop
                    Err(binding) => binding,
                };
                if cluster.len() >= self.config.alpha {
                    return None; // Alg. 1 line 7/15: II must increase
                }
                // Grow the cluster (Alg. 1 line 13). When the intersection
                // was empty, the failing node's requirement *sources* are
                // the binding mapped anchors — mutually inconsistent
                // placements that must be re-placed jointly with the
                // cluster, so they are preferred. Otherwise grow by the
                // nearest connected node; mapped nodes are eligible too and
                // get unmapped on selection.
                let pool: Vec<NodeId> = if binding.is_empty() {
                    dfg.node_ids().filter(|n| !cluster.contains(*n)).collect()
                } else {
                    binding
                };
                match cluster.grow(dfg, &pool) {
                    Some(n) => {
                        if mapping.is_placed(n) {
                            mapping.unplace(dfg, n);
                        }
                        stats.cluster_growths += 1;
                    }
                    None => return None,
                }
            }
        }
    }

    /// One cluster attempt: propagation → intersection → Algorithm 2.
    #[allow(clippy::too_many_arguments)]
    fn try_cluster(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        mapping: &mut Mapping,
        cluster: &Cluster,
        deadline: Instant,
        stats: &mut RewireStats,
        diversify: bool,
        rng: &mut StdRng,
    ) -> Result<(), Vec<NodeId>> {
        let ii = mapping.ii();
        let members = cluster.topo_sorted(dfg);
        let reqs: Vec<Vec<Requirement>> = members
            .iter()
            .map(|&v| requirements_for(dfg, mapping, v))
            .collect();

        // Seeds: one wave per distinct requirement source/direction, plus
        // delivery-neighbour seeds on the backward side.
        let mut seeds: Vec<PropagationSeed> = Vec::new();
        let push_seed = |s: PropagationSeed, seeds: &mut Vec<PropagationSeed>| {
            if !seeds.iter().any(|x| {
                x.source == s.source
                    && x.direction == s.direction
                    && x.pe == s.pe
                    && x.cycle == s.cycle
            }) {
                seeds.push(s);
            }
        };
        for rs in &reqs {
            for r in rs {
                match *r {
                    Requirement::Direct {
                        source,
                        direction: Direction::Forward,
                        wave,
                        ..
                    }
                    | Requirement::Transitive {
                        source,
                        direction: Direction::Forward,
                        wave,
                        ..
                    } => {
                        let (pe, _) = mapping.placement(source).expect("source is mapped");
                        push_seed(
                            PropagationSeed {
                                source,
                                direction: Direction::Forward,
                                pe,
                                cycle: wave,
                                wave,
                            },
                            &mut seeds,
                        );
                    }
                    Requirement::Direct {
                        source,
                        direction: Direction::Backward,
                        wave,
                        ..
                    }
                    | Requirement::Transitive {
                        source,
                        direction: Direction::Backward,
                        wave,
                        ..
                    } => {
                        let (pe, _) = mapping.placement(source).expect("source is mapped");
                        push_seed(
                            PropagationSeed {
                                source,
                                direction: Direction::Backward,
                                pe,
                                cycle: wave,
                                wave,
                            },
                            &mut seeds,
                        );
                        // A value may also be *delivered* into the consumer
                        // from an upstream neighbour during the arrival
                        // cycle, if that link cell is free.
                        let slot = mapping.mrrg().slot_of(wave);
                        for link in cgra.links_to(pe) {
                            let cell = rewire_mrrg::Resource::Link {
                                link: link.id(),
                                slot,
                            };
                            if mapping.occupancy().is_free(cell) {
                                push_seed(
                                    PropagationSeed {
                                        source,
                                        direction: Direction::Backward,
                                        pe: link.src(),
                                        cycle: wave,
                                        wave,
                                    },
                                    &mut seeds,
                                );
                            }
                        }
                    }
                }
            }
        }

        let rounds = self.propagation_rounds(dfg, mapping, &members, &seeds, ii);
        let store = propagate(cgra, mapping.occupancy(), &seeds, rounds);
        stats.tuples_generated += store.num_tuples();

        let horizon = self.exec_horizon(dfg, mapping, ii);
        let mut candidates = Vec::with_capacity(members.len());
        for (v, rs) in members.iter().zip(&reqs) {
            let c = pcandidates(dfg, cgra, mapping, &store, *v, rs, &self.config, horizon);
            if c.options.is_empty() {
                // The requirement sources are the binding anchors.
                let sources: Vec<NodeId> = rs
                    .iter()
                    .map(|r| match *r {
                        Requirement::Direct { source, .. }
                        | Requirement::Transitive { source, .. } => source,
                    })
                    .filter(|s| !cluster.contains(*s))
                    .collect();
                return Err(sources);
            }
            candidates.push(c);
        }
        if diversify {
            use rand::seq::SliceRandom as _;
            for c in &mut candidates {
                c.options.shuffle(rng);
            }
        }
        // Most-constrained-first ordering (stable w.r.t. the topological
        // order on ties): enumerating scarce-candidate members near the
        // root lets the execution-cycle constraints prune exponentially
        // earlier on large clusters. Algorithm 2's pairwise checks are
        // order-independent.
        candidates.sort_by_key(|c| c.options.len());

        let mut emptied = None;
        let ok = ClusterPlacer::new(dfg, cgra, &self.config).place_with_diagnosis(
            mapping,
            &candidates,
            deadline,
            stats,
            &mut emptied,
        );
        // Note: when the arc pass empties a member (`emptied`), growing by
        // that member's anchors turned out to over-rip on large fabrics;
        // nearest-node growth recovers better, so the diagnosis is only
        // used for debugging.
        let _ = emptied;
        if ok {
            Ok(())
        } else {
            Err(Vec::new())
        }
    }

    /// The paper's round heuristic: 3× the maximum cycle difference between
    /// Parents(U) and Children(U); 5× the cluster's longest path when one
    /// side is empty; clamped for sanity.
    fn propagation_rounds(
        &self,
        dfg: &Dfg,
        mapping: &Mapping,
        members: &[NodeId],
        seeds: &[PropagationSeed],
        ii: u32,
    ) -> u32 {
        let fwd: Vec<u32> = seeds
            .iter()
            .filter(|s| s.direction == Direction::Forward)
            .map(|s| s.cycle)
            .collect();
        let bwd: Vec<u32> = seeds
            .iter()
            .filter(|s| s.direction == Direction::Backward)
            .map(|s| s.cycle)
            .collect();
        let _ = mapping;
        let rounds = if !fwd.is_empty() && !bwd.is_empty() {
            let spread = bwd
                .iter()
                .flat_map(|&b| fwd.iter().map(move |&f| b.abs_diff(f)))
                .max()
                .unwrap_or(1)
                .max(1);
            self.config.round_spread_factor * spread
        } else {
            let path = dfg.longest_path_within(members).max(1);
            self.config.round_path_factor * path
        };
        rounds.clamp(ii.max(4), self.config.max_rounds)
    }

    /// Upper bound on cluster execution cycles: past the latest mapped
    /// operation plus slack for routing detours.
    fn exec_horizon(&self, dfg: &Dfg, mapping: &Mapping, ii: u32) -> u32 {
        let latest = dfg
            .node_ids()
            .filter_map(|n| mapping.placement(n).map(|(_, t)| t))
            .max()
            .unwrap_or(0);
        latest + 2 * ii + 4
    }
}

/// Rewire driven by the shared engine: per II, PF*'s initial mapping is
/// amended by randomised restarts (serial or portfolio-parallel) within the
/// engine's deadline. Accumulates the Rewire-specific counters in
/// [`rstats`](RewireAttempt::rstats) across the whole II sweep.
pub struct RewireAttempt<'m> {
    mapper: &'m RewireMapper,
    pf: PathFinderMapper,
    rng: StdRng,
    /// Rewire-specific counters accumulated over every attempted II.
    pub rstats: RewireStats,
}

impl IiAttempt for RewireAttempt<'_> {
    fn attempt(
        &mut self,
        dfg: &Dfg,
        cgra: &Cgra,
        ctx: &AttemptCtx<'_>,
        events: &mut Emitter<'_>,
    ) -> AttemptOutcome {
        let ii = ctx.ii;
        obs::flight_event(FlightEvent::AttemptPhase {
            phase: "initial",
            ii,
        });
        let initial = {
            let _initial_span = obs::span("initial");
            self.pf.initial_mapping(dfg, cgra, ii, ctx.limits.seed)
        };
        let Some(initial) = initial else {
            return AttemptOutcome::failed(0, 0); // no modulo schedule at this II
        };
        let initial_overuse = initial.total_overuse() as u64;
        events.emit(MapEvent::NegotiationRound {
            ii,
            iteration: 0,
            ill_nodes: initial.ill_mapped_nodes(dfg).len(),
            overuse: initial_overuse,
        });
        // Randomised restarts within the per-II budget: a cluster
        // amendment that dead-ends (greedy commits can paint into corners)
        // is retried from the initial mapping with fresh random cluster
        // selections — the paper's counterpart is its one-hour-per-II
        // exploration budget.
        let before = self.rstats.clusters_attempted;
        let stats_before = self.rstats;
        obs::flight_event(FlightEvent::AttemptPhase { phase: "amend", ii });
        let amended = {
            let _amend_span = obs::span("amend");
            if self.mapper.config.portfolio_width > 1 {
                self.mapper.portfolio_amend(
                    dfg,
                    cgra,
                    &initial,
                    ctx.deadline,
                    ii,
                    ctx.limits,
                    &mut self.rstats,
                )
            } else {
                let mut amended = None;
                let mut restarts = 0;
                while amended.is_none()
                    && restarts < self.mapper.config.max_restarts_per_ii
                    && Instant::now() < ctx.deadline
                {
                    restarts += 1;
                    if restarts > 1 {
                        obs::counter("rewire.restarts").incr();
                    }
                    // Later restarts diversify cluster sizes and candidate
                    // order to escape greedy dead-ends.
                    amended = self.mapper.amend_with(
                        dfg,
                        cgra,
                        initial.clone(),
                        ctx.deadline,
                        &mut self.rng,
                        &mut self.rstats,
                        restarts > 1,
                    );
                }
                amended
            }
        };
        mirror_rstats_delta(&stats_before, &self.rstats);
        let iterations = self.rstats.clusters_attempted - before;
        AttemptOutcome {
            overuse: if amended.is_some() {
                0
            } else {
                initial_overuse
            },
            mapping: amended,
            iterations,
            verdict: None,
        }
    }
}

impl Mapper for RewireMapper {
    fn name(&self) -> &'static str {
        "Rewire"
    }

    fn map_with_events(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        limits: &MapLimits,
        events: &mut dyn EventSink,
    ) -> MapOutcome {
        self.map_with_stats_and_events(dfg, cgra, limits, events).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::presets;
    use rewire_dfg::kernels;

    #[test]
    fn maps_a_small_chain_at_mii() {
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("chain");
        let mut prev = dfg.add_node("ld", rewire_arch::OpKind::Load);
        for i in 0..4 {
            let n = dfg.add_node(format!("a{i}"), rewire_arch::OpKind::Add);
            dfg.add_edge(prev, n, 0).unwrap();
            prev = n;
        }
        let out = RewireMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        let m = out.mapping.expect("trivial chain maps");
        assert_eq!(out.stats.achieved_ii, Some(1));
        assert!(m.is_valid(&dfg, &cgra));
    }

    #[test]
    fn maps_gesummv_and_validates() {
        let cgra = presets::paper_4x4_r4();
        let dfg = kernels::gesummv();
        let (out, rstats) = RewireMapper::new().map_with_stats(
            &dfg,
            &cgra,
            &MapLimits::fast().with_ii_time_budget(std::time::Duration::from_secs(3)),
        );
        let m = out.mapping.expect("gesummv maps on 4x4/r4");
        assert!(m.is_valid(&dfg, &cgra));
        assert!(rstats.clusters_attempted >= 1);
        assert!(rstats.tuples_generated > 0);
    }

    #[test]
    fn unmappable_dfg_fails_cleanly() {
        let cgra = rewire_arch::CgraBuilder::new(2, 2).build().unwrap();
        let mut dfg = Dfg::new("needs-mem");
        dfg.add_node("ld", rewire_arch::OpKind::Load);
        let out = RewireMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        assert!(out.mapping.is_none());
        assert_eq!(out.stats.iis_explored, 0);
    }

    #[test]
    fn portfolio_maps_and_is_deterministic() {
        let cgra = presets::paper_4x4_r4();
        let dfg = kernels::fir();
        // Portfolio determinism is only guaranteed when deterministic caps
        // bind instead of the wall-clock deadline (DESIGN.md §6b), so cap
        // the restarts explicitly — the default (unbounded restarts) leaves
        // the deadline binding, which flakes on slow or loaded machines.
        let limits = MapLimits::fast().with_ii_time_budget(std::time::Duration::from_secs(30));
        let config = RewireConfig {
            portfolio_width: 3,
            max_restarts_per_ii: 3,
            ..Default::default()
        };
        let a = RewireMapper::with_config(config.clone()).map(&dfg, &cgra, &limits);
        let b = RewireMapper::with_config(config).map(&dfg, &cgra, &limits);
        assert!(a.mapping.is_some(), "fir maps on 4x4/r4 under a portfolio");
        assert_eq!(a.stats.achieved_ii, b.stats.achieved_ii);
    }

    #[test]
    fn metrics_cover_the_portfolio_workers() {
        let cgra = presets::paper_4x4_r4();
        // A uniquely named kernel gives this test its own metric scope, so
        // parallel tests mapping the stock kernels cannot interfere.
        let mut dfg = Dfg::new("rewire-obs-probe");
        let mut prev = dfg.add_node("ld", rewire_arch::OpKind::Load);
        for i in 0..4 {
            let n = dfg.add_node(format!("a{i}"), rewire_arch::OpKind::Add);
            dfg.add_edge(prev, n, 0).unwrap();
            prev = n;
        }
        let config = RewireConfig {
            portfolio_width: 2,
            ..Default::default()
        };
        let out = RewireMapper::with_config(config).map(&dfg, &cgra, &MapLimits::fast());
        assert!(out.mapping.is_some());

        let snap = obs::metrics().snapshot();
        let scope = snap
            .scopes
            .get("Rewire/rewire-obs-probe")
            .expect("engine scoped the run as mapper/kernel");
        assert_eq!(scope.counters.get("engine.mapped"), Some(&1));
        for path in [
            "run",
            "run/attempt",
            "run/attempt/initial",
            "run/attempt/amend",
        ] {
            assert!(
                scope.spans.contains_key(path),
                "missing span {path:?}; have {:?}",
                scope.spans.keys().collect::<Vec<_>>()
            );
        }
        // The portfolio workers run on fresh threads; their timers must
        // still land under the run's scope and span path.
        let worker = scope
            .spans
            .get("run/attempt/amend/worker")
            .expect("worker spans carried across the spawn");
        assert_eq!(worker.count, 2, "one span per portfolio worker");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cgra = presets::paper_4x4_r4();
        let dfg = kernels::fir();
        let limits = MapLimits::fast().with_ii_time_budget(std::time::Duration::from_secs(30));
        let a = RewireMapper::new().map(&dfg, &cgra, &limits);
        let b = RewireMapper::new().map(&dfg, &cgra, &limits);
        assert_eq!(a.stats.achieved_ii, b.stats.achieved_ii);
    }
}
