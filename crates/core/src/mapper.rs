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
use rewire_mappers::engine::{AttemptCtx, AttemptOutcome, IiAttempt, IiSearch};
use rewire_mappers::{MapLimits, MapOutcome, Mapper, Mapping, PathFinderMapper};
use rewire_obs::{self as obs, FlightEvent};
use std::time::Instant;

/// Propagation rounds per cycle of spread between Parents(U) and
/// Children(U) (the paper's 3×).
const ROUND_SPREAD_FACTOR: u32 = 3;
/// Propagation rounds per step of the cluster's longest path, used when
/// the cluster has no mapped parents or no mapped children (the paper's
/// 5×).
const ROUND_PATH_FACTOR: u32 = 5;
/// Hard cap on propagation rounds (keeps the tuple store bounded).
const MAX_ROUNDS: u32 = 48;
/// Nodes in the first cluster of an amendment, when α allows that many.
const FIRST_CLUSTER_SIZE: usize = 3;

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
        let mut attempt = self.ii_attempt(limits);
        let outcome = IiSearch::new(self.name()).run(dfg, cgra, limits, &mut attempt);
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

            let first = self.config.alpha.min(FIRST_CLUSTER_SIZE);
            let size = if diversify {
                use rand::Rng as _;
                rng.random_range(1..=first + 2)
            } else {
                first
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

    /// One cluster attempt: propagation → intersection → Algorithm 2, each
    /// stage timed by its own span (`propagate`, `intersect`, `place`).
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
        // Stage spans close explicitly, so the three stay siblings.
        let propagate_span = obs::span("propagate");
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
        for r in reqs.iter().flatten() {
            let (source, direction, wave) = r.wave_key();
            let (pe, _) = mapping.placement(source).expect("source is mapped");
            let seed = |pe| PropagationSeed {
                source,
                direction,
                pe,
                cycle: wave,
                wave,
            };
            push_seed(seed(pe), &mut seeds);
            if direction == Direction::Backward {
                // A value may also be *delivered* into the consumer from
                // an upstream neighbour during the arrival cycle, if that
                // link cell is free.
                let slot = mapping.mrrg().slot_of(wave);
                for link in cgra.links_to(pe) {
                    let cell = rewire_mrrg::Resource::Link {
                        link: link.id(),
                        slot,
                    };
                    if mapping.occupancy().is_free(cell) {
                        push_seed(seed(link.src()), &mut seeds);
                    }
                }
            }
        }

        let rounds = propagation_rounds(dfg, &members, &seeds, ii);
        let store = propagate(cgra, mapping.occupancy(), &seeds, rounds);
        stats.tuples_generated += store.num_tuples();
        drop(propagate_span);

        let intersect_span = obs::span("intersect");
        let horizon = self.exec_horizon(dfg, mapping, ii);
        let mut candidates = Vec::with_capacity(members.len());
        for (v, rs) in members.iter().zip(&reqs) {
            let c = pcandidates(dfg, cgra, mapping, &store, *v, rs, &self.config, horizon);
            if c.options.is_empty() {
                // The requirement sources are the binding anchors.
                let sources: Vec<NodeId> = rs
                    .iter()
                    .map(|r| r.wave_key().0)
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
        drop(intersect_span);

        let _place_span = obs::span("place");
        if ClusterPlacer::new(dfg, cgra, &self.config).place(mapping, &candidates, deadline, stats)
        {
            Ok(())
        } else {
            Err(Vec::new())
        }
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

/// The paper's round heuristic: [`ROUND_SPREAD_FACTOR`]× the maximum cycle
/// difference between Parents(U) and Children(U); [`ROUND_PATH_FACTOR`]×
/// the cluster's longest path when one side is empty; at least
/// `max(II, 4)`, but never past the hard cap [`MAX_ROUNDS`], which wins
/// when the two disagree.
fn propagation_rounds(dfg: &Dfg, members: &[NodeId], seeds: &[PropagationSeed], ii: u32) -> u32 {
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
    let rounds = if !fwd.is_empty() && !bwd.is_empty() {
        let spread = bwd
            .iter()
            .flat_map(|&b| fwd.iter().map(move |&f| b.abs_diff(f)))
            .max()
            .unwrap_or(1)
            .max(1);
        ROUND_SPREAD_FACTOR * spread
    } else {
        let path = dfg.longest_path_within(members).max(1);
        ROUND_PATH_FACTOR * path
    };
    rounds.max(ii.max(4)).min(MAX_ROUNDS)
}

/// Rewire driven by the shared engine: per II, PF*'s initial mapping is
/// amended by randomised restarts within the engine's deadline. Accumulates the Rewire-specific counters in
/// [`rstats`](RewireAttempt::rstats) across the whole II sweep.
pub struct RewireAttempt<'m> {
    mapper: &'m RewireMapper,
    pf: PathFinderMapper,
    rng: StdRng,
    /// Rewire-specific counters accumulated over every attempted II.
    pub rstats: RewireStats,
}

impl IiAttempt for RewireAttempt<'_> {
    fn attempt(&mut self, dfg: &Dfg, cgra: &Cgra, ctx: &AttemptCtx) -> AttemptOutcome {
        let ii = ctx.ii;
        obs::flight_event(FlightEvent::AttemptPhase {
            phase: "initial",
            ii,
        });
        let initial = {
            let _initial_span = obs::span("initial");
            self.pf.initial_mapping(dfg, cgra, ii)
        };
        let Some(initial) = initial else {
            return AttemptOutcome::failed(0); // no modulo schedule at this II
        };
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
        };
        mirror_rstats_delta(&stats_before, &self.rstats);
        let iterations = self.rstats.clusters_attempted - before;
        AttemptOutcome {
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

    fn map(&self, dfg: &Dfg, cgra: &Cgra, limits: &MapLimits) -> MapOutcome {
        self.map_with_stats(dfg, cgra, limits).0
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
    fn metrics_cover_every_amendment_stage() {
        let cgra = presets::paper_4x4_r4();
        // A uniquely named kernel gives this test its own metric scope, so
        // parallel tests mapping the stock kernels cannot interfere. PF*'s
        // initial jacobi2d mapping is ill-mapped, so amendment runs
        // cluster attempts.
        let mut dfg = kernels::jacobi2d();
        dfg.set_name("rewire-obs-probe");
        let config = RewireConfig {
            max_restarts_per_ii: 1,
            ..Default::default()
        };
        let limits = MapLimits::fast().with_ii_time_budget(std::time::Duration::from_secs(30));
        let (out, rstats) = RewireMapper::with_config(config).map_with_stats(&dfg, &cgra, &limits);
        assert!(out.mapping.is_some());
        assert!(
            rstats.clusters_attempted > 0,
            "amendment ran cluster attempts"
        );

        let snap = obs::metrics().snapshot();
        let scope = snap
            .scopes
            .get("Rewire/rewire-obs-probe@4x4/r4")
            .expect("engine scoped the run as mapper/kernel@fabric");
        assert_eq!(scope.counters.get("engine.mapped"), Some(&1));
        let amend = "run/attempt/amend";
        let stages = ["propagate", "intersect", "place"].map(|s| format!("{amend}/{s}"));
        for path in ["run", "run/attempt", "run/attempt/initial", amend]
            .into_iter()
            .chain(stages.iter().map(String::as_str))
        {
            assert!(
                scope.spans.contains_key(path),
                "missing span {path:?}; have {:?}",
                scope.spans.keys().collect::<Vec<_>>()
            );
        }
        // One `propagate` span per cluster attempt, never one per route or
        // verification.
        assert_eq!(scope.spans[&stages[0]].count, rstats.clusters_attempted);
    }

    #[test]
    fn propagation_rounds_never_exceed_the_hard_cap() {
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("pair");
        let a = dfg.add_node("a", rewire_arch::OpKind::Add);
        let b = dfg.add_node("b", rewire_arch::OpKind::Add);
        dfg.add_edge(a, b, 0).unwrap();
        let pe = cgra.pes().next().unwrap().id();
        let seed = |direction, cycle| PropagationSeed {
            source: a,
            direction,
            pe,
            cycle,
            wave: cycle,
        };
        let fwd = [seed(Direction::Forward, 1)];
        // II 60 lifts the floor past the cap of 48 rounds: the cap wins
        // (this used to panic with "min > max").
        assert_eq!(propagation_rounds(&dfg, &[b], &fwd, 60), MAX_ROUNDS);
        // Between floor and cap the floor stands.
        assert_eq!(propagation_rounds(&dfg, &[b], &fwd, 30), 30);
        // One side only: 5× the cluster's longest path of one edge.
        assert_eq!(propagation_rounds(&dfg, &[a, b], &fwd, 1), 5);
        // Both sides: 3× the parent/child cycle spread.
        let both = [seed(Direction::Forward, 1), seed(Direction::Backward, 6)];
        assert_eq!(propagation_rounds(&dfg, &[b], &both, 1), 3 * 5);
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
