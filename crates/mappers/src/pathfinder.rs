//! `PF*` — the PathFinder-style negotiated-congestion baseline.
//!
//! The paper describes its fine-tuned comparator as: "generate an initial
//! mapping by selecting the placement with the minimal routing cost for the
//! edges and then amend the mapping through multiple remapping iterations
//! until a feasible solution is reached". This implementation follows that
//! recipe, in the SPR/PathFinder tradition:
//!
//! 1. nodes are placed in topological order at the min-cost `(PE, time)`
//!    candidate under a negotiated congestion cost (overuse allowed),
//! 2. while the mapping is invalid, one ill-mapped node per iteration is
//!    ripped up and re-placed at the then-cheapest candidate, with history
//!    costs accumulating on persistently overused cells,
//! 3. if the iteration or time budget is exhausted, II is increased.
//!
//! Every rip-up/re-place counts as one *single-node remapping iteration* —
//! the quantity Table I reports.

use crate::engine::{AttemptCtx, AttemptOutcome, IiAttempt, IiSearch};
use crate::schedule::{candidate_pes, modulo_schedule};
use crate::{MapLimits, MapOutcome, Mapper, Mapping};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rewire_arch::{Cgra, PeId};
use rewire_dfg::{Dfg, EdgeId, NodeId};
use rewire_mrrg::{CostModel, Mrrg, NegotiatedCost, Resource, Route, Router};
use rewire_obs::{self as obs, FlightEvent};
use std::time::Instant;

/// Configuration of the PF* baseline.
#[derive(Clone, Debug)]
pub struct PathFinderConfig {
    /// Present-congestion factor of the negotiated cost.
    pub present_factor: f64,
    /// History increment applied to overused cells each iteration.
    pub history_increment: f64,
    /// Hard cap on remapping iterations per II.
    pub max_iterations_per_ii: u64,
    /// How many schedule times are examined per candidate PE.
    pub times_per_candidate: u32,
    /// How many promising candidates are fully routed per placement.
    /// The paper's PF* "evaluates all the placement candidates", so the
    /// default is unlimited (the admissible lower-bound cut still applies);
    /// lower it for a faster, weaker baseline.
    pub max_full_evals: u32,
    /// When `true`, a failed II attempt is retried with fresh randomness
    /// until the per-II wall-clock budget is exhausted, instead of the
    /// faithful early termination ("backtracking limitation"). Used by the
    /// equal-budget compile-time experiment (Fig 6).
    pub use_full_budget: bool,
}

impl Default for PathFinderConfig {
    fn default() -> Self {
        Self {
            present_factor: 4.0,
            history_increment: 1.0,
            max_iterations_per_ii: 900,
            times_per_candidate: 6,
            max_full_evals: u32::MAX,
            use_full_budget: false,
        }
    }
}

/// The PF* mapper. See the module docs for the algorithm.
#[derive(Clone, Debug, Default)]
pub struct PathFinderMapper {
    config: PathFinderConfig,
}

impl PathFinderMapper {
    /// Creates a PF* mapper with default negotiation factors.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a PF* mapper with an explicit configuration.
    pub fn with_config(config: PathFinderConfig) -> Self {
        Self { config }
    }

    /// Produces only the *initial* (possibly invalid) mapping at `ii` —
    /// the starting point the paper feeds to Rewire ("we use the initial
    /// mapping of PF* as the initial mapping for Rewire").
    ///
    /// Returns `None` when no modulo schedule exists at `ii` (below
    /// RecMII).
    pub fn initial_mapping(&self, dfg: &Dfg, cgra: &Cgra, ii: u32, seed: u64) -> Option<Mapping> {
        let mut rng = StdRng::seed_from_u64(seed);
        let asap = modulo_schedule(dfg, cgra, ii)?;
        let mrrg = Mrrg::new(cgra, ii);
        let router = Router::new(cgra, &mrrg);
        let mut mapping = Mapping::new(dfg, &mrrg);
        let cost = NegotiatedCost::new(&mrrg, self.config.present_factor, 0.0);
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        let mut placement_history = vec![0.0f64; dfg.num_nodes() * cgra.num_pes()];
        for v in dfg.topo_order() {
            self.place_min_cost(
                dfg,
                cgra,
                &router,
                &mut mapping,
                &asap,
                v,
                &cost,
                &mut placement_history,
                &mut rng,
                deadline,
            );
        }
        Some(mapping)
    }

    /// One full II attempt. Returns the mapping on success and the number
    /// of remapping iterations spent either way.
    fn try_ii(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        ii: u32,
        deadline: Instant,
        rng: &mut StdRng,
    ) -> (Option<Mapping>, u64) {
        let Some(asap) = modulo_schedule(dfg, cgra, ii) else {
            return (None, 0);
        };
        let mrrg = Mrrg::new(cgra, ii);
        let router = Router::new(cgra, &mrrg);
        let mut mapping = Mapping::new(dfg, &mrrg);
        let mut cost = NegotiatedCost::new(
            &mrrg,
            self.config.present_factor,
            self.config.history_increment,
        );

        let m_placements = obs::counter("pf.placements");
        let m_rip_ups = obs::counter("pf.rip_ups");

        // Placement history: (node, PE) pairs that were tried and left
        // edges unrouted get progressively more expensive, the PathFinder
        // idea lifted from cells to placements. Without it the cost
        // landscape is static and endpoint pairs ping-pong forever.
        let mut placement_history = vec![0.0f64; dfg.num_nodes() * cgra.num_pes()];
        {
            let _place_span = obs::span("place");
            for v in dfg.topo_order() {
                self.place_min_cost(
                    dfg,
                    cgra,
                    &router,
                    &mut mapping,
                    &asap,
                    v,
                    &cost,
                    &mut placement_history,
                    rng,
                    deadline,
                );
                m_placements.incr();
            }
        }

        let _negotiate_span = obs::span("negotiate");
        let mut iterations = 0u64;
        // Stall detection drives the escalation to *partial remapping*
        // (the paper's term): when single-node moves stop reducing the
        // ill-node count, the victim's whole placed neighbourhood is
        // ripped so a multi-node repair can happen.
        let mut best_ill = usize::MAX;
        let mut stall = 0u32;
        while iterations < self.config.max_iterations_per_ii && Instant::now() < deadline {
            if mapping.is_complete(dfg) {
                debug_assert!(mapping.is_valid(dfg, cgra));
                return (Some(mapping), iterations);
            }
            // Subtree-delta re-routing: before ripping up whole
            // placements, try the cheaper repair of re-growing just the
            // branches of fan-out trees that cross congested cells.
            // Consumes no randomness, commits only on a strict overuse
            // decrease, and can finish the II on its own.
            if self.subtree_delta_reroute(dfg, &router, &mut mapping, &cost) > 0
                && mapping.is_complete(dfg)
            {
                debug_assert!(mapping.is_valid(dfg, cgra));
                return (Some(mapping), iterations);
            }
            let ill_count = mapping.ill_mapped_nodes(dfg).len();
            if iterations > 0 && iterations.is_multiple_of(50) {
                // Forensics sampling every 50 rounds: one heatmap pass over
                // the overused cells plus the round's peak cell.
                let flight = obs::flight();
                if flight.is_enabled() {
                    let scope = obs::current_scope();
                    let mut peak: Option<((u32, &'static str, u32), u64)> = None;
                    mapping.occupancy().for_each_overused(|cell, excess| {
                        let key = cell.forensics_key(cgra);
                        flight.heat(&scope, key.0, key.1, key.2, excess);
                        if peak.is_none_or(|(_, p)| excess > p) {
                            peak = Some((key, excess));
                        }
                    });
                    if let Some(((pe, class, cycle), overuse)) = peak {
                        flight.record(FlightEvent::CongestionPeak {
                            pe,
                            class,
                            cycle,
                            overuse,
                            round: iterations,
                        });
                    }
                }
            }
            if ill_count < best_ill {
                best_ill = ill_count;
                stall = 0;
            } else {
                stall += 1;
            }
            cost.accumulate_history_everywhere(mapping.occupancy());
            let victim = self.pick_victim(dfg, &mapping, rng);
            if stall > 30 {
                stall = 0;
                best_ill = usize::MAX;
                for n in dfg.neighbors(victim) {
                    if mapping.is_placed(n) {
                        mapping.unplace(dfg, n);
                    }
                }
            }
            // Coordinated rip-up: an unrouted edge needs BOTH endpoints to
            // move towards each other, so rip the partners too. They rejoin
            // the ill pool and are re-placed with the victim's new position
            // visible.
            let partners: Vec<NodeId> = dfg
                .in_edges(victim)
                .chain(dfg.out_edges(victim))
                .filter(|e| {
                    mapping.route(e.id()).is_none()
                        && mapping.is_placed(e.src())
                        && mapping.is_placed(e.dst())
                })
                .map(|e| if e.src() == victim { e.dst() } else { e.src() })
                .filter(|&n| n != victim)
                .collect();
            for p in partners {
                if mapping.is_placed(p) {
                    mapping.unplace(dfg, p);
                }
            }
            if let Some((pe, t_v)) = mapping.placement(victim) {
                obs::flight_event(FlightEvent::RipUp {
                    pe: pe.index() as u32,
                    class: "fu",
                    cycle: mapping.mrrg().slot_of(t_v),
                    round: iterations,
                });
            }
            mapping.unplace(dfg, victim);
            m_rip_ups.incr();
            self.place_min_cost(
                dfg,
                cgra,
                &router,
                &mut mapping,
                &asap,
                victim,
                &cost,
                &mut placement_history,
                rng,
                deadline,
            );
            m_placements.incr();
            iterations += 1;
        }
        if mapping.is_complete(dfg) {
            debug_assert!(mapping.is_valid(dfg, cgra));
            return (Some(mapping), iterations);
        }
        (None, iterations)
    }

    /// Subtree-delta re-routing: for every fan-out signal with a branch
    /// crossing an overused cell, rip up *only the crossing branches* and
    /// re-grow them with [`Router::route_fanout`] against the surviving
    /// siblings (whose cells the tree cost discounts, so repaired branches
    /// re-merge onto the retained trunk).
    ///
    /// The whole pass is **transactional**: per-signal re-routes are
    /// committed tentatively when they strictly reduce total overuse, and
    /// the accumulated commits are kept only if the pass finishes with a
    /// *complete* mapping — i.e. it resolved the II attempt outright.
    /// Otherwise every branch is restored verbatim. Because the pass also
    /// consumes no randomness, a rolled-back pass leaves the negotiation
    /// trajectory byte-identical to negotiation without the pass: the
    /// repair can finish an II earlier, but never later.
    ///
    /// Deterministic (node-id order) and a no-op when the mapping has no
    /// overuse. Returns the number of branches re-routed and kept, also
    /// published on the `router.subtree_reroutes` counter.
    fn subtree_delta_reroute(
        &self,
        dfg: &Dfg,
        router: &Router<'_>,
        mapping: &mut Mapping,
        cost: &NegotiatedCost,
    ) -> u64 {
        if mapping.total_overuse() == 0 {
            return 0;
        }
        // Undo log of every tentatively committed signal: (edge, original
        // route), restored in reverse order on rollback.
        let mut undo: Vec<(EdgeId, Route)> = Vec::new();
        let mut kept = 0u64;
        for u in dfg.topo_order() {
            let routed: Vec<EdgeId> = dfg
                .out_edges(u)
                .filter(|e| mapping.route(e.id()).is_some())
                .map(|e| e.id())
                .collect();
            if routed.len() < 2 {
                continue;
            }
            let crossing: Vec<EdgeId> = routed
                .iter()
                .copied()
                .filter(|&e| {
                    mapping
                        .route(e)
                        .expect("filtered to routed")
                        .resources()
                        .iter()
                        .any(|&c| mapping.occupancy().is_overused(c))
                })
                .collect();
            if crossing.is_empty() || crossing.len() == routed.len() {
                // Nothing congested, or no clean sibling to re-merge onto:
                // a full re-route is the whole-edge rip-up the regular
                // negotiation already does better (with history).
                continue;
            }
            let before = mapping.total_overuse();
            let old: Vec<(EdgeId, Route)> = crossing
                .iter()
                .map(|&e| (e, mapping.route(e).expect("filtered to routed").clone()))
                .collect();
            for &(e, _) in &old {
                mapping.clear_route(e);
            }
            let reqs: Vec<rewire_mrrg::RouteRequest> =
                old.iter().map(|(_, r)| *r.request()).collect();
            let mut occ = mapping.occupancy().clone();
            match router.route_fanout(&mut occ, &reqs, cost) {
                Ok(new_routes) => {
                    for (&(e, _), r) in old.iter().zip(new_routes) {
                        mapping.set_route(e, r);
                    }
                    if mapping.total_overuse() < before {
                        kept += old.len() as u64;
                        undo.extend(old);
                    } else {
                        for &(e, _) in &old {
                            mapping.clear_route(e);
                        }
                        for (e, r) in old {
                            mapping.set_route(e, r);
                        }
                    }
                }
                Err(_) => {
                    for (e, r) in old {
                        mapping.set_route(e, r);
                    }
                }
            }
            if mapping.total_overuse() == 0 {
                break; // nothing congested is left to repair
            }
        }
        if kept > 0 && !mapping.is_complete(dfg) {
            // The deltas helped but did not finish the II: roll everything
            // back so the regular negotiation proceeds exactly as it would
            // have without the pass.
            for (e, r) in undo.into_iter().rev() {
                mapping.clear_route(e);
                mapping.set_route(e, r);
            }
            return 0;
        }
        obs::counter("router.subtree_reroutes").add(kept);
        kept
    }

    /// Builds the [`IiAttempt`] adapter driving this mapper through the
    /// shared [`IiSearch`] engine. The adapter owns the RNG stream, seeded
    /// from `limits.seed` once and carried across IIs exactly as the
    /// pre-engine loop did.
    pub fn ii_attempt(&self, limits: &MapLimits) -> PathFinderAttempt<'_> {
        PathFinderAttempt {
            mapper: self,
            rng: StdRng::seed_from_u64(limits.seed),
        }
    }

    /// Chooses the node to rip up: an unplaced node if any, otherwise the
    /// node most involved in congestion/unrouted edges.
    fn pick_victim(&self, dfg: &Dfg, mapping: &Mapping, rng: &mut StdRng) -> NodeId {
        let ill = mapping.ill_mapped_nodes(dfg);
        debug_assert!(!ill.is_empty(), "victim requested on a valid mapping");
        // Uniform over all ill nodes: preferring unplaced nodes sounds
        // natural but starves the owners of congested routes and livelocks.
        ill[rng.random_range(0..ill.len())]
    }

    /// Places `v` on the cheapest PE at its fixed modulo-schedule time and
    /// commits routes for every adjacent edge that can be routed there.
    ///
    /// PF* follows the SPR/DRESC discipline: the schedule is fixed by
    /// iterative modulo scheduling, and negotiation happens purely over
    /// placement and routing. A placement always succeeds — edges that are
    /// geometrically unroutable at the chosen PE simply stay unrouted
    /// (penalised in the candidate cost), leaving both endpoints ill-mapped
    /// so later iterations move the other side. PEs whose FU cell is free
    /// are strictly preferred; when none exists the cheapest occupied cell
    /// is taken and its owner evicted (rip-up).
    #[allow(clippy::too_many_arguments)]
    fn place_min_cost(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        router: &Router<'_>,
        mapping: &mut Mapping,
        asap: &[u32],
        v: NodeId,
        cost: &NegotiatedCost,
        placement_history: &mut [f64],
        rng: &mut StdRng,
        deadline: Instant,
    ) {
        let _ = rng;
        let ii = mapping.ii();
        let t = asap[v.index()];
        let op = dfg.node(v).op();
        const UNROUTABLE: f64 = 60.0;

        // Soft attraction through unplaced neighbours: if v feeds (or is
        // fed by) an unplaced node u, v should land near u's other placed
        // partners so that u has a feasible spot between them — the
        // single-node analogue of Rewire's transitive source lookup.
        let mut attractors: Vec<PeId> = Vec::new();
        for u in dfg.neighbors(v) {
            if mapping.is_placed(u) {
                continue;
            }
            for w in dfg.neighbors(u) {
                if w != v {
                    if let Some((pe_w, _)) = mapping.placement(w) {
                        attractors.push(pe_w);
                    }
                }
            }
        }

        // Geometric lower bound: each adjacent placed edge contributes its
        // fixed path length, or a penalty when the Manhattan distance
        // cannot be covered in the available cycles (+1 for the delivery
        // hop).
        let lower_bound = |pe: PeId| -> f64 {
            let mut lb = 0.0;
            for a in &attractors {
                lb += 0.3 * cgra.distance(pe, *a) as f64;
            }
            for e in dfg.in_edges(v) {
                let (src_pe, t_src) = if e.src() == v {
                    (pe, t)
                } else {
                    match mapping.placement(e.src()) {
                        Some(p) => p,
                        None => continue,
                    }
                };
                let arrive = t + e.distance() * ii;
                match arrive.checked_sub(t_src + 1) {
                    Some(steps) if steps + 1 >= cgra.distance(src_pe, pe) => lb += steps as f64,
                    _ => lb += UNROUTABLE,
                }
            }
            for e in dfg.out_edges(v) {
                if e.dst() == v {
                    continue;
                }
                let Some((dst_pe, t_dst)) = mapping.placement(e.dst()) else {
                    continue;
                };
                let arrive = t_dst + e.distance() * ii;
                match arrive.checked_sub(t + 1) {
                    Some(steps) if steps + 1 >= cgra.distance(pe, dst_pe) => lb += steps as f64,
                    _ => lb += UNROUTABLE,
                }
            }
            lb
        };

        // Pass 1: free-FU candidates. Pass 2 (eviction) when none exists.
        for evict in [false, true] {
            let mut candidates: Vec<(f64, PeId)> = Vec::new();
            for pe in candidate_pes(cgra, op) {
                let fu = Resource::Fu {
                    pe,
                    slot: mapping.mrrg().slot_of(t),
                };
                if mapping.occupancy().usable_by(fu, v, 0) == evict {
                    continue;
                }
                let hist = placement_history[v.index() * cgra.num_pes() + pe.index()];
                candidates.push((lower_bound(pe) + hist, pe));
            }
            candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

            let mut best: Option<(f64, PeId)> = None;
            let mut evaluated = 0u32;
            for &(lb, pe) in &candidates {
                if evaluated >= self.config.max_full_evals
                    || (evaluated > 0 && Instant::now() >= deadline)
                {
                    break;
                }
                if let Some((b, _)) = &best {
                    if lb >= *b {
                        break; // lower bound already exceeds the best found
                    }
                }
                let fu = Resource::Fu {
                    pe,
                    slot: mapping.mrrg().slot_of(t),
                };
                let Some(fu_cost) = cost.cell_cost(mapping.occupancy(), fu, v, 0) else {
                    continue;
                };
                let (route_cost, _) =
                    self.route_adjacent(dfg, router, mapping, v, pe, t, cost, UNROUTABLE);
                evaluated += 1;
                let hist = placement_history[v.index() * cgra.num_pes() + pe.index()];
                let attract: f64 = attractors
                    .iter()
                    .map(|a| 0.3 * cgra.distance(pe, *a) as f64)
                    .sum();
                let total = fu_cost + route_cost + hist + attract;
                if best.as_ref().is_none_or(|(b, _)| total < *b) {
                    best = Some((total, pe));
                }
            }

            if let Some((_, pe)) = best {
                if evict {
                    let fu = Resource::Fu {
                        pe,
                        slot: mapping.mrrg().slot_of(t),
                    };
                    let occupants: Vec<NodeId> = mapping
                        .occupancy()
                        .owners(fu)
                        .iter()
                        .map(|((s, _), _)| *s)
                        .collect();
                    obs::counter("pf.evictions").add(occupants.len() as u64);
                    obs::flight_event(FlightEvent::Eviction {
                        pe: pe.index() as u32,
                        cycle: mapping.mrrg().slot_of(t),
                        victims: occupants.len() as u32,
                        ii,
                    });
                    for n in occupants {
                        mapping.unplace(dfg, n);
                    }
                }
                // Commit: place, then route each adjacent edge against the
                // live occupancy, claiming as we go. Unroutable edges stay
                // unrouted and keep their endpoints ill-mapped.
                mapping.place(v, pe, t);
                let adjacent: Vec<EdgeId> = dfg
                    .in_edges(v)
                    .chain(dfg.out_edges(v))
                    .map(|e| e.id())
                    .collect();
                let mut failed = false;
                for e in adjacent {
                    if mapping.route(e).is_some() {
                        continue;
                    }
                    let Some(req) = mapping.request_for(dfg, e) else {
                        continue;
                    };
                    match router.route(mapping.occupancy(), &req, cost) {
                        Ok(r) => mapping.set_route(e, r),
                        Err(err) => {
                            let ed = dfg.edge(e);
                            obs::flight_event(FlightEvent::RouteFailed {
                                edge: (ed.src().index() as u32, ed.dst().index() as u32),
                                ii,
                                reason: err.label(),
                            });
                            failed = true;
                        }
                    }
                }
                if failed {
                    placement_history[v.index() * cgra.num_pes() + pe.index()] +=
                        self.config.history_increment * 3.0;
                }
                return;
            }
        }
    }

    /// Estimates the routing cost of every edge between `v` (tentatively
    /// at `(pe, t)`) and its placed neighbours; unroutable edges contribute
    /// `penalty` each. Returns the summed cost and the number of routable
    /// edges.
    #[allow(clippy::too_many_arguments)]
    fn route_adjacent(
        &self,
        dfg: &Dfg,
        router: &Router<'_>,
        mapping: &Mapping,
        v: NodeId,
        pe: PeId,
        t: u32,
        cost: &NegotiatedCost,
        penalty: f64,
    ) -> (f64, usize) {
        let ii = mapping.ii();
        let mut total = 0.0;
        let mut routable = 0usize;
        for e in dfg.in_edges(v) {
            let (src_pe, t_src) = if e.src() == v {
                (pe, t)
            } else {
                match mapping.placement(e.src()) {
                    Some(p) => p,
                    None => continue,
                }
            };
            let req = rewire_mrrg::RouteRequest {
                signal: e.src(),
                src_pe,
                depart_cycle: t_src + 1,
                dst_pe: pe,
                arrive_cycle: t + e.distance() * ii,
            };
            match router.route(mapping.occupancy(), &req, cost) {
                Ok(route) => {
                    total += route.cost();
                    routable += 1;
                }
                Err(_) => total += penalty,
            }
        }
        for e in dfg.out_edges(v) {
            if e.dst() == v {
                continue; // handled above as an in-edge of v
            }
            let Some((dst_pe, t_dst)) = mapping.placement(e.dst()) else {
                continue;
            };
            let req = rewire_mrrg::RouteRequest {
                signal: v,
                src_pe: pe,
                depart_cycle: t + 1,
                dst_pe,
                arrive_cycle: t_dst + e.distance() * ii,
            };
            match router.route(mapping.occupancy(), &req, cost) {
                Ok(route) => {
                    total += route.cost();
                    routable += 1;
                }
                Err(_) => total += penalty,
            }
        }
        (total, routable)
    }
}

/// PF* driven by the shared engine: one II attempt (or, under
/// `use_full_budget`, restarts until the per-II deadline) with the RNG
/// stream carried across IIs.
pub struct PathFinderAttempt<'m> {
    mapper: &'m PathFinderMapper,
    rng: StdRng,
}

impl IiAttempt for PathFinderAttempt<'_> {
    fn attempt(&mut self, dfg: &Dfg, cgra: &Cgra, ctx: &AttemptCtx<'_>) -> AttemptOutcome {
        // One attempt per II by default: PF* "can terminate early at each
        // II due to the backtracking limitation" (paper §V-B). Under
        // `use_full_budget` the attempt is restarted with fresh randomness
        // until the shared per-II budget runs out.
        let (mut mapping, mut iterations) =
            self.mapper
                .try_ii(dfg, cgra, ctx.ii, ctx.deadline, &mut self.rng);
        while self.mapper.config.use_full_budget
            && mapping.is_none()
            && Instant::now() < ctx.deadline
        {
            let (m, iters) = self
                .mapper
                .try_ii(dfg, cgra, ctx.ii, ctx.deadline, &mut self.rng);
            iterations += iters;
            mapping = m;
        }
        AttemptOutcome {
            mapping,
            iterations,
            verdict: None,
        }
    }
}

impl Mapper for PathFinderMapper {
    fn name(&self) -> &'static str {
        "PF*"
    }

    fn map(&self, dfg: &Dfg, cgra: &Cgra, limits: &MapLimits) -> MapOutcome {
        IiSearch::new(self.name()).run(dfg, cgra, limits, &mut self.ii_attempt(limits))
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
        let out = PathFinderMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        let m = out.mapping.expect("trivial chain must map");
        assert_eq!(out.stats.achieved_ii, Some(1));
        assert!(m.is_valid(&dfg, &cgra));
    }

    #[test]
    fn maps_gesummv_on_baseline_cgra() {
        let cgra = presets::paper_4x4_r4();
        let dfg = kernels::gesummv();
        let out = PathFinderMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        let m = out.mapping.expect("gesummv maps on 4x4/r4");
        assert!(m.is_valid(&dfg, &cgra));
        let ii = out.stats.achieved_ii.unwrap();
        assert!(ii >= out.stats.mii);
        assert!(ii <= 12, "II {ii} unexpectedly high");
    }

    #[test]
    fn initial_mapping_is_complete_but_may_be_invalid() {
        let cgra = presets::paper_4x4_r4();
        let dfg = kernels::atax();
        let mii = dfg.mii(&cgra).unwrap();
        // The fanout/memory-padded modulo schedule may need a slightly
        // higher II than the theoretical MII; use the first feasible one.
        let m = (mii..mii + 4)
            .find_map(|ii| PathFinderMapper::new().initial_mapping(&dfg, &cgra, ii, 1))
            .unwrap();
        // The initial pass places nearly everything (negotiation allows
        // overuse), though routes may conflict.
        assert!(m.unplaced_nodes(&dfg).len() <= dfg.num_nodes() / 4);
    }

    #[test]
    fn initial_mapping_below_recmii_is_none() {
        let cgra = presets::paper_4x4_r4();
        let dfg = kernels::cholesky(); // RecMII 4
        assert!(PathFinderMapper::new()
            .initial_mapping(&dfg, &cgra, 1, 0)
            .is_none());
    }

    #[test]
    fn unmappable_dfg_fails_cleanly() {
        // Memory op on a memory-less fabric: MII is undefined.
        let cgra = rewire_arch::CgraBuilder::new(2, 2).build().unwrap();
        let mut dfg = Dfg::new("needs-mem");
        dfg.add_node("ld", rewire_arch::OpKind::Load);
        let out = PathFinderMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        assert!(out.mapping.is_none());
        assert_eq!(out.stats.iis_explored, 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cgra = presets::paper_4x4_r4();
        let dfg = kernels::fir();
        let limits = MapLimits::fast().with_ii_time_budget(std::time::Duration::from_secs(30));
        let a = PathFinderMapper::new().map(&dfg, &cgra, &limits);
        let b = PathFinderMapper::new().map(&dfg, &cgra, &limits);
        assert_eq!(a.stats.achieved_ii, b.stats.achieved_ii);
        assert_eq!(a.stats.remap_iterations, b.stats.remap_iterations);
    }
}
