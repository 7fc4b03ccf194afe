//! `SA` — the simulated-annealing baseline.
//!
//! SA mappers (CGRA-ME, DSAGEN, Morpher variants) explore placements by
//! random perturbation: move one node to a random `(PE, time)` candidate,
//! re-route its edges, and accept by the Metropolis criterion on a cost
//! that penalises congestion and unroutable edges. Matching the paper's
//! setup, an II attempt terminates early when the best cost has not
//! improved for 100 iterations; every accepted-or-rejected move counts as
//! one single-node remapping iteration (Table I).
//!
//! Like the other mappers, SA routes per edge inside its search loop and
//! picks up shared fan-out trees only through the engine's post-success
//! consolidation pass
//! ([`crate::fanout`], DESIGN.md §6j), which swaps a signal's routes
//! solely on strict footprint improvement.

use crate::engine::{AttemptCtx, AttemptOutcome, IiAttempt, IiSearch};
use crate::schedule::{candidate_pes, modulo_schedule};
use crate::{MapLimits, MapOutcome, Mapper, Mapping};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rewire_arch::Cgra;
use rewire_dfg::{Dfg, EdgeId, NodeId};
use rewire_mrrg::{Mrrg, NegotiatedCost, Route, Router};
use rewire_obs::{self as obs, FlightEvent};
use std::time::Instant;

/// Configuration of the SA baseline.
#[derive(Clone, Debug)]
pub struct SaConfig {
    /// Starting temperature (cost units).
    pub initial_temperature: f64,
    /// Geometric cooling factor per move.
    pub cooling: f64,
    /// Stop an II attempt after this many moves without improving the best
    /// cost (the paper's "no mapping cost improvement after 100
    /// iterations").
    pub stall_limit: u64,
    /// Hard cap on moves per II.
    pub max_iterations_per_ii: u64,
    /// Cost penalty per overused cell.
    pub overuse_penalty: f64,
    /// Cost penalty per unrouted or timing-violated edge.
    pub unrouted_penalty: f64,
    /// Cap on fresh random restarts per II (a stalled annealing run is
    /// normally restarted until the per-II deadline; tests bound this so
    /// outcomes don't depend on wall-clock timing).
    pub max_restarts_per_ii: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        Self {
            initial_temperature: 20.0,
            cooling: 0.998,
            stall_limit: 100,
            max_iterations_per_ii: 3000,
            overuse_penalty: 12.0,
            unrouted_penalty: 25.0,
            max_restarts_per_ii: u64::MAX,
        }
    }
}

/// The SA mapper. See the module docs for the algorithm.
#[derive(Clone, Debug, Default)]
pub struct SaMapper {
    config: SaConfig,
}

impl SaMapper {
    /// Creates an SA mapper with default annealing parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an SA mapper with an explicit configuration.
    pub fn with_config(config: SaConfig) -> Self {
        Self { config }
    }

    fn cost(&self, dfg: &Dfg, mapping: &Mapping) -> f64 {
        let mut c = 0.0;
        let mut missing = 0usize;
        for e in dfg.edges() {
            match mapping.route(e.id()) {
                Some(r) => c += r.cost(),
                None => missing += 1,
            }
        }
        c += self.config.unrouted_penalty * missing as f64;
        c += self.config.overuse_penalty * mapping.total_overuse() as f64;
        c
    }

    /// Places `v` at `(pe, t)` and routes its adjacent edges with
    /// negotiated costs (failures leave edges unrouted, penalised by the
    /// cost function).
    #[allow(clippy::too_many_arguments)]
    fn place_and_route(
        &self,
        dfg: &Dfg,
        router: &Router<'_>,
        mapping: &mut Mapping,
        v: NodeId,
        pe: rewire_arch::PeId,
        t: u32,
        cost: &NegotiatedCost,
    ) {
        mapping.place(v, pe, t);
        let adjacent: Vec<EdgeId> = dfg
            .in_edges(v)
            .chain(dfg.out_edges(v))
            .map(|e| e.id())
            .collect();
        let mut done = Vec::new();
        for e in adjacent {
            if done.contains(&e) {
                continue; // self-loop appears in both in- and out-edges
            }
            done.push(e);
            if mapping.route(e).is_some() {
                continue;
            }
            let Some(req) = mapping.request_for(dfg, e) else {
                continue;
            };
            if req.num_steps().is_none() {
                continue; // timing violation: stays unrouted, penalised
            }
            match router.route(mapping.occupancy(), &req, cost) {
                Ok(route) => mapping.set_route(e, route),
                Err(err) => {
                    let ed = dfg.edge(e);
                    obs::flight_event(FlightEvent::RouteFailed {
                        edge: (ed.src().index() as u32, ed.dst().index() as u32),
                        ii: mapping.ii(),
                        reason: err.label(),
                    });
                }
            }
        }
    }

    /// A random PE at the node's fixed modulo-schedule time (DRESC-style
    /// SA anneals placement under a fixed schedule).
    fn random_candidate(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        mapping: &Mapping,
        asap: &[u32],
        v: NodeId,
        rng: &mut StdRng,
    ) -> Option<(rewire_arch::PeId, u32)> {
        let _ = mapping;
        let pes = candidate_pes(cgra, dfg.node(v).op());
        let pe = pes[rng.random_range(0..pes.len())];
        Some((pe, asap[v.index()]))
    }

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
        let cost_model = NegotiatedCost::new(&mrrg, 0.8, 0.0);
        let mut mapping = Mapping::new(dfg, &mrrg);

        // Random initial placement in topological order.
        {
            let _place_span = obs::span("place");
            for v in dfg.topo_order() {
                if let Some((pe, t)) = self.random_candidate(dfg, cgra, &mapping, &asap, v, rng) {
                    self.place_and_route(dfg, &router, &mut mapping, v, pe, t, &cost_model);
                }
            }
        }

        let _anneal_span = obs::span("anneal");
        let m_moves = obs::counter("sa.moves");
        let m_accepts = obs::counter("sa.accepts");
        let m_rejects = obs::counter("sa.rejects");
        let mut current = self.cost(dfg, &mapping);
        let mut best = current;
        let mut temperature = self.config.initial_temperature;
        let mut stall = 0u64;
        let mut iterations = 0u64;

        while iterations < self.config.max_iterations_per_ii
            && stall < self.config.stall_limit
            && Instant::now() < deadline
        {
            if mapping.is_complete(dfg) {
                debug_assert!(mapping.is_valid(dfg, cgra));
                return (Some(mapping), iterations);
            }
            iterations += 1;
            temperature *= self.config.cooling;

            // Perturb a random node — bias towards ill-mapped ones, which
            // is what real SA mappers do to converge at all.
            let ill = mapping.ill_mapped_nodes(dfg);
            let v = if !ill.is_empty() && rng.random_bool(0.5) {
                ill[rng.random_range(0..ill.len())]
            } else {
                NodeId::new(rng.random_range(0..dfg.num_nodes() as u32))
            };

            // Save state for revert.
            let old_placement = mapping.placement(v);
            let mut saved: Vec<(EdgeId, Route)> = Vec::new();
            for e in dfg.in_edges(v).chain(dfg.out_edges(v)) {
                if let Some(r) = mapping.route(e.id()) {
                    if !saved.iter().any(|(id, _)| *id == e.id()) {
                        saved.push((e.id(), r.clone()));
                    }
                }
            }

            mapping.unplace(dfg, v);
            let cand = self.random_candidate(dfg, cgra, &mapping, &asap, v, rng);
            if let Some((pe, t)) = cand {
                self.place_and_route(dfg, &router, &mut mapping, v, pe, t, &cost_model);
            }

            let new_cost = self.cost(dfg, &mapping);
            let delta = new_cost - current;
            let accept = delta <= 0.0
                || rng.random_bool((-delta / temperature.max(1e-9)).exp().clamp(0.0, 1.0));
            m_moves.incr();
            if accept {
                m_accepts.incr();
            } else {
                m_rejects.incr();
            }
            if accept {
                current = new_cost;
                if current < best {
                    best = current;
                    stall = 0;
                } else {
                    stall += 1;
                }
            } else {
                // Revert: drop the new placement, restore the old one.
                mapping.unplace(dfg, v);
                if let Some((pe, t)) = old_placement {
                    mapping.place(v, pe, t);
                    for (e, r) in saved {
                        mapping.set_route(e, r);
                    }
                }
                stall += 1;
            }
        }
        if mapping.is_complete(dfg) {
            debug_assert!(mapping.is_valid(dfg, cgra));
            (Some(mapping), iterations)
        } else {
            (None, iterations)
        }
    }

    /// Builds the [`IiAttempt`] adapter driving this mapper through the
    /// shared [`IiSearch`] engine. The RNG stream (`seed ^ 0x5A5A`) is
    /// created once and carried across IIs exactly as the pre-engine loop
    /// did.
    pub fn ii_attempt(&self, limits: &MapLimits) -> SaAttempt<'_> {
        SaAttempt {
            mapper: self,
            rng: StdRng::seed_from_u64(limits.seed ^ 0x5A5A),
        }
    }
}

/// SA driven by the shared engine: annealing runs with fresh random
/// restarts until the per-II deadline (or the configured restart cap).
pub struct SaAttempt<'m> {
    mapper: &'m SaMapper,
    rng: StdRng,
}

impl IiAttempt for SaAttempt<'_> {
    fn attempt(&mut self, dfg: &Dfg, cgra: &Cgra, ctx: &AttemptCtx<'_>) -> AttemptOutcome {
        // Use the full per-II budget: each stalled annealing run is
        // followed by a fresh random restart.
        let mut mapping = None;
        let mut iterations = 0u64;
        let mut restarts = 0u64;
        while mapping.is_none()
            && restarts < self.mapper.config.max_restarts_per_ii
            && Instant::now() < ctx.deadline
        {
            restarts += 1;
            if restarts > 1 {
                obs::counter("sa.restarts").incr();
            }
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

impl Mapper for SaMapper {
    fn name(&self) -> &'static str {
        "SA"
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
    fn maps_a_small_chain() {
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("chain");
        let mut prev = dfg.add_node("ld", rewire_arch::OpKind::Load);
        for i in 0..3 {
            let n = dfg.add_node(format!("a{i}"), rewire_arch::OpKind::Add);
            dfg.add_edge(prev, n, 0).unwrap();
            prev = n;
        }
        let out = SaMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        let m = out.mapping.expect("small chain must map");
        assert!(m.is_valid(&dfg, &cgra));
    }

    #[test]
    fn maps_fir_eventually() {
        let cgra = presets::paper_4x4_r4();
        let dfg = kernels::fir();
        let limits = MapLimits::fast().with_ii_time_budget(std::time::Duration::from_secs(2));
        let out = SaMapper::new().map(&dfg, &cgra, &limits);
        if let Some(m) = out.mapping {
            assert!(m.is_valid(&dfg, &cgra));
            assert!(out.stats.achieved_ii.unwrap() >= out.stats.mii);
        }
        // SA may legitimately fail on tight budgets — the paper reports 12
        // outright failures — but the stats must still be coherent.
        assert!(out.stats.iis_explored >= 1);
    }

    #[test]
    fn counts_iterations() {
        let cgra = presets::paper_4x4_r2();
        let dfg = kernels::atax();
        let out = SaMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        // atax on a 2-register fabric is not trivial: SA must have done
        // some work regardless of success.
        assert!(out.stats.remap_iterations > 0);
    }

    #[test]
    fn unmappable_dfg_fails_cleanly() {
        let cgra = rewire_arch::CgraBuilder::new(2, 2).build().unwrap();
        let mut dfg = Dfg::new("needs-mem");
        dfg.add_node("st", rewire_arch::OpKind::Store);
        let out = SaMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        assert!(out.mapping.is_none());
    }
}
