//! An exhaustive branch-and-bound mapper for tiny DFGs — the reference
//! search used by tests and ablations.
//!
//! It enumerates placements `(PE, time)` in topological order within a
//! finite schedule horizon, but routes each edge once with the router's
//! single greedy route (no backtracking over routing alternatives). The
//! first II at which it succeeds is therefore an *upper bound* on the
//! minimum achievable II, not a proof of it: a heuristic can legitimately
//! map lower (see `CrossMapperPolicy` in `rewire-fuzz`). Proofs of II
//! optimality come from [`crate::ExactSatMapper`]. The search is
//! exponential; it is deliberately restricted to small graphs.

use crate::engine::{
    AttemptCtx, AttemptOutcome, Emitter, EventSink, GiveUpReason, IiAttempt, IiSearch, MapEvent,
    RunMeta,
};
use crate::schedule::candidate_pes;
use crate::{MapLimits, MapOutcome, MapStats, Mapper, Mapping};
use rewire_dfg::{Dfg, NodeId};
use rewire_mrrg::{Mrrg, Router, UnitCost};
use rewire_obs as obs;
use std::cell::Cell;
use std::time::Instant;

/// The exhaustive mapper. Refuses DFGs larger than
/// [`max_nodes`](ExhaustiveMapper::with_max_nodes) (default 12).
#[derive(Clone, Debug)]
pub struct ExhaustiveMapper {
    max_nodes: usize,
    max_search_nodes: u64,
}

impl Default for ExhaustiveMapper {
    fn default() -> Self {
        Self {
            max_nodes: 12,
            max_search_nodes: u64::MAX,
        }
    }
}

impl ExhaustiveMapper {
    /// Creates an oracle with the default node limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the node limit (be careful: the search is exponential).
    pub fn with_max_nodes(max_nodes: usize) -> Self {
        Self {
            max_nodes,
            ..Self::default()
        }
    }

    /// Caps the branch-and-bound at `max_search_nodes` search-tree nodes
    /// per II. Unlike the wall-clock deadline, the cap truncates the
    /// search *deterministically* — the same instance always explores the
    /// same prefix of the tree — which is what replay-exact harnesses
    /// (the differential fuzzer) need. A truncated II is reported as
    /// failed, so optimality claims weaken to "best within the cap".
    pub fn with_max_search_nodes(mut self, max_search_nodes: u64) -> Self {
        self.max_search_nodes = max_search_nodes;
        self
    }

    fn try_ii(
        &self,
        dfg: &Dfg,
        cgra: &rewire_arch::Cgra,
        ii: u32,
        deadline: Instant,
    ) -> (Option<Mapping>, u64) {
        let mrrg = Mrrg::new(cgra, ii);
        let router = Router::new(cgra, &mrrg);
        let mut mapping = Mapping::new(dfg, &mrrg);
        let order = dfg.topo_order();
        // Bound on schedule times: depth plus one II round of slack per
        // node keeps the search finite yet complete enough in practice.
        let horizon = dfg.longest_path() + 2 * ii;
        // Count search-tree nodes locally and flush once per II so the hot
        // recursion touches a plain `Cell`, not an atomic.
        let nodes = Cell::new(0u64);
        let ok = self.search(
            dfg,
            cgra,
            &router,
            &mut mapping,
            &order,
            0,
            horizon,
            deadline,
            &nodes,
        );
        obs::counter("exhaustive.search_nodes").add(nodes.get());
        (ok.then_some(mapping), nodes.get())
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        dfg: &Dfg,
        cgra: &rewire_arch::Cgra,
        router: &Router<'_>,
        mapping: &mut Mapping,
        order: &[NodeId],
        depth: usize,
        horizon: u32,
        deadline: Instant,
        nodes: &Cell<u64>,
    ) -> bool {
        nodes.set(nodes.get() + 1);
        if depth == order.len() {
            return mapping.is_complete(dfg);
        }
        if nodes.get() >= self.max_search_nodes || Instant::now() >= deadline {
            return false;
        }
        let v = order[depth];
        let ii = mapping.ii();
        // Earliest time from placed parents.
        let mut lb = 0i64;
        for e in dfg.in_edges(v) {
            if e.src() == v {
                continue;
            }
            if let Some((_, tp)) = mapping.placement(e.src()) {
                lb = lb.max(tp as i64 + 1 - (e.distance() * ii) as i64);
            }
        }
        let lb = lb.max(0) as u32;
        for t in lb..=horizon {
            for pe in candidate_pes(cgra, dfg.node(v).op()) {
                let fu = rewire_mrrg::Resource::Fu {
                    pe,
                    slot: mapping.mrrg().slot_of(t),
                };
                if !mapping.occupancy().usable_by(fu, v, 0) {
                    continue;
                }
                mapping.place(v, pe, t);
                // Route every edge whose endpoints are now both placed.
                let mut all_routed = true;
                let mut routed = Vec::new();
                for e in dfg.in_edges(v).chain(dfg.out_edges(v)) {
                    if mapping.route(e.id()).is_some() {
                        continue;
                    }
                    let Some(req) = mapping.request_for(dfg, e.id()) else {
                        continue;
                    };
                    match router.route(mapping.occupancy(), &req, &UnitCost) {
                        Ok(r) => {
                            mapping.set_route(e.id(), r);
                            routed.push(e.id());
                        }
                        Err(_) => {
                            all_routed = false;
                            break;
                        }
                    }
                }
                if all_routed
                    && self.search(
                        dfg,
                        cgra,
                        router,
                        mapping,
                        order,
                        depth + 1,
                        horizon,
                        deadline,
                        nodes,
                    )
                {
                    return true;
                }
                for e in routed {
                    mapping.clear_route(e);
                }
                mapping.unplace(dfg, v);
            }
        }
        false
    }
}

/// The oracle driven by the shared engine. Stateless across IIs: one
/// branch-and-bound search per II under the engine's deadline.
pub struct ExhaustiveAttempt<'m> {
    mapper: &'m ExhaustiveMapper,
}

impl IiAttempt for ExhaustiveAttempt<'_> {
    fn attempt(
        &mut self,
        dfg: &Dfg,
        cgra: &rewire_arch::Cgra,
        ctx: &AttemptCtx<'_>,
        _events: &mut Emitter<'_>,
    ) -> AttemptOutcome {
        // Search-tree nodes are reported as the attempt's iteration count,
        // so `remap_iterations` reveals (to oracles comparing against this
        // mapper) whether a deterministic search-node cap could have
        // truncated any II of the sweep.
        match self.mapper.try_ii(dfg, cgra, ctx.ii, ctx.deadline) {
            (Some(m), nodes) => AttemptOutcome::mapped(m, nodes),
            (None, nodes) => AttemptOutcome::failed(nodes, 0),
        }
    }
}

impl Mapper for ExhaustiveMapper {
    fn name(&self) -> &'static str {
        "Exhaustive"
    }

    fn map_with_events(
        &self,
        dfg: &Dfg,
        cgra: &rewire_arch::Cgra,
        limits: &MapLimits,
        events: &mut dyn EventSink,
    ) -> MapOutcome {
        // The node-count guard sits in front of the engine: the oracle
        // refuses large instances outright, before any II is explored.
        if dfg.num_nodes() > self.max_nodes {
            obs::counter("exhaustive.refused").incr();
            let start = Instant::now();
            let stats = MapStats {
                mapper: self.name().to_string(),
                kernel: dfg.name().to_string(),
                elapsed: start.elapsed(),
                ..MapStats::default()
            };
            events.emit(
                &RunMeta {
                    mapper: self.name(),
                    kernel: dfg.name(),
                    seed: limits.seed,
                },
                &MapEvent::GaveUp {
                    reason: GiveUpReason::Refused,
                    iis_explored: 0,
                    elapsed_us: stats.elapsed.as_micros(),
                },
            );
            return MapOutcome {
                mapping: None,
                stats,
            };
        }
        IiSearch::new(self.name()).run(
            dfg,
            cgra,
            limits,
            &mut ExhaustiveAttempt { mapper: self },
            events,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::{presets, OpKind};

    fn tiny_chain(n: usize) -> Dfg {
        let mut g = Dfg::new("tiny");
        let mut prev = g.add_node("n0", OpKind::Load);
        for i in 1..n {
            let v = g.add_node(format!("n{i}"), OpKind::Add);
            g.add_edge(prev, v, 0).unwrap();
            prev = v;
        }
        g
    }

    #[test]
    fn finds_the_optimum_on_a_chain() {
        let cgra = presets::paper_4x4_r4();
        let dfg = tiny_chain(5);
        let out = ExhaustiveMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        assert_eq!(out.stats.achieved_ii, Some(1), "a chain maps at II 1");
        assert!(out.mapping.unwrap().is_valid(&dfg, &cgra));
    }

    #[test]
    fn refuses_big_dfgs() {
        let cgra = presets::paper_4x4_r4();
        let dfg = rewire_dfg::kernels::fir();
        let out = ExhaustiveMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        assert!(out.mapping.is_none());
        assert_eq!(out.stats.iis_explored, 0);
    }

    #[test]
    fn accumulator_needs_ii_two() {
        let cgra = presets::paper_4x4_r4();
        let mut g = Dfg::new("acc");
        let phi = g.add_node("phi", OpKind::Phi);
        let c = g.add_node("c", OpKind::Const);
        let add = g.add_node("add", OpKind::Add);
        g.add_edge(phi, add, 0).unwrap();
        g.add_edge(c, add, 0).unwrap();
        g.add_edge(add, phi, 1).unwrap();
        let out = ExhaustiveMapper::new().map(&g, &cgra, &MapLimits::fast());
        assert_eq!(out.stats.achieved_ii, Some(2), "RecMII 2 is achievable");
    }

    #[test]
    fn heuristic_mappers_match_the_oracle_on_small_graphs() {
        use crate::{Mapper, PathFinderMapper};
        let cgra = presets::paper_4x4_r4();
        let limits = MapLimits::fast().with_ii_time_budget(std::time::Duration::from_secs(2));
        for n in [3usize, 5, 7] {
            let dfg = tiny_chain(n);
            let oracle = ExhaustiveMapper::new().map(&dfg, &cgra, &limits);
            let pf = PathFinderMapper::new().map(&dfg, &cgra, &limits);
            assert_eq!(
                pf.stats.achieved_ii, oracle.stats.achieved_ii,
                "PF* should reach the oracle's II on a {n}-node chain"
            );
        }
    }
}
