//! Post-success fan-out consolidation: re-route each multi-sink signal as
//! a shared route tree and keep the result only when it strictly shrinks
//! the signal's resource footprint.
//!
//! This is how every mapper gets the Steiner-tree win without touching its
//! search loop: the engine calls [`consolidate_fanout`] on each successful
//! mapping, after the attempt and before the outcome is returned.
//! The pass is *provably safe* by construction:
//!
//! * **II never changes** — placements and schedule times are untouched;
//!   only routes between fixed endpoints are replaced, and every
//!   replacement satisfies the same [`RouteRequest`]s as the originals.
//! * **Per-signal footprint never grows** — a consolidated tree is
//!   committed only when its distinct-cell footprint is *strictly* below
//!   the per-edge routes it replaces; otherwise the originals are kept.
//! * **No overuse is introduced** — replacement routes are found under
//!   [`UnitCost`], which refuses any cell the signal cannot legally share,
//!   against an occupancy snapshot equal to the live one minus the
//!   signal's own routes. Signals are consolidated one at a time so each
//!   decision sees all earlier commits.
//!
//! A signal's footprint is the number of distinct cells its routes hold.
//! Whether the branches may share those cells is the occupancy's call
//! alone (one `(signal, phase)` key per cell): on the valid mappings this
//! pass takes, and for the routes [`Router::route_fanout`] returns under
//! [`UnitCost`], no branch revisits a cell and branches share only at
//! equal phase.
//!
//! The unit test below pins these guarantees against an explicitly
//! per-edge-routed mapping; `tests/route_tree_mappers.rs` checks the
//! consolidated output of every routable mapper end to end.

use crate::Mapping;
use rewire_arch::Cgra;
use rewire_dfg::{Dfg, EdgeId, NodeId};
use rewire_mrrg::{Route, RouteRequest, Router, UnitCost};
use rewire_obs as obs;
use std::collections::HashSet;

/// What one [`consolidate_fanout`] pass achieved.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ConsolidationStats {
    /// Fan-out signals whose routes were replaced by a smaller tree.
    pub signals_consolidated: u64,
    /// Distinct MRRG cells freed across all consolidated signals.
    pub cells_saved: u64,
}

/// Re-routes every fan-out signal of a **valid** `mapping` as a shared
/// route tree, committing each tree only on strict footprint improvement.
///
/// Signals are visited in node-id order, so the pass is deterministic.
/// The mapping stays valid throughout; on any per-signal failure the
/// signal's original routes are kept verbatim.
///
/// Publishes `fanout.consolidations` and `fanout.cells_saved` counters.
pub fn consolidate_fanout(dfg: &Dfg, cgra: &Cgra, mapping: &mut Mapping) -> ConsolidationStats {
    // Router over a local MRRG handle: `Mapping::mrrg()` borrows the
    // mapping, which must stay mutable below, so clone the (cheap,
    // shape-only) graph out first.
    let mrrg = mapping.mrrg().clone();
    let router = Router::new(cgra, &mrrg);
    let mut stats = ConsolidationStats::default();

    for u in (0..dfg.num_nodes() as u32).map(NodeId::new) {
        let edges: Vec<EdgeId> = dfg
            .out_edges(u)
            .filter(|e| mapping.route(e.id()).is_some())
            .map(|e| e.id())
            .collect();
        if edges.len() < 2 {
            continue; // fan-out of one is already a (trivial) tree
        }
        let old: Vec<_> = edges
            .iter()
            .map(|&e| mapping.route(e).expect("filtered to routed").clone())
            .collect();
        let old_footprint = footprint(&old);
        let reqs: Vec<RouteRequest> = old.iter().map(|r| *r.request()).collect();

        // Route against a snapshot with this signal's routes released —
        // exactly the occupancy a commit would re-claim into.
        let mut occ = mapping.occupancy().clone();
        for r in &old {
            occ.release_route(r);
        }
        let Ok(new) = router.route_fanout(&mut occ, &reqs, &UnitCost) else {
            continue; // originals stay committed
        };
        let new_footprint = footprint(&new);
        if new_footprint >= old_footprint {
            continue; // strict improvement only
        }
        for (&e, r) in edges.iter().zip(new) {
            mapping.clear_route(e);
            mapping.set_route(e, r);
        }
        stats.signals_consolidated += 1;
        stats.cells_saved += (old_footprint - new_footprint) as u64;
    }

    obs::counter("fanout.consolidations").add(stats.signals_consolidated);
    obs::counter("fanout.cells_saved").add(stats.cells_saved);
    stats
}

/// The number of distinct MRRG cells `routes` hold: one signal's
/// footprint, each trunk cell its branches share counted once.
fn footprint(routes: &[Route]) -> usize {
    routes
        .iter()
        .flat_map(Route::resources)
        .collect::<HashSet<_>>()
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MapLimits, Mapper, PathFinderMapper};
    use rewire_arch::presets;
    use rewire_dfg::kernels;

    /// Consolidation keeps the mapping valid, keeps the II, and never
    /// grows any signal's footprint.
    #[test]
    fn consolidation_is_safe_and_monotone() {
        let cgra = presets::paper_4x4_r4();
        let dfg = kernels::fir();
        let out = PathFinderMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        let mut m = out.mapping.expect("fir maps on 4x4/r4");
        route_fanout_per_edge(&dfg, &cgra, &mut m);
        assert!(m.is_valid(&dfg, &cgra), "per-edge input must be valid");
        let ii = m.ii();

        let before: Vec<(u64, usize)> = per_signal_footprints(&dfg, &m);
        let stats = consolidate_fanout(&dfg, &cgra, &mut m);
        let after: Vec<(u64, usize)> = per_signal_footprints(&dfg, &m);

        assert!(m.is_valid(&dfg, &cgra), "consolidation broke the mapping");
        assert_eq!(m.ii(), ii);
        for ((sig, b), (sig2, a)) in before.iter().zip(&after) {
            assert_eq!(sig, sig2);
            assert!(a <= b, "signal {sig} footprint grew: {b} -> {a}");
        }
        let saved: usize = before
            .iter()
            .zip(&after)
            .map(|((_, b), (_, a))| b - a)
            .sum();
        assert_eq!(stats.cells_saved as usize, saved);
        // Idempotence: a second pass finds nothing further to shrink on
        // signals it already consolidated to their tree optimum... it may
        // still shave others, but must stay safe.
        let again = consolidate_fanout(&dfg, &cgra, &mut m);
        assert!(m.is_valid(&dfg, &cgra));
        assert!(again.cells_saved <= stats.cells_saved + saved as u64);
    }

    /// Re-routes every fan-out hub of `m` edge by edge with
    /// [`Router::route`], each branch claimed before the next is routed,
    /// so the pass has an unconsolidated input to improve. A hub whose
    /// branches do not all route keeps its original routes.
    fn route_fanout_per_edge(dfg: &Dfg, cgra: &Cgra, m: &mut Mapping) {
        let mrrg = m.mrrg().clone();
        let router = Router::new(cgra, &mrrg);
        for u in (0..dfg.num_nodes() as u32).map(NodeId::new) {
            let edges: Vec<EdgeId> = dfg.out_edges(u).map(|e| e.id()).collect();
            if edges.len() < 2 {
                continue;
            }
            let old: Vec<_> = edges.iter().map(|&e| m.route(e).cloned()).collect();
            for &e in &edges {
                m.clear_route(e);
            }
            let mut rerouted = true;
            for &e in &edges {
                let req = m
                    .request_for(dfg, e)
                    .expect("valid mapping is fully placed");
                match router.route(m.occupancy(), &req, &UnitCost) {
                    Ok(route) => m.set_route(e, route),
                    Err(_) => {
                        rerouted = false;
                        break;
                    }
                }
            }
            if !rerouted {
                for (&e, r) in edges.iter().zip(old) {
                    m.clear_route(e);
                    if let Some(r) = r {
                        m.set_route(e, r);
                    }
                }
            }
        }
    }

    fn per_signal_footprints(dfg: &Dfg, m: &Mapping) -> Vec<(u64, usize)> {
        (0..dfg.num_nodes() as u32)
            .map(NodeId::new)
            .filter_map(|u| {
                let routes: Vec<_> = dfg
                    .out_edges(u)
                    .filter_map(|e| m.route(e.id()).cloned())
                    .collect();
                if routes.is_empty() {
                    return None;
                }
                Some((u.index() as u64, footprint(&routes)))
            })
            .collect()
    }
}
