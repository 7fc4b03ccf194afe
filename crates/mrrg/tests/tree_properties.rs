//! Property tests of route trees and subtree-delta re-routing over random
//! (occasionally cut) fabrics.
//!
//! Pinned invariants:
//!
//! * every tree [`Router::route_fanout`] returns claims into an empty
//!   occupancy without overuse — no branch revisits a cell and branches
//!   share cells only at equal phase, the one sharing rule
//!   [`Occupancy`] admits,
//! * every branch reaches its sink at the scheduled cycle (step count and
//!   per-cell slots follow the timing contract),
//! * subtree-delta re-routing is equivalent to a full re-route: ripping
//!   *every* branch and delta-routing reproduces the from-scratch tree
//!   exactly, and ripping any proper subset reaches a fixpoint in one
//!   pass (re-ripping the same branches re-derives byte-identical
//!   routes), so PF*'s delta repair explores the same space as whole-tree
//!   re-routing.

use proptest::prelude::*;
use rewire_arch::random::{random_cgra_spec, RandomCgraParams};
use rewire_arch::{Cgra, PeId};
use rewire_dfg::NodeId;
use rewire_mrrg::{Mrrg, Occupancy, RouteRequest, Router, UnitCost};

/// A random fabric; `with_cut` forces the row-cut topology class that
/// detours routes around the severed links.
fn fabric(seed: u64, with_cut: bool) -> Cgra {
    let params = RandomCgraParams {
        rows: (2, 5),
        cols: (2, 5),
        regs_per_pe: (1, 4),
        memory_prob: 0.5,
        memory_banks: (1, 2),
        max_memory_columns: 2,
        torus_prob: 0.2,
        diagonal_prob: 0.2,
        cut_prob: if with_cut { 1.0 } else { 0.0 },
    };
    random_cgra_spec(&params, seed)
        .build()
        .expect("random specs always build")
}

/// Builds the fan-out request list: every sink `dsts[i]` (taken modulo the
/// PE count) departs one producer; per-sink slack of 2–7 extra cycles is
/// carved out of `extra_bits` (3 bits each).
fn requests(
    cgra: &Cgra,
    src: u64,
    depart: u32,
    dsts: &[u64],
    extra_bits: u64,
) -> Vec<RouteRequest> {
    let n = cgra.num_pes() as u64;
    dsts.iter()
        .enumerate()
        .map(|(i, &dst)| RouteRequest {
            signal: NodeId::new(7),
            src_pe: PeId::new((src % n) as u32),
            depart_cycle: depart,
            dst_pe: PeId::new((dst % n) as u32),
            arrive_cycle: depart + 2 + (extra_bits >> (3 * i) & 0b111) as u32 % 6,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Every fan-out tree comes back in request order, arrives on
    /// schedule, and claims overuse-free.
    #[test]
    fn trees_are_valid_and_arrive_on_schedule(
        arch_seed in 0u64..512,
        with_cut in 0u32..2,
        src in 0u64..64,
        dsts in proptest::collection::vec(0u64..64, 2..5),
        extra_bits in 0u64..4096,
        depart in 1u32..5,
        ii in 2u32..5,
    ) {
        let cgra = fabric(arch_seed, with_cut == 1);
        let mrrg = Mrrg::new(&cgra, ii);
        let mut occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let reqs = requests(&cgra, src, depart, &dsts, extra_bits);
        let Ok(routes) = router.route_fanout(&mut occ, &reqs, &UnitCost) else {
            return Ok(()); // geometrically unroutable draws are legitimate
        };
        prop_assert_eq!(occ.used_cells(), 0, "route_fanout must leave occ untouched");

        // Branches come back in request order and arrive on schedule.
        prop_assert_eq!(routes.len(), reqs.len());
        for (route, req) in routes.iter().zip(&reqs) {
            prop_assert_eq!(route.request(), req);
            let steps = (req.arrive_cycle - req.depart_cycle) as usize;
            let len = route.resources().len();
            prop_assert!(len == steps || len == steps + 1, "len {} vs steps {}", len, steps);
            for (k, cell) in route.resources().iter().enumerate() {
                prop_assert_eq!(cell.slot(), (req.depart_cycle + k as u32) % ii);
                prop_assert!(!cell.is_fu());
            }
        }

        // Claiming the whole tree into the empty occupancy is overuse-free
        // exactly when no branch revisits a cell and branches share only
        // at equal phase.
        for route in &routes {
            occ.claim_route(route);
        }
        prop_assert_eq!(occ.total_overuse(), 0);
    }

    /// Delta re-routing with *every* branch ripped degenerates to the
    /// from-scratch tree route, byte for byte.
    #[test]
    fn full_rip_delta_equals_from_scratch(
        arch_seed in 0u64..512,
        src in 0u64..64,
        dsts in proptest::collection::vec(0u64..64, 2..5),
        extra_bits in 0u64..4096,
        ii in 2u32..5,
    ) {
        let cgra = fabric(arch_seed, false);
        let mrrg = Mrrg::new(&cgra, ii);
        let mut occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let reqs = requests(&cgra, src, 1, &dsts, extra_bits);
        let Ok(from_scratch) = router.route_fanout(&mut occ, &reqs, &UnitCost) else {
            return Ok(());
        };
        // Commit the tree, then rip every branch — the occupancy is back
        // to its base state, so the delta call *is* a full re-route.
        for route in &from_scratch {
            occ.claim_route(route);
        }
        for route in &from_scratch {
            occ.release_route(route);
        }
        let delta = router
            .route_fanout(&mut occ, &reqs, &UnitCost)
            .expect("a tree that routed once routes again");
        prop_assert_eq!(&delta, &from_scratch);
    }

    /// Ripping a proper subset of branches and delta re-routing them
    /// against the surviving trunk (a) yields a combined set that still
    /// claims overuse-free, and (b) is a fixpoint: ripping
    /// the same branches again re-derives byte-identical routes.
    #[test]
    fn partial_rip_delta_is_a_fixpoint(
        arch_seed in 0u64..512,
        with_cut in 0u32..2,
        src in 0u64..64,
        dsts in proptest::collection::vec(0u64..64, 3..6),
        extra_bits in 0u64..32768,
        rip_mask in 1u32..31,
        ii in 2u32..5,
    ) {
        let cgra = fabric(arch_seed, with_cut == 1);
        let mrrg = Mrrg::new(&cgra, ii);
        let mut occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let reqs = requests(&cgra, src, 1, &dsts, extra_bits);
        let Ok(original) = router.route_fanout(&mut occ, &reqs, &UnitCost) else {
            return Ok(());
        };
        let ripped: Vec<usize> = (0..reqs.len()).filter(|i| rip_mask >> i & 1 == 1).collect();
        if ripped.is_empty() || ripped.len() == reqs.len() {
            return Ok(()); // the mask must rip a proper, non-empty subset
        }

        // Commit the whole tree, then rip only the selected branches; the
        // per-cell refcounts keep the shared trunk alive for survivors.
        for route in &original {
            occ.claim_route(route);
        }
        for &i in &ripped {
            occ.release_route(&original[i]);
        }
        let rip_reqs: Vec<RouteRequest> = ripped.iter().map(|&i| reqs[i]).collect();
        let delta1 = router
            .route_fanout(&mut occ, &rip_reqs, &UnitCost)
            .expect("ripped branches re-route: their old paths are still legal");

        // (a) The occupancy holds the survivors; adding the re-routed
        // branches claims every branch once, without overuse.
        prop_assert_eq!(delta1.len(), rip_reqs.len());
        for route in &delta1 {
            occ.claim_route(route);
        }
        prop_assert_eq!(occ.total_overuse(), 0);

        // (b) Fixpoint: rip the same branches again — the environment is
        // identical (survivors only), so the delta must reproduce itself.
        for route in &delta1 {
            occ.release_route(route);
        }
        let delta2 = router
            .route_fanout(&mut occ, &rip_reqs, &UnitCost)
            .expect("fixpoint re-route");
        prop_assert_eq!(&delta2, &delta1);
    }
}
