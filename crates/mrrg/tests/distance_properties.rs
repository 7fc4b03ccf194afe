//! Property tests for the hop-distance oracle backing router pruning.
//!
//! The pruning proof in `router.rs` leans on three facts about
//! [`DistanceOracle`]: distances are exact metric values on the link graph
//! (symmetry on bidirectional fabrics, triangle inequality everywhere) and
//! they never over-estimate the link hops of any route the router actually
//! returns (admissibility). Disconnected fabrics must report
//! [`DistanceOracle::UNREACHABLE`] and route to a clean `NoPath`, never a
//! panic.

use proptest::prelude::*;
use rewire_arch::random::{random_cgra_spec, CgraSpec, RandomCgraParams};
use rewire_arch::PeId;
use rewire_dfg::NodeId;
use rewire_mrrg::{DistanceOracle, Mrrg, Occupancy, RouteError, RouteRequest, Router, UnitCost};

fn params(cut_prob: f64) -> RandomCgraParams {
    RandomCgraParams {
        cut_prob,
        torus_prob: 0.3,
        diagonal_prob: 0.3,
        ..RandomCgraParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Every builder fabric is bidirectional (links come in opposing
    /// pairs, and a row cut severs both directions at once), so the
    /// distances must be symmetric — including on cut fabrics, where
    /// unreachability itself is symmetric.
    #[test]
    fn distances_are_symmetric_on_bidirectional_fabrics(arch_seed in 0u64..192) {
        let cgra = random_cgra_spec(&params(0.25), arch_seed).build().unwrap();
        let oracle = DistanceOracle::build(&cgra);
        for a in cgra.pes() {
            for b in cgra.pes() {
                prop_assert_eq!(
                    oracle.hops_to(&cgra, b.id())[a.id().index()],
                    oracle.hops_to(&cgra, a.id())[b.id().index()],
                    "{} vs {}", a.id(), b.id()
                );
            }
        }
    }

    /// Shortest-path distances obey the triangle inequality; unreachable
    /// legs saturate instead of wrapping.
    #[test]
    fn distances_obey_the_triangle_inequality(arch_seed in 0u64..192) {
        let cgra = random_cgra_spec(&params(0.25), arch_seed).build().unwrap();
        let oracle = DistanceOracle::build(&cgra);
        let d = |a: usize, b: usize| oracle.hops_to(&cgra, PeId::new(b as u32))[a];
        let n = cgra.num_pes();
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    let via = d(a, b).saturating_add(d(b, c));
                    prop_assert!(
                        d(a, c) <= via,
                        "d({a},{c}) = {} > {} = d({a},{b}) + d({b},{c})",
                        d(a, c), via
                    );
                }
            }
        }
    }

    /// Admissibility: the oracle never over-estimates — any route the
    /// router returns crosses at least `d(src, dst)` links.
    #[test]
    fn oracle_lower_bounds_every_returned_route(
        arch_seed in 0u64..64,
        src in 0u32..64,
        dst in 0u32..64,
        extra in 0u32..10,
        ii in 1u32..5,
    ) {
        let cgra = random_cgra_spec(&params(0.0), arch_seed).build().unwrap();
        let oracle = DistanceOracle::build(&cgra);
        let mrrg = Mrrg::new(&cgra, ii);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let n = cgra.num_pes() as u32;
        let (src_pe, dst_pe) = (PeId::new(src % n), PeId::new(dst % n));
        let req = RouteRequest {
            signal: NodeId::new(0),
            src_pe,
            depart_cycle: 1,
            dst_pe,
            arrive_cycle: 1 + extra,
        };
        if let Ok(route) = router.route(&occ, &req, &UnitCost) {
            let d = oracle.hops_to(&cgra, dst_pe)[src_pe.index()];
            prop_assert_ne!(d, DistanceOracle::UNREACHABLE, "routed the unreachable");
            prop_assert!(
                d as usize <= route.hops(),
                "d({src_pe},{dst_pe}) = {} exceeds the {}-hop route",
                d, route.hops()
            );
        }
    }
}

/// A deliberately disconnected fabric built from a [`CgraSpec`] display
/// string: cross-island distances are `UNREACHABLE` and cross-island
/// routes fail with `NoPath` — no panic, no infinite search.
#[test]
fn disconnected_spec_routes_to_no_path() {
    let spec: CgraSpec = "4x4 regs=2 banks=1 memcols=0 cut=2".parse().unwrap();
    assert_eq!(spec.cut_row, Some(2));
    let cgra = spec.build().unwrap();
    let oracle = DistanceOracle::build(&cgra);
    let top = PeId::new(0); // row 0
    let bottom = PeId::new(15); // row 3
    assert_eq!(
        oracle.hops_to(&cgra, bottom)[top.index()],
        DistanceOracle::UNREACHABLE
    );

    let mrrg = Mrrg::new(&cgra, 2);
    let occ = Occupancy::new(&mrrg);
    let router = Router::new(&cgra, &mrrg);
    let req = RouteRequest {
        signal: NodeId::new(0),
        src_pe: top,
        depart_cycle: 1,
        dst_pe: bottom,
        arrive_cycle: 12,
    };
    let err = router.route(&occ, &req, &UnitCost).unwrap_err();
    assert!(matches!(err, RouteError::NoPath { .. }));
    // Within-island routing still works on the same fabric.
    let ok = router
        .route(
            &occ,
            &RouteRequest {
                signal: NodeId::new(0),
                src_pe: top,
                depart_cycle: 1,
                dst_pe: PeId::new(5), // row 1, same island
                arrive_cycle: 3,
            },
            &UnitCost,
        )
        .unwrap();
    assert_eq!(ok.hops(), 2);
}
