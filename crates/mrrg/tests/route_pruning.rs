//! Differential route-equivalence: the pruned sparse-frontier router must
//! be byte-identical to the dense DP it replaced.
//!
//! Pruning uses the exact hop distance from the distance oracle, so it
//! may only skip states that can never contribute to an arrival
//! candidate — costs, parents and every strict-`<` tie-break must come out
//! exactly the same. These tests drive both [`RouterMode`]s over random
//! fabrics (including torus, diagonal and deliberately disconnected
//! ones), random occupancies and both cost models, and assert the full
//! `Result<Route, RouteError>` is equal. Mappers only ever build the
//! pruned router ([`Router::new`]), so route equality is gated here, at
//! the level where it originates.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rewire_arch::random::{random_cgra_spec, RandomCgraParams};
use rewire_arch::{presets, PeId};
use rewire_dfg::NodeId;
use rewire_mrrg::{Mrrg, NegotiatedCost, Occupancy, RouteRequest, Router, RouterMode, UnitCost};

fn fuzz_params() -> RandomCgraParams {
    RandomCgraParams {
        // A quarter of the fabrics are split into two islands so the
        // equivalence also covers genuinely unreachable destinations.
        cut_prob: 0.25,
        torus_prob: 0.3,
        diagonal_prob: 0.3,
        ..RandomCgraParams::default()
    }
}

/// Routes `req` under both modes and asserts the results (success or
/// failure) are identical.
fn assert_modes_agree(
    cgra: &rewire_arch::Cgra,
    mrrg: &Mrrg,
    occ: &Occupancy,
    req: &RouteRequest,
    cost: &impl rewire_mrrg::CostModel,
) -> Result<(), TestCaseError> {
    let dense = Router::with_mode(cgra, mrrg, RouterMode::Dense);
    let pruned = Router::with_mode(cgra, mrrg, RouterMode::Pruned);
    let a = dense.route(occ, req, cost);
    let b = pruned.route(occ, req, cost);
    prop_assert_eq!(a, b, "modes diverged on {:?}", req);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    /// Random fabric, random occupancy, random request: byte-identical
    /// outcomes under the exclusive `UnitCost` model.
    #[test]
    fn unit_cost_routes_are_byte_identical(
        arch_seed in 0u64..96,
        occ_seed in 0u64..1024,
        src in 0u32..64,
        dst in 0u32..64,
        depart in 1u32..8,
        extra in 0u32..10,
        ii in 1u32..5,
        claims in 0usize..48,
    ) {
        let spec = random_cgra_spec(&fuzz_params(), arch_seed);
        let cgra = spec.build().expect("random specs build");
        let mrrg = Mrrg::new(&cgra, ii);
        let mut occ = Occupancy::new(&mrrg);
        let mut rng = StdRng::seed_from_u64(occ_seed);
        for _ in 0..claims {
            let cell = mrrg.resource_of(rng.random_range(0..mrrg.num_cells()));
            occ.claim(
                cell,
                NodeId::new(rng.random_range(0..6)),
                rng.random_range(0..4),
            );
        }
        let n = cgra.num_pes() as u32;
        let req = RouteRequest {
            signal: NodeId::new(0),
            src_pe: PeId::new(src % n),
            depart_cycle: depart,
            dst_pe: PeId::new(dst % n),
            arrive_cycle: depart + extra,
        };
        assert_modes_agree(&cgra, &mrrg, &occ, &req, &UnitCost)?;
    }

    /// Same property under negotiated congestion costs (overused cells
    /// allowed at a price), where the DP explores far more live states.
    #[test]
    fn negotiated_cost_routes_are_byte_identical(
        arch_seed in 0u64..96,
        occ_seed in 0u64..1024,
        src in 0u32..64,
        dst in 0u32..64,
        extra in 0u32..8,
        ii in 1u32..4,
        claims in 0usize..64,
    ) {
        let spec = random_cgra_spec(&fuzz_params(), arch_seed);
        let cgra = spec.build().expect("random specs build");
        let mrrg = Mrrg::new(&cgra, ii);
        let mut occ = Occupancy::new(&mrrg);
        let mut rng = StdRng::seed_from_u64(occ_seed);
        for _ in 0..claims {
            let cell = mrrg.resource_of(rng.random_range(0..mrrg.num_cells()));
            occ.claim(
                cell,
                NodeId::new(rng.random_range(0..4)),
                rng.random_range(0..3),
            );
        }
        let mut nc = NegotiatedCost::new(&mrrg, 7.5, 1.25);
        // Random claims above produce genuine overuse; accumulate twice so
        // history costs participate in tie-breaks as well.
        nc.accumulate_history_everywhere(&occ);
        nc.accumulate_history_everywhere(&occ);
        let n = cgra.num_pes() as u32;
        let req = RouteRequest {
            signal: NodeId::new(1),
            src_pe: PeId::new(src % n),
            depart_cycle: 2,
            dst_pe: PeId::new(dst % n),
            arrive_cycle: 2 + extra,
        };
        assert_modes_agree(&cgra, &mrrg, &occ, &req, &nc)?;
    }
}

/// Exhaustive deterministic sweep on the paper's baseline fabric: every
/// endpoint pair at several IIs and slacks, on an empty table. Catches any
/// tie-break drift that randomized cases might sample around.
#[test]
fn all_pairs_sweep_on_the_paper_fabric() {
    let cgra = presets::paper_4x4_r4();
    for ii in [1u32, 2, 4] {
        let mrrg = Mrrg::new(&cgra, ii);
        let occ = Occupancy::new(&mrrg);
        let dense = Router::with_mode(&cgra, &mrrg, RouterMode::Dense);
        let pruned = Router::with_mode(&cgra, &mrrg, RouterMode::Pruned);
        for src in 0..cgra.num_pes() as u32 {
            for dst in 0..cgra.num_pes() as u32 {
                for extra in [0u32, 1, 3, 6] {
                    let req = RouteRequest {
                        signal: NodeId::new(0),
                        src_pe: PeId::new(src),
                        depart_cycle: 1,
                        dst_pe: PeId::new(dst),
                        arrive_cycle: 1 + extra,
                    };
                    let a = dense.route(&occ, &req, &UnitCost);
                    let b = pruned.route(&occ, &req, &UnitCost);
                    assert_eq!(a, b, "ii {ii}, {req:?}");
                }
            }
        }
    }
}
