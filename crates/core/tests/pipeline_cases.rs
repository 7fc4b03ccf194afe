//! Extra integration cases for the Rewire pipeline: memory-constrained
//! clusters, carried-edge clusters, and propagation around congestion.

use rand::SeedableRng;
use rewire_arch::{presets, Coord, OpKind};
use rewire_core::{propagate, Direction, PropagationSeed, RewireMapper, RewireStats};
use rewire_dfg::{Dfg, NodeId};
use rewire_mappers::Mapping;
use rewire_mrrg::{Mrrg, Occupancy, Resource};
use std::time::{Duration, Instant};

fn pe(cgra: &rewire_arch::Cgra, r: u16, c: u16) -> rewire_arch::PeId {
    cgra.pe_at(Coord::new(r, c)).unwrap().id()
}

/// Amending a cluster containing a memory op places it on a memory column.
#[test]
fn memory_cluster_lands_on_memory_column() {
    let cgra = presets::paper_4x4_r4();
    let mut dfg = Dfg::new("m");
    let addr = dfg.add_node("addr", OpKind::Addr);
    let ld = dfg.add_node("ld", OpKind::Load);
    let use1 = dfg.add_node("use", OpKind::Add);
    dfg.add_edge(addr, ld, 0).unwrap();
    dfg.add_edge(ld, use1, 0).unwrap();

    let mrrg = Mrrg::new(&cgra, 2);
    let mut mapping = Mapping::new(&dfg, &mrrg);
    mapping.place(addr, pe(&cgra, 0, 1), 0);
    mapping.place(use1, pe(&cgra, 1, 1), 6);

    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut stats = RewireStats::default();
    let deadline = Instant::now() + Duration::from_secs(5);
    let amended = RewireMapper::new()
        .amend(&dfg, &cgra, mapping, deadline, &mut rng, &mut stats)
        .expect("three nodes amend easily");
    let (ld_pe, _) = amended.placement(ld).unwrap();
    assert!(cgra.pe(ld_pe).memory_capable());
    assert!(amended.is_valid(&dfg, &cgra));
}

/// A cluster whose members are linked by a loop-carried edge keeps the
/// modulo timing legal.
#[test]
fn carried_edge_cluster_respects_modulo_timing() {
    let cgra = presets::paper_4x4_r4();
    let mut dfg = Dfg::new("c");
    let a = dfg.add_node("a", OpKind::Add);
    let b = dfg.add_node("b", OpKind::Add);
    let e_fwd = dfg.add_edge(a, b, 0).unwrap();
    let e_back = dfg.add_edge(b, a, 1).unwrap();

    let ii = 3;
    let mrrg = Mrrg::new(&cgra, ii);
    let mapping = Mapping::new(&dfg, &mrrg); // everything unmapped
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut stats = RewireStats::default();
    let deadline = Instant::now() + Duration::from_secs(5);
    let amended = RewireMapper::new()
        .amend(&dfg, &cgra, mapping, deadline, &mut rng, &mut stats)
        .expect("2-node recurrence maps at II 3");
    let (_, ta) = amended.placement(a).unwrap();
    let (_, tb) = amended.placement(b).unwrap();
    assert!(tb > ta);
    assert!(ta + ii > tb, "back edge must close within one II");
    assert!(amended.route(e_fwd).is_some());
    assert!(amended.route(e_back).is_some());
}

/// Propagation navigates around a congested wall: with the central columns
/// blocked for a foreign signal, the wave still reaches the far side via
/// free rows, later than the Manhattan optimum.
#[test]
fn propagation_routes_around_congestion() {
    let cgra = presets::paper_4x4_r4();
    let mrrg = Mrrg::new(&cgra, 1);
    let mut occ = Occupancy::new(&mrrg);
    // Wall: block every link into column 1 except on row 3.
    for link in cgra.links() {
        let dst = cgra.pe(link.dst()).coord();
        if dst.col == 1 && dst.row != 3 {
            occ.claim(
                Resource::Link {
                    link: link.id(),
                    slot: 0,
                },
                NodeId::new(99),
                0,
            );
        }
    }
    let seeds = [PropagationSeed {
        source: NodeId::new(0),
        direction: Direction::Forward,
        pe: pe(&cgra, 0, 0),
        cycle: 1,
        wave: 1,
    }];
    let store = propagate(&cgra, &occ, &seeds, 10);
    let target = pe(&cgra, 0, 2);
    let cycles: Vec<u32> = store
        .cycles(NodeId::new(0), Direction::Forward, 1, target)
        .collect();
    assert!(!cycles.is_empty(), "the wave must get around the wall");
    assert!(
        cycles[0] > 1 + cgra.distance(pe(&cgra, 0, 0), target),
        "the detour costs extra cycles: {:?}",
        cycles
    );
}
