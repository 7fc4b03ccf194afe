//! Cross-module tests of the Rewire pipeline on controlled scenarios.

use crate::propagate::{propagate, Direction, PropagationSeed};
use crate::{Cluster, RewireConfig, RewireMapper, RewireStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rewire_arch::{presets, Coord, OpKind, PeId};
use rewire_dfg::{Dfg, NodeId};
use rewire_mappers::{MapLimits, Mapper, Mapping};
use rewire_mrrg::Mrrg;
use std::time::{Duration, Instant};

fn pe(cgra: &rewire_arch::Cgra, r: u16, c: u16) -> PeId {
    cgra.pe_at(Coord::new(r, c)).unwrap().id()
}

/// The paper's motivating example (Fig 2): A and B mapped, G mapped, and a
/// middle region C/D/E/F to re-map in one shot.
#[test]
fn motivating_example_maps_in_one_cluster() {
    let cgra = presets::paper_4x4_r4();
    let mut dfg = Dfg::new("fig2");
    let a = dfg.add_node("A", OpKind::Load);
    let b = dfg.add_node("B", OpKind::Load);
    let c = dfg.add_node("C", OpKind::Add);
    let d = dfg.add_node("D", OpKind::Mul);
    let e = dfg.add_node("E", OpKind::Add);
    let f = dfg.add_node("F", OpKind::Sub);
    let g = dfg.add_node("G", OpKind::Store);
    dfg.add_edge(a, c, 0).unwrap();
    dfg.add_edge(b, c, 0).unwrap();
    dfg.add_edge(b, d, 0).unwrap();
    dfg.add_edge(c, e, 0).unwrap();
    dfg.add_edge(c, f, 0).unwrap();
    dfg.add_edge(d, e, 0).unwrap();
    dfg.add_edge(e, f, 0).unwrap();
    dfg.add_edge(f, g, 0).unwrap();

    let ii = 3;
    let mrrg = Mrrg::new(&cgra, ii);
    let mut mapping = Mapping::new(&dfg, &mrrg);
    mapping.place(a, pe(&cgra, 0, 0), 0);
    mapping.place(b, pe(&cgra, 1, 0), 0);
    mapping.place(g, pe(&cgra, 2, 0), 6);

    let mut rng = StdRng::seed_from_u64(1);
    let mut stats = RewireStats::default();
    let deadline = Instant::now() + Duration::from_secs(10);
    let amended = RewireMapper::new()
        .amend(&dfg, &cgra, mapping, deadline, &mut rng, &mut stats)
        .expect("the motivating example maps at II 3");
    assert!(amended.is_valid(&dfg, &cgra));
    // The anchors stayed put unless the amendment had to move them.
    assert!(stats.clusters_attempted >= 1);
    assert!(stats.verification_successes >= 1);
}

/// Propagation must honour the paper's dedup rule: tuple counts stay
/// bounded by PEs × (rounds + 1) per wave.
#[test]
fn propagation_tuple_count_is_bounded() {
    let cgra = presets::paper_8x8_r4();
    let mrrg = Mrrg::new(&cgra, 4);
    let occ = rewire_mrrg::Occupancy::new(&mrrg);
    let rounds = 12;
    let seeds: Vec<PropagationSeed> = (0..6)
        .map(|i| PropagationSeed {
            source: NodeId::new(i),
            direction: Direction::Forward,
            pe: PeId::new(i * 9),
            cycle: 1,
            wave: 1,
        })
        .collect();
    let store = propagate(&cgra, &occ, &seeds, rounds);
    let bound = seeds.len() as u64 * cgra.num_pes() as u64 * (rounds as u64 + 1);
    assert!(
        store.num_tuples() <= bound,
        "{} > {bound}",
        store.num_tuples()
    );
}

/// Cluster growth pulls in mapped anchors eventually (mapped nodes are
/// legal growth targets).
#[test]
fn cluster_growth_reaches_mapped_nodes() {
    let mut dfg = Dfg::new("line");
    let ids: Vec<NodeId> = (0..6)
        .map(|i| dfg.add_node(format!("n{i}"), OpKind::Add))
        .collect();
    for w in ids.windows(2) {
        dfg.add_edge(w[0], w[1], 0).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(2);
    let mut cluster = Cluster::select(&dfg, &ids[2..3], 1, &mut rng);
    // Pool = everything else; growth walks outwards by hop distance.
    for _ in 0..5 {
        let pool: Vec<NodeId> = ids
            .iter()
            .copied()
            .filter(|n| !cluster.contains(*n))
            .collect();
        if pool.is_empty() {
            break;
        }
        cluster.grow(&dfg, &pool).unwrap();
    }
    assert_eq!(cluster.len(), 6, "the whole line joins the cluster");
}

/// α = 1 (single-node amendment, the conventional paradigm) still maps
/// easy kernels, just less capably — the ablation's premise.
#[test]
fn alpha_one_still_maps_easy_kernels() {
    let cgra = presets::paper_4x4_r4();
    let dfg = rewire_dfg::kernels::fir();
    let config = RewireConfig {
        alpha: 1,
        ..Default::default()
    };
    let limits = MapLimits::fast().with_ii_time_budget(Duration::from_secs(2));
    let out = RewireMapper::with_config(config).map(&dfg, &cgra, &limits);
    if let Some(m) = out.mapping {
        assert!(m.is_valid(&dfg, &cgra));
    }
}

/// The verification-success statistic accumulates sensibly across a run
/// (the §IV-D "around 95 %" claim is measured by the repro binary).
#[test]
fn verification_stats_accumulate() {
    let cgra = presets::paper_4x4_r4();
    let dfg = rewire_dfg::kernels::atax();
    let limits = MapLimits::fast().with_ii_time_budget(Duration::from_secs(2));
    let (_, rs) = RewireMapper::new().map_with_stats(&dfg, &cgra, &limits);
    assert!(rs.verifications >= rs.verification_successes);
    assert!(rs.clusters_attempted > 0);
    let rate = rs.verification_success_rate();
    assert!((0.0..=1.0).contains(&rate));
}
