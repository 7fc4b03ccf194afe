//! Property-based tests over random DFGs: structural invariants of the
//! graph algorithms and transforms.

use proptest::prelude::*;
use rewire_dfg::generate::{random_dfg, RandomDfgParams};
use rewire_dfg::Dfg;

fn params(nodes: usize, recurrences: usize) -> RandomDfgParams {
    RandomDfgParams {
        nodes,
        recurrences,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Topological order is a permutation of the nodes respecting every
    /// intra-iteration edge.
    #[test]
    fn topo_order_is_a_valid_permutation(seed in 0u64..100_000, n in 2usize..40) {
        let g = random_dfg(&params(n, 1), seed);
        let order = g.topo_order();
        prop_assert_eq!(order.len(), g.num_nodes());
        let pos = |v: rewire_dfg::NodeId| order.iter().position(|&x| x == v).unwrap();
        for e in g.edges() {
            if e.distance() == 0 {
                prop_assert!(pos(e.src()) < pos(e.dst()));
            }
        }
    }

    /// RecMII is monotone under unrolling: unroll-by-f multiplies the
    /// recurrence bound by exactly f (same cycles, f× latency, same
    /// distance structure after re-normalisation).
    #[test]
    fn unroll_scales_rec_mii(seed in 0u64..100_000, f in 1u32..4) {
        let g = random_dfg(&params(12, 1), seed);
        let rec = g.rec_mii();
        let u = g.unroll(f);
        prop_assert_eq!(u.rec_mii(), rec * f);
    }

    /// Text serialisation round-trips exactly.
    #[test]
    fn text_round_trip(seed in 0u64..100_000, n in 2usize..30) {
        let g = random_dfg(&params(n, 2), seed);
        let parsed = Dfg::from_text(&g.to_text()).unwrap();
        prop_assert_eq!(parsed.num_nodes(), g.num_nodes());
        prop_assert_eq!(parsed.num_edges(), g.num_edges());
        for (a, b) in parsed.edges().zip(g.edges()) {
            prop_assert_eq!((a.src(), a.dst(), a.distance()), (b.src(), b.dst(), b.distance()));
        }
        for (a, b) in parsed.nodes().zip(g.nodes()) {
            prop_assert_eq!(a.op(), b.op());
            prop_assert_eq!(a.name(), b.name());
        }
    }

    /// Hop distance is symmetric on undirected connectivity and zero only
    /// for self/overlapping sets.
    #[test]
    fn hop_distance_symmetry(seed in 0u64..100_000) {
        let g = random_dfg(&params(15, 1), seed);
        let ids: Vec<_> = g.node_ids().collect();
        let a = ids[3];
        let b = ids[10];
        let d_ab = g.hop_distance_to_set(a, &[b]);
        let d_ba = g.hop_distance_to_set(b, &[a]);
        prop_assert_eq!(d_ab, d_ba);
    }

    /// Recurrence back-edge distances are stratified: never out of bounds,
    /// and once `recurrences >= max_distance` every distance in
    /// `1..=max_distance` is present. Pins the distance distribution the
    /// fuzz harness relies on (the old independent draws could leave
    /// distance > 1 — and hence the router's deep RecMII paths — untested
    /// for arbitrarily many seeds).
    #[test]
    fn recurrence_distance_distribution(seed in 0u64..100_000, maxd in 1u32..6) {
        let p = RandomDfgParams {
            nodes: 12,
            recurrences: maxd as usize,
            max_distance: maxd,
            ..Default::default()
        };
        let g = random_dfg(&p, seed);
        let mut seen = vec![false; maxd as usize + 1];
        for e in g.edges() {
            if e.distance() > 0 {
                prop_assert!(e.distance() <= maxd);
                seen[e.distance() as usize] = true;
            }
        }
        for (d, hit) in seen.iter().enumerate().skip(1) {
            prop_assert!(hit, "distance {} missing with max_distance {}", d, maxd);
        }
    }

    /// The DOT export mentions every node and every edge arrow.
    #[test]
    fn dot_is_complete(seed in 0u64..100_000, n in 2usize..20) {
        let g = random_dfg(&params(n, 1), seed);
        let dot = g.to_dot();
        prop_assert_eq!(dot.matches(" -> ").count(), g.num_edges());
        for v in g.node_ids() {
            let tag = format!("{v} [");
            prop_assert!(dot.contains(&tag));
        }
    }
}
