//! Propagation-tuple intersection (§IV-D, Eq. 1): turning shared routing
//! knowledge into per-node placement candidates.

use crate::propagate::{Direction, TupleStore};
use crate::RewireConfig;
use rewire_arch::{Cgra, PeId};
use rewire_dfg::{Dfg, NodeId};
use rewire_mappers::Mapping;
use rewire_mrrg::Resource;
use std::collections::VecDeque;

/// One constraint a placement candidate of a cluster node must satisfy.
///
/// Direct requirements come from mapped neighbours and are exact-cycle;
/// transitive requirements stand in for cluster-internal neighbours, whose
/// nearest mapped ancestor/descendant is located by DFS exactly as the
/// paper describes ("if a parent or child node of v in U is not the source
/// node of propagation, we use DFS to find a source node to represent
/// it").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Requirement {
    /// A mapped direct neighbour.
    Direct {
        /// The mapped neighbour (= propagation source).
        source: NodeId,
        /// Wave direction (Forward for parents, Backward for children).
        direction: Direction,
        /// Iteration distance of the connecting edge.
        distance: u32,
        /// Wave identity tag: `t_src + 1` for forward, the required
        /// arrival cycle for backward.
        wave: u32,
    },
    /// A mapped transitive neighbour reached through unmapped cluster
    /// nodes.
    Transitive {
        /// The mapped ancestor/descendant (= propagation source).
        source: NodeId,
        /// Wave direction.
        direction: Direction,
        /// Number of edges between the source and the node (≥ 2), i.e. the
        /// minimum cycles the intermediate operations consume.
        separation: u32,
        /// Sum of iteration distances along the path.
        distance_sum: u32,
        /// Wave identity tag (see [`Requirement::Direct::wave`]).
        wave: u32,
    },
}

/// Builds the requirement set of `v`: one per adjacent edge, following the
/// paper's rule that every edge of `v` needs a corresponding tuple.
/// Edges whose far side has no mapped (transitive) endpoint yield no
/// requirement (that side is constrained only through Algorithm 2's
/// execution-cycle checks).
pub fn requirements_for(dfg: &Dfg, mapping: &Mapping, v: NodeId) -> Vec<Requirement> {
    let ii = mapping.ii();
    let mut out = Vec::new();
    let push = |r: Requirement, out: &mut Vec<Requirement>| {
        if !out.contains(&r) {
            out.push(r);
        }
    };
    for e in dfg.in_edges(v) {
        if e.src() == v {
            continue; // self-loop: no external requirement
        }
        if mapping.is_placed(e.src()) {
            let (_, t) = mapping.placement(e.src()).expect("placed");
            push(
                Requirement::Direct {
                    source: e.src(),
                    direction: Direction::Forward,
                    distance: e.distance(),
                    wave: t + 1,
                },
                &mut out,
            );
        } else if let Some((s, sep, dsum)) =
            nearest_mapped(dfg, mapping, e.src(), Direction::Forward)
        {
            let (_, t) = mapping.placement(s).expect("mapped source");
            push(
                Requirement::Transitive {
                    source: s,
                    direction: Direction::Forward,
                    separation: sep + 1,
                    distance_sum: dsum + e.distance(),
                    wave: t + 1,
                },
                &mut out,
            );
        }
    }
    for e in dfg.out_edges(v) {
        if e.dst() == v {
            continue;
        }
        if mapping.is_placed(e.dst()) {
            let (_, t) = mapping.placement(e.dst()).expect("placed");
            push(
                Requirement::Direct {
                    source: e.dst(),
                    direction: Direction::Backward,
                    distance: e.distance(),
                    wave: t + e.distance() * ii,
                },
                &mut out,
            );
        } else if let Some((s, sep, dsum)) =
            nearest_mapped(dfg, mapping, e.dst(), Direction::Backward)
        {
            let (_, t) = mapping.placement(s).expect("mapped source");
            push(
                Requirement::Transitive {
                    source: s,
                    direction: Direction::Backward,
                    separation: sep + 1,
                    distance_sum: dsum + e.distance(),
                    wave: t + (dsum + e.distance()) * ii,
                },
                &mut out,
            );
        }
    }
    out
}

/// BFS from `from` through unmapped nodes (upstream for `Forward`,
/// downstream for `Backward`) to the nearest mapped node. Returns
/// `(source, edges_traversed, distance_sum)`.
fn nearest_mapped(
    dfg: &Dfg,
    mapping: &Mapping,
    from: NodeId,
    direction: Direction,
) -> Option<(NodeId, u32, u32)> {
    let mut queue = VecDeque::from([(from, 0u32, 0u32)]);
    let mut visited = vec![from];
    while let Some((n, sep, dsum)) = queue.pop_front() {
        if mapping.is_placed(n) {
            return Some((n, sep, dsum));
        }
        let edges: Vec<(NodeId, u32)> = match direction {
            Direction::Forward => dfg.in_edges(n).map(|e| (e.src(), e.distance())).collect(),
            Direction::Backward => dfg.out_edges(n).map(|e| (e.dst(), e.distance())).collect(),
        };
        for (next, d) in edges {
            if !visited.contains(&next) {
                visited.push(next);
                queue.push_back((next, sep + 1, dsum + d));
            }
        }
    }
    None
}

/// The placement candidates of one cluster node: `(PE, execution cycle)`
/// pairs, sorted by cycle (Alg. 2 line 3).
#[derive(Clone, Debug)]
pub struct PlacementCandidates {
    /// The cluster node.
    pub node: NodeId,
    /// Feasible `(PE, exec cycle)` pairs, earliest cycles first.
    pub options: Vec<(PeId, u32)>,
}

/// Intersects the propagation tuples (Eq. 1): a PE is a candidate for `v`
/// at execution cycle `c` iff every requirement has a matching tuple.
///
/// Matching rules (delivery-hop aware, see the `rewire-mrrg` timing
/// contract):
///
/// * direct parent `(p, d)` — `p`'s forward wave reaches this PE **or an
///   upstream neighbour** exactly at `c + d·II`,
/// * direct child `(ch, d)` — the backward wave from `ch` covers position
///   `(pe, c + 1)` (where `v`'s output appears),
/// * transitive parent — the forward wave reaches this PE at or before
///   `c + D·II` (loose: the intermediates run elsewhere),
/// * transitive child — the backward wave covers some cycle after `c`.
///
/// Candidates additionally need a free FU cell at `slot(c)` and an
/// operation-capable PE.
#[allow(clippy::too_many_arguments)]
pub fn pcandidates(
    dfg: &Dfg,
    cgra: &Cgra,
    mapping: &Mapping,
    store: &TupleStore,
    v: NodeId,
    reqs: &[Requirement],
    config: &RewireConfig,
    horizon: u32,
) -> PlacementCandidates {
    let ii = mapping.ii();
    let op = dfg.node(v).op();
    let mut options = Vec::new();

    for pe_ref in cgra.pes_supporting(op) {
        let pe = pe_ref.id();
        // Derive the candidate execution cycles from the most selective
        // requirement available; fall back to the full horizon window.
        let cycles: Vec<u32> = if let Some(Requirement::Direct {
            source,
            direction: Direction::Forward,
            distance,
            wave,
        }) = reqs.iter().find(|r| {
            matches!(
                r,
                Requirement::Direct {
                    direction: Direction::Forward,
                    ..
                }
            )
        }) {
            let mut cands: Vec<u32> = store
                .cycles(*source, Direction::Forward, *wave, pe)
                .iter()
                .filter_map(|&arr| arr.checked_sub(distance * ii))
                .collect();
            // Delivery hop: the wave may also arrive at an upstream
            // neighbour, provided the final link cell is actually usable.
            for link in cgra.links_to(pe) {
                for &arr in store.cycles(*source, Direction::Forward, *wave, link.src()) {
                    let cell = Resource::Link {
                        link: link.id(),
                        slot: mapping.mrrg().slot_of(arr),
                    };
                    if !mapping.occupancy().usable_by_any_phase(cell, *source) {
                        continue;
                    }
                    if let Some(c) = arr.checked_sub(distance * ii) {
                        if !cands.contains(&c) {
                            cands.push(c);
                        }
                    }
                }
            }
            cands.sort_unstable();
            cands.dedup();
            cands
        } else if let Some(Requirement::Direct {
            source,
            direction: Direction::Backward,
            wave,
            ..
        }) = reqs.iter().find(|r| {
            matches!(
                r,
                Requirement::Direct {
                    direction: Direction::Backward,
                    ..
                }
            )
        }) {
            store
                .cycles(*source, Direction::Backward, *wave, pe)
                .iter()
                .filter_map(|&c| c.checked_sub(1))
                .collect()
        } else if let Some(Requirement::Transitive {
            source,
            direction: Direction::Forward,
            separation,
            distance_sum,
            wave,
        }) = reqs.iter().find(|r| {
            matches!(
                r,
                Requirement::Transitive {
                    direction: Direction::Forward,
                    ..
                }
            )
        }) {
            // The node runs at least `separation` cycles after the wave
            // reaches its neighbourhood; bound the window rather than
            // scanning the whole horizon.
            match store.cycles(*source, Direction::Forward, *wave, pe).first() {
                Some(&first) => {
                    let lo = (first + separation).saturating_sub(distance_sum * ii);
                    (lo..=(lo + 2 * ii + 2).min(horizon)).collect()
                }
                None => Vec::new(),
            }
        } else {
            (0..=(3 * ii + 2).min(horizon)).collect()
        };

        for c in cycles {
            if c > horizon {
                continue;
            }
            let fu = Resource::Fu {
                pe,
                slot: mapping.mrrg().slot_of(c),
            };
            if !mapping.occupancy().usable_by(fu, v, 0) {
                continue;
            }
            if reqs
                .iter()
                .all(|r| satisfied(cgra, mapping, store, pe, c, ii, r))
            {
                options.push((pe, c));
            }
        }
    }

    options.sort_by_key(|&(pe, c)| (c, pe));
    options.truncate(config.max_candidates_per_node);
    PlacementCandidates { node: v, options }
}

fn satisfied(
    cgra: &Cgra,
    mapping: &Mapping,
    store: &TupleStore,
    pe: PeId,
    c: u32,
    ii: u32,
    req: &Requirement,
) -> bool {
    match *req {
        Requirement::Direct {
            source,
            direction: Direction::Forward,
            distance,
            wave,
        } => {
            let arr = c + distance * ii;
            store.contains(source, Direction::Forward, wave, pe, arr)
                || cgra.links_to(pe).any(|l| {
                    let cell = Resource::Link {
                        link: l.id(),
                        slot: mapping.mrrg().slot_of(arr),
                    };
                    mapping.occupancy().usable_by_any_phase(cell, source)
                        && store.contains(source, Direction::Forward, wave, l.src(), arr)
                })
        }
        Requirement::Direct {
            source,
            direction: Direction::Backward,
            wave,
            ..
        } => store.contains(source, Direction::Backward, wave, pe, c + 1),
        // Transitive requirements are deliberately loose: the intermediate
        // cluster nodes will execute on *other* PEs, so demanding the exact
        // cycle here (the paper's idealised formula) empties the candidate
        // set on small fabrics. Spatial reachability with a one-sided cycle
        // bound keeps the pruning value; Algorithm 2's pairwise constraints
        // and the routing verification enforce exactness.
        Requirement::Transitive {
            source,
            direction: Direction::Forward,
            distance_sum,
            wave,
            ..
        } => {
            store.contains_at_or_before(source, Direction::Forward, wave, pe, c + distance_sum * ii)
        }
        Requirement::Transitive {
            source,
            direction: Direction::Backward,
            wave,
            ..
        } => store.contains_at_or_after(source, Direction::Backward, wave, pe, c + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::{propagate, PropagationSeed};
    use rewire_arch::{presets, Coord, OpKind};
    use rewire_mrrg::Mrrg;

    fn pe(cgra: &Cgra, r: u16, c: u16) -> PeId {
        cgra.pe_at(Coord::new(r, c)).unwrap().id()
    }

    /// a -> b -> c with a and c mapped, b unmapped.
    fn chain_setup() -> (Cgra, Dfg, Mapping, NodeId, NodeId, NodeId) {
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("chain");
        let a = dfg.add_node("a", OpKind::Add);
        let b = dfg.add_node("b", OpKind::Add);
        let c = dfg.add_node("c", OpKind::Add);
        dfg.add_edge(a, b, 0).unwrap();
        dfg.add_edge(b, c, 0).unwrap();
        let mrrg = Mrrg::new(&cgra, 2);
        let mut m = Mapping::new(&dfg, &mrrg);
        m.place(a, pe(&cgra, 0, 0), 0);
        m.place(c, pe(&cgra, 0, 2), 4);
        (cgra, dfg, m, a, b, c)
    }

    #[test]
    fn requirements_of_sandwiched_node_are_direct() {
        let (_cgra, dfg, m, a, b, c) = chain_setup();
        let reqs = requirements_for(&dfg, &m, b);
        assert_eq!(reqs.len(), 2);
        assert!(reqs.contains(&Requirement::Direct {
            source: a,
            direction: Direction::Forward,
            distance: 0,
            wave: 1
        }));
        assert!(reqs.contains(&Requirement::Direct {
            source: c,
            direction: Direction::Backward,
            distance: 0,
            wave: 4
        }));
    }

    #[test]
    fn transitive_requirement_found_by_dfs() {
        // a -> b -> c -> d, only a and d mapped; c's parent b is unmapped,
        // so c's forward requirement is the transitive source a.
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("chain4");
        let a = dfg.add_node("a", OpKind::Add);
        let b = dfg.add_node("b", OpKind::Add);
        let c = dfg.add_node("c", OpKind::Add);
        let d = dfg.add_node("d", OpKind::Add);
        dfg.add_edge(a, b, 0).unwrap();
        dfg.add_edge(b, c, 0).unwrap();
        dfg.add_edge(c, d, 0).unwrap();
        let mrrg = Mrrg::new(&cgra, 2);
        let mut m = Mapping::new(&dfg, &mrrg);
        m.place(a, pe(&cgra, 0, 0), 0);
        m.place(d, pe(&cgra, 0, 3), 5);
        let reqs = requirements_for(&dfg, &m, c);
        assert!(reqs.contains(&Requirement::Transitive {
            source: a,
            direction: Direction::Forward,
            separation: 2,
            distance_sum: 0,
            wave: 1
        }));
        assert!(reqs.contains(&Requirement::Direct {
            source: d,
            direction: Direction::Backward,
            distance: 0,
            wave: 5
        }));
    }

    #[test]
    fn unreachable_side_yields_no_requirement() {
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("pair");
        let a = dfg.add_node("a", OpKind::Add);
        let b = dfg.add_node("b", OpKind::Add);
        dfg.add_edge(a, b, 0).unwrap();
        let mrrg = Mrrg::new(&cgra, 2);
        let m = Mapping::new(&dfg, &mrrg); // nothing mapped
        assert!(requirements_for(&dfg, &m, b).is_empty());
    }

    #[test]
    fn intersection_finds_the_sandwich_candidates() {
        let (cgra, dfg, m, a, b, c) = chain_setup();
        // Propagate forward from a (value on wire at cycle 1) and backward
        // from c (arrival needed at cycle 4).
        let seeds = [
            PropagationSeed {
                source: a,
                direction: Direction::Forward,
                pe: pe(&cgra, 0, 0),
                cycle: 1,
                wave: 1,
            },
            PropagationSeed {
                source: c,
                direction: Direction::Backward,
                pe: pe(&cgra, 0, 2),
                cycle: 4,
                wave: 4,
            },
        ];
        let store = propagate(&cgra, m.occupancy(), &seeds, 8);
        let reqs = requirements_for(&dfg, &m, b);
        let cands = pcandidates(
            &dfg,
            &cgra,
            &m,
            &store,
            b,
            &reqs,
            &RewireConfig::default(),
            12,
        );
        assert!(!cands.options.is_empty());
        // Every candidate satisfies timing: exec after a (t=0), output
        // reaches c by cycle 4.
        for &(p, cyc) in &cands.options {
            assert!(cyc >= 1, "must run after a: {cyc}");
            assert!(cyc <= 3, "output must reach c by 4: {cyc}");
            // And the geometry must be coverable.
            assert!(cgra.distance(pe(&cgra, 0, 0), p) <= cyc + 1);
            assert!(cgra.distance(p, pe(&cgra, 0, 2)) <= 4 - cyc);
        }
        // The direct midpoint (0,1) at cycle 2 must be among them.
        assert!(cands.options.contains(&(pe(&cgra, 0, 1), 2)));
    }

    #[test]
    fn occupied_fu_cells_are_excluded() {
        let (cgra, dfg, mut m, a, b, c) = chain_setup();
        // Occupy (0,1) at slot 0 (cycle 2 % 2 == 0) with another node.
        let blocker = pe(&cgra, 0, 1);
        m.place(b, blocker, 2);
        let occupied = m.clone();
        m.unplace(&dfg, b);
        let seeds = [
            PropagationSeed {
                source: a,
                direction: Direction::Forward,
                pe: pe(&cgra, 0, 0),
                cycle: 1,
                wave: 1,
            },
            PropagationSeed {
                source: c,
                direction: Direction::Backward,
                pe: pe(&cgra, 0, 2),
                cycle: 4,
                wave: 4,
            },
        ];
        let store = propagate(&cgra, occupied.occupancy(), &seeds, 8);
        let reqs = requirements_for(&dfg, &occupied, b);
        let _ = reqs;
        // With b itself occupying the FU the candidate is still usable by
        // b (sharing key is the node) — instead occupy with a *different*
        // node to verify exclusion.
        let mut dfg2 = Dfg::new("x");
        let squatter = dfg2.add_node("sq", OpKind::Add);
        let _ = squatter;
        // Re-do with a foreign claim directly on the occupancy.
        let mrrg = Mrrg::new(&cgra, 2);
        let mut m2 = Mapping::new(&dfg, &mrrg);
        m2.place(a, pe(&cgra, 0, 0), 0);
        m2.place(c, blocker, 2); // c sits exactly on the midpoint slot
        let reqs2 = requirements_for(&dfg, &m2, b);
        let seeds2 = [
            PropagationSeed {
                source: a,
                direction: Direction::Forward,
                pe: pe(&cgra, 0, 0),
                cycle: 1,
                wave: 1,
            },
            PropagationSeed {
                source: c,
                direction: Direction::Backward,
                pe: blocker,
                cycle: 2,
                wave: 2,
            },
        ];
        let store2 = propagate(&cgra, m2.occupancy(), &seeds2, 8);
        let cands = pcandidates(
            &dfg,
            &cgra,
            &m2,
            &store2,
            b,
            &reqs2,
            &RewireConfig::default(),
            12,
        );
        assert!(
            !cands.options.contains(&(blocker, 0)),
            "FU cell held by c must be excluded"
        );
        let _ = store;
    }

    #[test]
    fn candidates_are_sorted_by_cycle_and_capped() {
        let (cgra, dfg, m, a, b, c) = chain_setup();
        let seeds = [
            PropagationSeed {
                source: a,
                direction: Direction::Forward,
                pe: pe(&cgra, 0, 0),
                cycle: 1,
                wave: 1,
            },
            PropagationSeed {
                source: c,
                direction: Direction::Backward,
                pe: pe(&cgra, 0, 2),
                cycle: 4,
                wave: 4,
            },
        ];
        let store = propagate(&cgra, m.occupancy(), &seeds, 8);
        let reqs = requirements_for(&dfg, &m, b);
        let config = RewireConfig {
            max_candidates_per_node: 3,
            ..Default::default()
        };
        let cands = pcandidates(&dfg, &cgra, &m, &store, b, &reqs, &config, 12);
        assert!(cands.options.len() <= 3);
        assert!(cands.options.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn delivery_hop_extends_candidate_reach() {
        // a at (0,0) t=0; consumer candidate cycle 1 means zero routing
        // steps: without the delivery hop only (0,0) itself qualifies;
        // with it, the direct neighbours do too.
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("pair");
        let a = dfg.add_node("a", OpKind::Add);
        let b = dfg.add_node("b", OpKind::Add);
        dfg.add_edge(a, b, 0).unwrap();
        let mrrg = Mrrg::new(&cgra, 2);
        let mut m = Mapping::new(&dfg, &mrrg);
        m.place(a, pe(&cgra, 0, 0), 0);
        let seeds = [PropagationSeed {
            source: a,
            direction: Direction::Forward,
            pe: pe(&cgra, 0, 0),
            cycle: 1,
            wave: 1,
        }];
        let store = propagate(&cgra, m.occupancy(), &seeds, 6);
        let reqs = requirements_for(&dfg, &m, b);
        let cands = pcandidates(
            &dfg,
            &cgra,
            &m,
            &store,
            b,
            &reqs,
            &RewireConfig::default(),
            10,
        );
        // Cycle-1 candidates: the producer's own PE plus its two mesh
        // neighbours (via the combinational delivery hop).
        let at_cycle_1: Vec<_> = cands
            .options
            .iter()
            .filter(|&&(_, c)| c == 1)
            .map(|&(p, _)| p)
            .collect();
        assert!(at_cycle_1.contains(&pe(&cgra, 0, 0)));
        assert!(at_cycle_1.contains(&pe(&cgra, 0, 1)));
        assert!(at_cycle_1.contains(&pe(&cgra, 1, 0)));
        assert!(
            !at_cycle_1.contains(&pe(&cgra, 1, 1)),
            "distance 2 needs a cycle"
        );
    }

    #[test]
    fn memory_ops_only_get_memory_pes() {
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("mem");
        let a = dfg.add_node("a", OpKind::Add);
        let ld = dfg.add_node("ld", OpKind::Load);
        dfg.add_edge(a, ld, 0).unwrap();
        let mrrg = Mrrg::new(&cgra, 2);
        let mut m = Mapping::new(&dfg, &mrrg);
        m.place(a, pe(&cgra, 0, 1), 0);
        let seeds = [PropagationSeed {
            source: a,
            direction: Direction::Forward,
            pe: pe(&cgra, 0, 1),
            cycle: 1,
            wave: 1,
        }];
        let store = propagate(&cgra, m.occupancy(), &seeds, 10);
        let reqs = requirements_for(&dfg, &m, ld);
        let cands = pcandidates(
            &dfg,
            &cgra,
            &m,
            &store,
            ld,
            &reqs,
            &RewireConfig::default(),
            12,
        );
        assert!(!cands.options.is_empty());
        for &(p, _) in &cands.options {
            assert!(cgra.pe(p).memory_capable(), "{p} is not a memory PE");
        }
    }
}
