//! Multi-node mapping generation (Algorithm 2 of the paper).
//!
//! Candidates per node are sorted by execution cycle; combinations are
//! enumerated with an index vector whose partial assignments are pruned by
//! the execution-cycle constraints among cluster members ("we check the
//! cycle execution constraints from v₀ to v_{i−1} if it has any data
//! dependency with v_i"), plus FU-cell disjointness and a geometric reach
//! check. Surviving `Placement(U)` combinations are verified by exclusive
//! routing of every incident edge; the first verified placement is
//! committed.

use crate::intersect::PlacementCandidates;
use crate::{RewireConfig, RewireStats};
use rewire_arch::{Cgra, PeId};
use rewire_dfg::{Dfg, EdgeId, NodeId};
use rewire_mappers::Mapping;
use rewire_mrrg::{Router, UnitCost};
use rewire_obs::{self as obs, FlightEvent};
use std::time::Instant;

/// Algorithm 2: searches for a routable placement of a whole cluster.
#[derive(Debug)]
pub struct ClusterPlacer<'a> {
    dfg: &'a Dfg,
    cgra: &'a Cgra,
    config: &'a RewireConfig,
}

impl<'a> ClusterPlacer<'a> {
    /// Creates a placer for one cluster attempt.
    pub fn new(dfg: &'a Dfg, cgra: &'a Cgra, config: &'a RewireConfig) -> Self {
        Self { dfg, cgra, config }
    }

    /// Enumerates `Placement(U)` combinations and commits the first one
    /// that verifies. `candidates` must be in cluster topological order.
    /// Returns `true` on success (the mapping now contains the cluster's
    /// placements and routes).
    pub fn place(
        &self,
        mapping: &mut Mapping,
        candidates: &[PlacementCandidates],
        deadline: Instant,
        stats: &mut RewireStats,
    ) -> bool {
        self.place_with_diagnosis(mapping, candidates, deadline, stats, &mut None)
    }

    /// [`place`](ClusterPlacer::place), additionally reporting through
    /// `emptied` which member's candidate list the arc-consistency pass
    /// proved unsupportable (its anchors are the nodes to rip next).
    pub fn place_with_diagnosis(
        &self,
        mapping: &mut Mapping,
        candidates: &[PlacementCandidates],
        deadline: Instant,
        stats: &mut RewireStats,
        emptied: &mut Option<rewire_dfg::NodeId>,
    ) -> bool {
        if candidates.iter().any(|c| c.options.is_empty()) {
            return false;
        }
        // Arc-consistency pre-pass: drop candidates without pairwise
        // support along cluster-internal edges. This both detects
        // unsatisfiable member pairs immediately (instead of burning the
        // search budget) and shrinks the enumeration space.
        let mut candidates = candidates.to_vec();
        let pairs = PairEdges::new(self.dfg, mapping.ii(), &candidates);
        if let Err(victim) = self.arc_reduce(&pairs, &mut candidates) {
            *emptied = Some(victim);
            return false;
        }
        let candidates = &candidates[..];
        let table = SearchTable::new(self.cgra, mapping, pairs, candidates);
        let budget = stats.verifications + self.config.max_verifications;
        let mut partial = table.empty_partial();
        self.search(
            mapping,
            candidates,
            &table,
            &mut partial,
            deadline,
            stats,
            &mut 0,
            budget,
        )
    }

    /// AC-3-style reduction over cluster-internal dependency edges: a
    /// candidate of one member survives only if some candidate of each
    /// connected member is timing- and reach-compatible with it. Returns
    /// the emptied member when a candidate list runs dry (no joint
    /// placement exists at all).
    fn arc_reduce(
        &self,
        pairs: &PairEdges,
        candidates: &mut [PlacementCandidates],
    ) -> Result<(), NodeId> {
        loop {
            let mut changed = false;
            for i in 0..candidates.len() {
                for j in 0..candidates.len() {
                    let pair_edges = pairs.between(i, j);
                    if pair_edges.is_empty() {
                        continue;
                    }
                    let support = candidates[j].options.clone();
                    let before = candidates[i].options.len();
                    let cgra = self.cgra;
                    candidates[i].options.retain(|&(pe_i, c_i)| {
                        support.iter().any(|&(pe_j, c_j)| {
                            let hops = cgra.distance(pe_i, pe_j);
                            pair_edges
                                .iter()
                                .all(|&edge| edge_fits(edge, c_i, c_j, hops))
                        })
                    });
                    if candidates[i].options.is_empty() {
                        return Err(candidates[i].node);
                    }
                    changed |= candidates[i].options.len() != before;
                }
            }
            if !changed {
                return Ok(());
            }
        }
    }

    /// Depth-first enumeration with constraint pruning over the members in
    /// `candidates` order.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        mapping: &mut Mapping,
        candidates: &[PlacementCandidates],
        table: &SearchTable,
        partial: &mut Partial,
        deadline: Instant,
        stats: &mut RewireStats,
        steps: &mut u64,
        verification_budget: u64,
    ) -> bool {
        let depth = partial.chosen.len();
        if depth == candidates.len() {
            return self.verify_and_commit(mapping, candidates, &partial.chosen, stats);
        }
        for idx in 0..candidates[depth].options.len() {
            *steps += 1;
            if stats.verifications >= verification_budget
                || *steps >= self.config.max_search_steps
                || (steps.is_multiple_of(64) && Instant::now() >= deadline)
            {
                return false;
            }
            if !table.consistent(partial, depth, idx) {
                stats.combinations_pruned += 1;
                continue;
            }
            partial.push(table, idx);
            if self.search(
                mapping,
                candidates,
                table,
                partial,
                deadline,
                stats,
                steps,
                verification_budget,
            ) {
                return true;
            }
            partial.pop(table);
        }
        false
    }

    /// Places the full combination and routes every incident edge with the
    /// exclusive cost model. On any routing failure everything is rolled
    /// back.
    fn verify_and_commit(
        &self,
        mapping: &mut Mapping,
        candidates: &[PlacementCandidates],
        chosen: &[usize],
        stats: &mut RewireStats,
    ) -> bool {
        stats.verifications += 1;
        let members: Vec<NodeId> = candidates.iter().map(|c| c.node).collect();
        for (cand, &idx) in candidates.iter().zip(chosen) {
            let (pe, c) = cand.options[idx];
            mapping.place(cand.node, pe, c);
        }

        // Route every edge with at least one endpoint in the cluster whose
        // endpoints are both placed, deterministically ordered.
        let mut edges: Vec<EdgeId> = Vec::new();
        for &v in &members {
            for e in self.dfg.in_edges(v).chain(self.dfg.out_edges(v)) {
                if !edges.contains(&e.id())
                    && mapping.is_placed(e.src())
                    && mapping.is_placed(e.dst())
                    && mapping.route(e.id()).is_none()
                {
                    edges.push(e.id());
                }
            }
        }
        edges.sort_unstable();

        let mrrg = mapping.mrrg().clone();
        let router = Router::new(self.cgra, &mrrg);
        let mut routed: Vec<EdgeId> = Vec::new();
        for e in &edges {
            let Some(req) = mapping.request_for(self.dfg, *e) else {
                continue;
            };
            match router.route(mapping.occupancy(), &req, &UnitCost) {
                Ok(route) => {
                    mapping.set_route(*e, route);
                    routed.push(*e);
                }
                Err(err) => {
                    let ed = self.dfg.edge(*e);
                    obs::flight_event(FlightEvent::RouteFailed {
                        edge: (ed.src().index() as u32, ed.dst().index() as u32),
                        ii: mapping.ii(),
                        reason: err.label(),
                    });
                    // Rollback.
                    for r in routed {
                        mapping.clear_route(r);
                    }
                    for &v in &members {
                        mapping.unplace(self.dfg, v);
                    }
                    return false;
                }
            }
        }
        stats.verification_successes += 1;
        true
    }
}

/// Whether one dependency edge between two placed members can be met:
/// `(row member is the source, d·II)` with the row member at cycle `c_row`,
/// the other at `c_other`, `hops` apart. The route has
/// `arrive − (depart + 1)` steps, plus the delivery hop.
#[inline]
fn edge_fits((row_is_src, delay): (bool, u32), c_row: u32, c_other: u32, hops: u32) -> bool {
    let (c_s, c_d) = if row_is_src {
        (c_row, c_other)
    } else {
        (c_other, c_row)
    };
    let steps = c_d as i64 + delay as i64 - (c_s as i64 + 1);
    steps >= 0 && steps + 1 >= hops as i64
}

/// The dependency edges between every two cluster members, collected once
/// per [`ClusterPlacer::place`] call instead of rescanning the DFG on every
/// enumeration step.
struct PairEdges {
    members: usize,
    /// `edges[spans[i * members + j]]` are the edges between members `i`
    /// and `j`, as `(i is the source, d·II)`.
    spans: Vec<(u32, u32)>,
    edges: Vec<(bool, u32)>,
}

impl PairEdges {
    fn new(dfg: &Dfg, ii: u32, candidates: &[PlacementCandidates]) -> Self {
        let members = candidates.len();
        let mut spans = Vec::with_capacity(members * members);
        let mut edges = Vec::new();
        for a in candidates {
            for b in candidates {
                let start = edges.len() as u32;
                if a.node != b.node {
                    let between = |from: NodeId, to: NodeId, from_is_row: bool| {
                        dfg.out_edges(from)
                            .filter(move |e| e.dst() == to)
                            .map(move |e| (from_is_row, e.distance() * ii))
                    };
                    edges.extend(
                        between(a.node, b.node, true).chain(between(b.node, a.node, false)),
                    );
                }
                spans.push((start, edges.len() as u32));
            }
        }
        Self {
            members,
            spans,
            edges,
        }
    }

    #[inline]
    fn between(&self, i: usize, j: usize) -> &[(bool, u32)] {
        let (start, end) = self.spans[i * self.members + j];
        &self.edges[start as usize..end as usize]
    }
}

/// One candidate as the enumeration reads it.
#[derive(Clone, Copy)]
struct Choice {
    pe: PeId,
    cycle: u32,
    /// The FU cell it executes on, as bit `pe·II + slot` of
    /// [`Partial::busy`].
    fu: usize,
}

/// What Algorithm 2's pairwise checks read, built once per
/// [`ClusterPlacer::place`] call: every option's PE, cycle and FU cell,
/// and for each member the earlier members it shares edges with.
struct SearchTable<'a> {
    cgra: &'a Cgra,
    pairs: PairEdges,
    choices: Vec<Vec<Choice>>,
    /// `earlier[i]`: the members `j < i` with edges to member `i`.
    earlier: Vec<Vec<usize>>,
    fu_cells: usize,
}

/// A partial `Placement(U)`: `chosen[i]` is the option index of member
/// `i`, and `busy` has one bit set per FU cell the chosen options hold.
struct Partial {
    chosen: Vec<usize>,
    busy: Vec<u64>,
}

impl Partial {
    /// Chooses option `idx` for the next member.
    fn push(&mut self, table: &SearchTable, idx: usize) {
        let fu = table.choices[self.chosen.len()][idx].fu;
        self.busy[fu / 64] |= 1 << (fu % 64);
        self.chosen.push(idx);
    }

    /// Takes back the last choice.
    fn pop(&mut self, table: &SearchTable) {
        let idx = self.chosen.pop().expect("a member to take back");
        let fu = table.choices[self.chosen.len()][idx].fu;
        self.busy[fu / 64] &= !(1 << (fu % 64));
    }
}

impl<'a> SearchTable<'a> {
    fn new(
        cgra: &'a Cgra,
        mapping: &Mapping,
        pairs: PairEdges,
        candidates: &[PlacementCandidates],
    ) -> Self {
        let ii = mapping.ii() as usize;
        let choices = candidates
            .iter()
            .map(|cand| {
                cand.options
                    .iter()
                    .map(|&(pe, cycle)| Choice {
                        pe,
                        cycle,
                        fu: pe.index() * ii + mapping.mrrg().slot_of(cycle) as usize,
                    })
                    .collect()
            })
            .collect();
        let earlier = (0..candidates.len())
            .map(|i| {
                (0..i)
                    .filter(|&j| !pairs.between(j, i).is_empty())
                    .collect()
            })
            .collect();
        Self {
            cgra,
            pairs,
            choices,
            earlier,
            fu_cells: cgra.num_pes() * ii,
        }
    }

    fn empty_partial(&self) -> Partial {
        Partial {
            chosen: Vec::with_capacity(self.choices.len()),
            busy: vec![0; self.fu_cells.div_ceil(64)],
        }
    }

    /// Checks option `idx` of member `depth` against all previously
    /// chosen members: FU cell disjointness, then execution-order
    /// constraints and reachability of the fixed-length routes on the
    /// edges it shares with them.
    fn consistent(&self, partial: &Partial, depth: usize, idx: usize) -> bool {
        let v = self.choices[depth][idx];
        // One operation per FU cell.
        if partial.busy[v.fu / 64] >> (v.fu % 64) & 1 == 1 {
            return false;
        }
        self.earlier[depth].iter().all(|&j| {
            let u = self.choices[j][partial.chosen[j]];
            let hops = self.cgra.distance(u.pe, v.pe);
            self.pairs
                .between(j, depth)
                .iter()
                .all(|&edge| edge_fits(edge, u.cycle, v.cycle, hops))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::{presets, Coord, OpKind, PeId};
    use rewire_mrrg::Mrrg;
    use std::time::Duration;

    fn pe(cgra: &Cgra, r: u16, c: u16) -> PeId {
        cgra.pe_at(Coord::new(r, c)).unwrap().id()
    }

    fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn places_a_two_node_cluster() {
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("t");
        let a = dfg.add_node("a", OpKind::Add);
        let b = dfg.add_node("b", OpKind::Add);
        let c = dfg.add_node("c", OpKind::Add);
        dfg.add_edge(a, b, 0).unwrap();
        dfg.add_edge(b, c, 0).unwrap();
        let mrrg = Mrrg::new(&cgra, 2);
        let mut m = Mapping::new(&dfg, &mrrg);
        m.place(a, pe(&cgra, 0, 0), 0);

        let config = RewireConfig::default();
        let placer = ClusterPlacer::new(&dfg, &cgra, &config);
        let cands = vec![
            PlacementCandidates {
                node: b,
                options: vec![(pe(&cgra, 0, 1), 1)],
            },
            PlacementCandidates {
                node: c,
                options: vec![(pe(&cgra, 0, 2), 2), (pe(&cgra, 0, 2), 3)],
            },
        ];
        let mut stats = RewireStats::default();
        assert!(placer.place(&mut m, &cands, deadline(), &mut stats));
        assert!(m.is_complete(&dfg));
        assert!(m.is_valid(&dfg, &cgra));
        assert_eq!(stats.verification_successes, 1);
    }

    #[test]
    fn execution_cycle_constraints_prune() {
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("t");
        let a = dfg.add_node("a", OpKind::Add);
        let b = dfg.add_node("b", OpKind::Add);
        dfg.add_edge(a, b, 0).unwrap();
        let mrrg = Mrrg::new(&cgra, 2);
        let mut m = Mapping::new(&dfg, &mrrg);

        let config = RewireConfig::default();
        let placer = ClusterPlacer::new(&dfg, &cgra, &config);
        // b's only option executes BEFORE a's: must be pruned, no
        // verification should even run.
        let cands = vec![
            PlacementCandidates {
                node: a,
                options: vec![(pe(&cgra, 0, 0), 5)],
            },
            PlacementCandidates {
                node: b,
                options: vec![(pe(&cgra, 0, 1), 2)],
            },
        ];
        let mut stats = RewireStats::default();
        let mut emptied = None;
        assert!(!placer.place_with_diagnosis(&mut m, &cands, deadline(), &mut stats, &mut emptied));
        assert_eq!(stats.verifications, 0, "never reaches routing");
        // The arc-consistency pre-pass proves the pair unsatisfiable and
        // names the unsupportable member.
        assert_eq!(emptied, Some(a));
        assert!(!m.is_placed(a), "rollback leaves nothing placed");
    }

    #[test]
    fn fu_conflicts_prune() {
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("t");
        let a = dfg.add_node("a", OpKind::Add);
        let b = dfg.add_node("b", OpKind::Add);
        // No edge between them: only the FU constraint applies.
        let mrrg = Mrrg::new(&cgra, 2);
        let mut m = Mapping::new(&dfg, &mrrg);
        let config = RewireConfig::default();
        let placer = ClusterPlacer::new(&dfg, &cgra, &config);
        let spot = pe(&cgra, 1, 1);
        let cands = vec![
            PlacementCandidates {
                node: a,
                options: vec![(spot, 0)],
            },
            PlacementCandidates {
                node: b,
                // Cycle 2 has the same slot (2 % 2 == 0): conflict; cycle 1
                // is fine.
                options: vec![(spot, 2), (spot, 1)],
            },
        ];
        let mut stats = RewireStats::default();
        assert!(placer.place(&mut m, &cands, deadline(), &mut stats));
        assert_eq!(m.placement(b).unwrap().1, 1);
    }

    #[test]
    fn geometric_reach_prunes_before_verification() {
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("t");
        let a = dfg.add_node("a", OpKind::Add);
        let b = dfg.add_node("b", OpKind::Add);
        dfg.add_edge(a, b, 0).unwrap();
        let mrrg = Mrrg::new(&cgra, 4);
        let mut m = Mapping::new(&dfg, &mrrg);
        let config = RewireConfig::default();
        let placer = ClusterPlacer::new(&dfg, &cgra, &config);
        // b one cycle after a but on the far corner: unreachable even with
        // the delivery hop.
        let cands = vec![
            PlacementCandidates {
                node: a,
                options: vec![(pe(&cgra, 0, 0), 0)],
            },
            PlacementCandidates {
                node: b,
                options: vec![(pe(&cgra, 3, 3), 1)],
            },
        ];
        let mut stats = RewireStats::default();
        assert!(!placer.place(&mut m, &cands, deadline(), &mut stats));
        assert_eq!(stats.verifications, 0);
    }

    #[test]
    fn failed_verification_rolls_back_and_continues() {
        let cgra = presets::paper_4x4_r1(); // single register: easy to block
        let mut dfg = Dfg::new("t");
        let a = dfg.add_node("a", OpKind::Add);
        let b = dfg.add_node("b", OpKind::Add);
        dfg.add_edge(a, b, 0).unwrap();
        let mrrg = Mrrg::new(&cgra, 1);
        let mut m = Mapping::new(&dfg, &mrrg);
        m.place(a, pe(&cgra, 0, 0), 0);
        // Block the single register and one link out of a's PE so some
        // combination fails while another succeeds.
        let config = RewireConfig::default();
        let placer = ClusterPlacer::new(&dfg, &cgra, &config);
        let cands = vec![PlacementCandidates {
            node: b,
            // Too far first (verification fails), then adjacent.
            options: vec![(pe(&cgra, 3, 3), 1), (pe(&cgra, 0, 1), 1)],
        }];
        let mut stats = RewireStats::default();
        assert!(placer.place(&mut m, &cands, deadline(), &mut stats));
        assert_eq!(m.placement(b).unwrap().0, pe(&cgra, 0, 1));
        assert!(stats.verifications >= 1);
        assert!(m.is_valid(&dfg, &cgra));
    }

    #[test]
    fn respects_verification_cap() {
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("t");
        let a = dfg.add_node("a", OpKind::Add);
        let mrrg = Mrrg::new(&cgra, 2);
        let mut m = Mapping::new(&dfg, &mrrg);
        let config = RewireConfig {
            max_verifications: 0,
            ..Default::default()
        };
        let placer = ClusterPlacer::new(&dfg, &cgra, &config);
        let cands = vec![PlacementCandidates {
            node: a,
            options: vec![(pe(&cgra, 0, 0), 0)],
        }];
        let mut stats = RewireStats::default();
        assert!(!placer.place(&mut m, &cands, deadline(), &mut stats));
    }
}
