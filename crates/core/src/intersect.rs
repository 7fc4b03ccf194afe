//! Propagation-tuple intersection (§IV-D, Eq. 1): turning shared routing
//! knowledge into per-node placement candidates.

use crate::propagate::{Direction, SetBits, TupleStore, Wave};
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

impl Requirement {
    /// The wave this requirement reads: `(source, direction, tag)`.
    fn wave_key(&self) -> (NodeId, Direction, u32) {
        match *self {
            Requirement::Direct {
                source,
                direction,
                wave,
                ..
            }
            | Requirement::Transitive {
                source,
                direction,
                wave,
                ..
            } => (source, direction, wave),
        }
    }
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
/// operation-capable PE. The result is the first
/// `max_candidates_per_node` candidates in ascending `(cycle, PE)` order.
///
/// Each PE's cycles are bitset words: the most selective requirement
/// proposes a window, every requirement then masks it 64 cycles at a time
/// (the intersection proper), and the survivors are bucketed by cycle, so
/// the capped list is read off in order without a sort.
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
    let cap = config.max_candidates_per_node;
    let mut options = Vec::new();
    // Every requirement's wave, resolved once. A requirement on a wave no
    // seed started matches no tuple, so nothing can be a candidate.
    let Some(waves) = reqs
        .iter()
        .map(|r| {
            let (source, direction, tag) = r.wave_key();
            store.wave(source, direction, tag)
        })
        .collect::<Option<Vec<&Wave>>>()
    else {
        return PlacementCandidates { node: v, options };
    };
    let ii = mapping.ii();
    let Some(proposal) = Proposal::select(reqs, &waves, ii, horizon) else {
        return PlacementCandidates { node: v, options };
    };
    if cap == 0 {
        return PlacementCandidates { node: v, options };
    }

    // `by_cycle[k]` is the set of PEs (one bit per PE id) that are
    // candidates at cycle `base + k`; reading it bit by bit visits
    // (cycle, PE) in ascending order.
    let (base, words) = (proposal.base(), proposal.words());
    let pe_words = cgra.num_pes().div_ceil(64);
    let mut by_cycle = vec![0u64; 64 * words * pe_words];
    let mut mask = vec![0u64; words];
    let occ = mapping.occupancy();
    for pe in cgra.pes_supporting(dfg.node(v).op()).map(|p| p.id()) {
        mask.fill(0);
        proposal.fill(pe, &mut mask);
        for (req, wave) in reqs.iter().zip(&waves) {
            if mask.iter().all(|&w| w == 0) {
                break;
            }
            restrict(cgra, mapping, req, wave, pe, base, &mut mask);
        }
        let (pw, bit) = (pe.index() / 64, 1u64 << (pe.index() % 64));
        for (j, &word) in mask.iter().enumerate() {
            for b in SetBits(word) {
                let k = 64 * j + b as usize;
                let fu = Resource::Fu {
                    pe,
                    slot: mapping.mrrg().slot_of(base + k as u32),
                };
                if occ.usable_by(fu, v, 0) {
                    by_cycle[k * pe_words + pw] |= bit;
                }
            }
        }
    }

    'walk: for (k, pes) in by_cycle.chunks_exact(pe_words).enumerate() {
        for (pw, &word) in pes.iter().enumerate() {
            for b in SetBits(word) {
                options.push((PeId::new((64 * pw) as u32 + b), base + k as u32));
                if options.len() == cap {
                    break 'walk;
                }
            }
        }
    }
    PlacementCandidates { node: v, options }
}

/// The window a node's candidate cycles are drawn from, set by the most
/// selective requirement: a direct parent, else a direct child, else a
/// transitive parent, else a fixed window from cycle 0. Every requirement
/// (the proposing one too) then masks it.
enum Proposal<'a> {
    /// Every cycle of `[base, hi]`: a direct requirement's wave window
    /// shifted to execution cycles, or `0..=3·II + 2`.
    Range { base: u32, hi: u32 },
    /// Transitive parent: per PE, `span + 1` cycles from `separation`
    /// past the wave's first arrival there, less `D·II`.
    After {
        wave: &'a Wave,
        separation: u32,
        shift: u32,
        span: u32,
        base: u32,
        hi: u32,
    },
}

impl<'a> Proposal<'a> {
    /// Picks the proposing requirement and clips its window to
    /// `[0, horizon]`; `None` when the window is empty.
    fn select(reqs: &[Requirement], waves: &[&'a Wave], ii: u32, horizon: u32) -> Option<Self> {
        // The first requirement of the best-ranked kind proposes; a
        // transitive child never does.
        let rank = |r: &Requirement| match *r {
            Requirement::Direct {
                direction: Direction::Forward,
                ..
            } => 0,
            Requirement::Direct { .. } => 1,
            Requirement::Transitive {
                direction: Direction::Forward,
                ..
            } => 2,
            Requirement::Transitive { .. } => 3,
        };
        let proposer = reqs
            .iter()
            .zip(waves)
            .filter(|(r, _)| rank(r) < 3)
            .min_by_key(|(r, _)| rank(r));
        let proposal = match proposer {
            // Execution cycle = arrival − d·II.
            Some((
                &Requirement::Direct {
                    direction: Direction::Forward,
                    distance,
                    ..
                },
                wave,
            )) => {
                let shift = distance * ii;
                Proposal::Range {
                    base: wave.lo().saturating_sub(shift),
                    hi: wave.hi().checked_sub(shift)?.min(horizon),
                }
            }
            // Execution cycle = output cycle − 1.
            Some((&Requirement::Direct { .. }, wave)) => Proposal::Range {
                base: wave.lo().saturating_sub(1),
                hi: wave.hi().checked_sub(1)?.min(horizon),
            },
            Some((
                &Requirement::Transitive {
                    separation,
                    distance_sum,
                    ..
                },
                wave,
            )) => {
                let (shift, span) = (distance_sum * ii, 2 * ii + 2);
                Proposal::After {
                    wave,
                    separation,
                    shift,
                    span,
                    base: (wave.lo() + separation).saturating_sub(shift),
                    hi: ((wave.hi() + separation).saturating_sub(shift) + span).min(horizon),
                }
            }
            None => Proposal::Range {
                base: 0,
                hi: (3 * ii + 2).min(horizon),
            },
        };
        (proposal.base() <= proposal.hi()).then_some(proposal)
    }

    /// First cycle of the window (bit 0 of every mask).
    fn base(&self) -> u32 {
        match *self {
            Proposal::Range { base, .. } | Proposal::After { base, .. } => base,
        }
    }

    /// Last cycle of the window.
    fn hi(&self) -> u32 {
        match *self {
            Proposal::Range { hi, .. } | Proposal::After { hi, .. } => hi,
        }
    }

    /// Mask words per PE.
    fn words(&self) -> usize {
        ((self.hi() - self.base()) / 64 + 1) as usize
    }

    /// Writes `pe`'s proposed cycles into the zeroed `mask` (bit `k` =
    /// cycle `base + k`).
    fn fill(&self, pe: PeId, mask: &mut [u64]) {
        let last = self.hi() - self.base();
        match *self {
            Proposal::Range { .. } => set_range(mask, 0, last),
            Proposal::After {
                wave,
                separation,
                shift,
                span,
                base,
                ..
            } => {
                if let Some(first) = wave.first(pe) {
                    let from = (first + separation).saturating_sub(shift) - base;
                    set_range(mask, from, (from + span).min(last));
                }
            }
        }
    }
}

/// Keeps the bits of `mask` (bit `k` = cycle `base + k`) at which `req`
/// has a matching tuple of `wave` at `pe` — the per-requirement term of
/// Eq. 1, 64 cycles per step.
fn restrict(
    cgra: &Cgra,
    mapping: &Mapping,
    req: &Requirement,
    wave: &Wave,
    pe: PeId,
    base: u32,
    mask: &mut [u64],
) {
    let ii = mapping.ii();
    // Bit `k` of word `j` is cycle `c0 + k`; offsets are relative to the
    // wave's window.
    let cycle0 = |j: usize| i64::from(base) + 64 * j as i64;
    let lo = i64::from(wave.lo());
    match *req {
        Requirement::Direct {
            source,
            direction: Direction::Forward,
            distance,
            ..
        } => {
            // Arrival `c + d·II` at this PE, or at an upstream neighbour
            // whose link cell is usable then (the delivery hop).
            let shift = i64::from(distance * ii);
            for (j, word) in mask.iter_mut().enumerate() {
                let offset = cycle0(j) + shift - lo;
                let mut hit = bits_at(wave.row(pe), offset) & *word;
                for link in cgra.links_to(pe) {
                    for b in SetBits(bits_at(wave.row(link.src()), offset) & *word & !hit) {
                        let cell = Resource::Link {
                            link: link.id(),
                            slot: mapping.mrrg().slot_of((cycle0(j) + shift) as u32 + b),
                        };
                        if mapping.occupancy().usable_by_any_phase(cell, source) {
                            hit |= 1 << b;
                        }
                    }
                }
                *word = hit;
            }
        }
        Requirement::Direct {
            direction: Direction::Backward,
            ..
        } => {
            // `v`'s output, readable at `c + 1`, is on the wave.
            for (j, word) in mask.iter_mut().enumerate() {
                *word &= bits_at(wave.row(pe), cycle0(j) + 1 - lo);
            }
        }
        // Transitive requirements are deliberately loose: the intermediate
        // cluster nodes will execute on *other* PEs, so demanding the exact
        // cycle here (the paper's idealised formula) empties the candidate
        // set on small fabrics. Spatial reachability with a one-sided cycle
        // bound keeps the pruning value; Algorithm 2's pairwise constraints
        // and the routing verification enforce exactness.
        Requirement::Transitive {
            direction: Direction::Forward,
            distance_sum,
            ..
        } => {
            // Some arrival at or before `c + D·II`: `c ≥ first − D·II`.
            let from = wave
                .first(pe)
                .map(|first| i64::from(first) - i64::from(distance_sum * ii));
            for (j, word) in mask.iter_mut().enumerate() {
                *word &= from.map_or(0, |from| bits_from(from - cycle0(j)));
            }
        }
        Requirement::Transitive {
            direction: Direction::Backward,
            ..
        } => {
            // Some position at or after `c + 1`: `c ≤ last − 1`.
            let to = wave.last(pe).map(|last| i64::from(last) - 1);
            for (j, word) in mask.iter_mut().enumerate() {
                *word &= to.map_or(0, |to| !bits_from(to + 1 - cycle0(j)));
            }
        }
    }
}

/// A word with bits `k ≥ from` set (`from` may fall outside `0..64`).
#[inline]
fn bits_from(from: i64) -> u64 {
    match from {
        ..=0 => u64::MAX,
        64.. => 0,
        _ => u64::MAX << from,
    }
}

/// Sets bits `from..=to` of `mask`; bits past its end are dropped.
fn set_range(mask: &mut [u64], from: u32, to: u32) {
    for (j, word) in mask.iter_mut().enumerate() {
        let (lo, hi) = (64 * j as u32, 64 * j as u32 + 63);
        if from <= hi && to >= lo {
            *word |= (u64::MAX >> (63 - (to.min(hi) - lo))) & (u64::MAX << (from.max(lo) - lo));
        }
    }
}

/// The 64 bits of `row` starting at bit `offset`; bits outside the row
/// (a negative offset, or past its end) read as zero.
#[inline]
fn bits_at(row: &[u64], offset: i64) -> u64 {
    if offset < 0 {
        return if offset <= -64 {
            0
        } else {
            bits_at(row, 0) << -offset
        };
    }
    let (w, s) = ((offset / 64) as usize, offset % 64);
    let at = |i: usize| row.get(i).copied().unwrap_or(0);
    if s == 0 {
        at(w)
    } else {
        at(w) >> s | at(w + 1) << (64 - s)
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
    fn early_stop_matches_sort_and_truncate() {
        // The capped walk must return exactly what sorting the uncapped
        // list by (cycle, PE) and truncating it would.
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
        let store = propagate(&cgra, m.occupancy(), &seeds, 24);
        let both = requirements_for(&dfg, &m, b);
        let requirement_sets = [both.clone(), vec![both[0]], vec![both[1]], Vec::new()];
        for reqs in &requirement_sets {
            let with_cap = |cap| {
                let config = RewireConfig {
                    max_candidates_per_node: cap,
                    ..Default::default()
                };
                pcandidates(&dfg, &cgra, &m, &store, b, reqs, &config, 20).options
            };
            let mut all = with_cap(usize::MAX);
            assert!(!all.is_empty(), "{reqs:?}");
            if reqs.len() < 2 {
                assert!(all.len() > 8, "{reqs:?} proposes enough to truncate");
            }
            all.sort_by_key(|&(p, c)| (c, p));
            for cap in [0, 1, 2, 7, all.len() - 1, all.len()] {
                let mut reference = all.clone();
                reference.truncate(cap);
                assert_eq!(with_cap(cap), reference, "cap {cap}, {reqs:?}");
            }
        }
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
