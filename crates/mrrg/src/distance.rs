//! Static per-architecture hop-distance oracles.
//!
//! The router's DP relaxes `(pe, carrier)` states layer by layer; a state
//! whose PE cannot reach the destination within the remaining steps can
//! never contribute to an arrival candidate, so relaxing it is pure waste.
//! This module precomputes hop-distance information over the CGRA link
//! topology, giving the router an admissible (never over-estimating) lower
//! bound to prune against.
//!
//! Two oracle tiers exist, chosen by fabric size ([`DistanceOracle`]):
//!
//! * [`DistanceTable`] — the exact all-pairs table (one BFS per
//!   destination, `PEs²` entries). Perfect pruning, but quadratic memory:
//!   fine for the paper's ≤8×8 meshes and up to
//!   [`DistanceOracle::DENSE_PE_LIMIT`] PEs, ruinous at 64×64 (4096² ≈
//!   67 MB per fabric per cache slot).
//! * [`TieredDistance`] — a landmark oracle over a tile decomposition of
//!   the mesh: one landmark PE per `TILE×TILE` tile, two BFS passes per
//!   landmark (forward and reverse), `2·L·PEs` entries. Queries return a
//!   triangle-inequality *lower bound* on the true hop distance, so the
//!   router's pruning proof carries over unchanged — a state whose lower
//!   bound already exceeds the remaining budget is dead under the true
//!   distance too. The bound is weaker than exact (fewer states pruned),
//!   never wrong (routes stay byte-identical across oracle tiers, pinned
//!   by the differential suites).
//!
//! The tables depend only on the link topology, not on the II or the
//! occupancy, so they are computed once per fabric and shared: the router
//! caches them behind [`Arc`]s in [`RouterScratch`](crate::RouterScratch),
//! keyed by [`Cgra::topology_fingerprint`], and a caller that already
//! holds a fabric's oracle can install it on a thread instead of
//! re-running the BFS.

use rewire_arch::{Cgra, PeId};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// All-pairs minimum link-hop distances over a CGRA's directed link graph.
///
/// `hops(from, to)` is the fewest links on any directed path `from → to`,
/// or [`DistanceTable::UNREACHABLE`] when no path exists (disconnected
/// fabrics). Distances follow the *links*, not grid geometry, so torus
/// wraps and diagonals are measured exactly — unlike
/// [`Cgra::distance`], which is a Manhattan/Chebyshev heuristic that
/// over-estimates on wrap-around fabrics and therefore must not be used
/// for exact pruning.
#[derive(Clone)]
pub struct DistanceTable {
    fingerprint: u64,
    num_pes: usize,
    /// Row-major by destination: `table[dst * num_pes + src]` holds the
    /// hop count `src → dst`, so one destination's row is a contiguous
    /// slice the router can index by source PE in its inner loop.
    table: Vec<u32>,
}

/// Breadth-first hop distances from `start` following `next(pe)` edges,
/// written into `row` (which must be pre-filled with `UNREACHABLE`).
fn bfs_into<I: Iterator<Item = PeId>>(
    row: &mut [u32],
    queue: &mut VecDeque<PeId>,
    start: PeId,
    next: impl Fn(PeId) -> I,
) {
    row[start.index()] = 0;
    queue.clear();
    queue.push_back(start);
    while let Some(pe) = queue.pop_front() {
        let d = row[pe.index()];
        for n in next(pe) {
            if row[n.index()] == DistanceTable::UNREACHABLE {
                row[n.index()] = d + 1;
                queue.push_back(n);
            }
        }
    }
}

impl DistanceTable {
    /// Sentinel distance for PE pairs with no connecting path.
    pub const UNREACHABLE: u32 = u32::MAX;

    /// Computes the table for `cgra`: one BFS per destination over the
    /// reversed link graph (`links_to`), O(PEs · (PEs + links)) total.
    pub fn build(cgra: &Cgra) -> Self {
        let n = cgra.num_pes();
        let mut table = vec![Self::UNREACHABLE; n * n];
        let mut queue = VecDeque::new();
        for dst in 0..n {
            let row = &mut table[dst * n..(dst + 1) * n];
            bfs_into(row, &mut queue, PeId::new(dst as u32), |pe| {
                cgra.links_to(pe).map(|l| l.src())
            });
        }
        Self {
            fingerprint: cgra.topology_fingerprint(),
            num_pes: n,
            table,
        }
    }

    /// Builds the table behind an [`Arc`], ready for cross-thread sharing.
    pub fn shared(cgra: &Cgra) -> Arc<Self> {
        Arc::new(Self::build(cgra))
    }

    /// Whether this table was built for `cgra`'s link topology.
    pub fn matches(&self, cgra: &Cgra) -> bool {
        self.fingerprint == cgra.topology_fingerprint() && self.num_pes == cgra.num_pes()
    }

    /// The fingerprint of the topology the table was built for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Minimum link hops `from → to`, or [`Self::UNREACHABLE`].
    pub fn hops(&self, from: PeId, to: PeId) -> u32 {
        self.table[to.index() * self.num_pes + from.index()]
    }

    /// The distance row for destination `to`, indexed by source PE — the
    /// router's hot-path accessor (one bounds check per route, not per
    /// state).
    pub fn to_pe(&self, to: PeId) -> &[u32] {
        &self.table[to.index() * self.num_pes..(to.index() + 1) * self.num_pes]
    }

    /// Heap bytes held by the table (the memory the dense tier trades for
    /// exactness; reported through the `router.distance_table_bytes`
    /// gauge).
    pub fn heap_bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<u32>()
    }
}

impl fmt::Debug for DistanceTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistanceTable")
            .field("fingerprint", &self.fingerprint)
            .field("num_pes", &self.num_pes)
            .finish_non_exhaustive()
    }
}

/// Landmark/tile hop-distance oracle for fabrics too large for the dense
/// all-pairs table.
///
/// The mesh is decomposed into `TILE×TILE` tiles; each tile contributes
/// one landmark PE (its geometric center). For every landmark `l` two BFS
/// passes record `d(l, ·)` (forward) and `d(·, l)` (reverse). A query for
/// `d(a, b)` returns the best triangle-inequality lower bound over `a`'s
/// and `b`'s tile landmarks:
///
/// * `d(a, b) ≥ d(l, b) − d(l, a)` (forward table),
/// * `d(a, b) ≥ d(a, l) − d(b, l)` (reverse table),
///
/// and detects some genuinely unreachable pairs outright: if `l` reaches
/// `a` but not `b`, or `b` reaches `l` but `a` does not, then no path
/// `a → b` can exist (it would extend to the missing one). Both rules are
/// consequences of the triangle inequality on directed hop distances, so
/// the bound is *admissible*: it never exceeds the true distance (pinned
/// by proptest against the exact table in
/// `crates/mrrg/tests/distance_properties.rs`).
///
/// Memory is `2 · landmarks · PEs` entries — for a 64×64 mesh with 8×8
/// tiles that is 2·64·4096 u32 ≈ 2 MB, against 67 MB for the dense table.
#[derive(Clone)]
pub struct TieredDistance {
    fingerprint: u64,
    num_pes: usize,
    /// Tile landmark index per PE (`lm_of[pe]` indexes the tables below).
    lm_of: Vec<u16>,
    /// Row-major by landmark: `from[l * num_pes + pe]` = `d(landmark, pe)`.
    from: Vec<u32>,
    /// Row-major by landmark: `to[l * num_pes + pe]` = `d(pe, landmark)`.
    to: Vec<u32>,
}

impl TieredDistance {
    /// Tile edge length of the mesh decomposition (one landmark per tile).
    pub const TILE: u16 = 8;

    /// Builds the landmark oracle for `cgra`: two BFS passes per tile
    /// landmark, O(tiles · (PEs + links)) total.
    pub fn build(cgra: &Cgra) -> Self {
        let n = cgra.num_pes();
        let tiles_across = cgra.cols().div_ceil(Self::TILE).max(1);
        let tiles_down = cgra.rows().div_ceil(Self::TILE).max(1);
        let num_tiles = tiles_across as usize * tiles_down as usize;

        // Tile membership and one landmark per tile: the PE closest to the
        // tile center (tiles at the fabric edge may be partial).
        let mut lm_of = vec![0u16; n];
        let mut landmarks = vec![PeId::new(0); num_tiles];
        for pe in cgra.pes() {
            let c = pe.coord();
            let tile = (c.row / Self::TILE) as usize * tiles_across as usize
                + (c.col / Self::TILE) as usize;
            lm_of[pe.id().index()] = tile as u16;
        }
        for tr in 0..tiles_down {
            for tc in 0..tiles_across {
                let tile = tr as usize * tiles_across as usize + tc as usize;
                // Center of the (possibly clipped) tile.
                let row = (tr * Self::TILE + (Self::TILE / 2)).min(cgra.rows() - 1);
                let col = (tc * Self::TILE + (Self::TILE / 2)).min(cgra.cols() - 1);
                landmarks[tile] = cgra
                    .pe_at(rewire_arch::Coord::new(row, col))
                    .expect("tile center clipped into the grid")
                    .id();
            }
        }

        let mut from = vec![DistanceTable::UNREACHABLE; num_tiles * n];
        let mut to = vec![DistanceTable::UNREACHABLE; num_tiles * n];
        let mut queue = VecDeque::new();
        for (l, &lm) in landmarks.iter().enumerate() {
            bfs_into(&mut from[l * n..(l + 1) * n], &mut queue, lm, |pe| {
                cgra.out_neighbours(pe).iter().map(|&(dst, _)| dst)
            });
            bfs_into(&mut to[l * n..(l + 1) * n], &mut queue, lm, |pe| {
                cgra.links_to(pe).map(|link| link.src())
            });
        }

        Self {
            fingerprint: cgra.topology_fingerprint(),
            num_pes: n,
            lm_of,
            from,
            to,
        }
    }

    /// Whether this oracle was built for `cgra`'s link topology.
    pub fn matches(&self, cgra: &Cgra) -> bool {
        self.fingerprint == cgra.topology_fingerprint() && self.num_pes == cgra.num_pes()
    }

    /// Number of tile landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.from.len() / self.num_pes.max(1)
    }

    /// Admissible lower bound on the hop distance `from → to`:
    /// never exceeds the true distance, and returns
    /// [`DistanceTable::UNREACHABLE`] only for pairs that genuinely have
    /// no connecting path.
    pub fn lower_bound(&self, from: PeId, to: PeId) -> u32 {
        self.bound_indexed(from.index(), to.index())
    }

    #[inline]
    fn bound_indexed(&self, a: usize, b: usize) -> u32 {
        if a == b {
            return 0;
        }
        let n = self.num_pes;
        let la = self.lm_of[a] as usize;
        let lb = self.lm_of[b] as usize;
        let mut best = 0u32;
        let mut l = la;
        loop {
            let fa = self.from[l * n + a]; // d(l, a)
            let fb = self.from[l * n + b]; // d(l, b)
            let ta = self.to[l * n + a]; //   d(a, l)
            let tb = self.to[l * n + b]; //   d(b, l)
            const UNREACHABLE: u32 = DistanceTable::UNREACHABLE;
            // l reaches a but not b ⇒ a→b would extend l→a→b: impossible.
            if fa != UNREACHABLE && fb == UNREACHABLE {
                return UNREACHABLE;
            }
            // b reaches l but a does not ⇒ a→b would extend a→b→l.
            if tb != UNREACHABLE && ta == UNREACHABLE {
                return UNREACHABLE;
            }
            if fa != UNREACHABLE && fb != UNREACHABLE {
                best = best.max(fb.saturating_sub(fa)); // d(a,b) ≥ d(l,b) − d(l,a)
            }
            if ta != UNREACHABLE && tb != UNREACHABLE {
                best = best.max(ta.saturating_sub(tb)); // d(a,b) ≥ d(a,l) − d(b,l)
            }
            if l == lb {
                break;
            }
            l = lb;
        }
        best
    }

    /// Heap bytes held by the landmark tables.
    pub fn heap_bytes(&self) -> usize {
        (self.from.capacity() + self.to.capacity()) * std::mem::size_of::<u32>()
            + self.lm_of.capacity() * std::mem::size_of::<u16>()
    }
}

impl fmt::Debug for TieredDistance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TieredDistance")
            .field("fingerprint", &self.fingerprint)
            .field("num_pes", &self.num_pes)
            .field("landmarks", &self.num_landmarks())
            .finish_non_exhaustive()
    }
}

/// Size-tiered hop-distance oracle: exact dense table up to
/// [`DistanceOracle::DENSE_PE_LIMIT`] PEs, landmark lower bounds above.
///
/// Both tiers expose the same contract the router prunes against — an
/// admissible lower bound on `d(src, dst)` — so the pruning exactness
/// proof in [`Router::route_attempt`](crate::Router) holds for either:
/// pruned routes are byte-identical to the dense sweep regardless of the
/// tier in use.
#[derive(Clone, Debug)]
pub enum DistanceOracle {
    /// Exact all-pairs table (small fabrics).
    Dense(DistanceTable),
    /// Landmark lower-bound oracle (large fabrics).
    Tiered(TieredDistance),
}

impl DistanceOracle {
    /// Largest PE count served by the exact dense tier; above it
    /// [`DistanceOracle::build`] switches to the landmark oracle. 256 PEs
    /// (16×16) keeps the dense tier at ≤ 256 KB; 32×32 would already cost
    /// 4 MB per fabric per cache slot and 64×64 67 MB.
    pub const DENSE_PE_LIMIT: usize = 256;

    /// Builds the appropriate tier for `cgra`'s size.
    pub fn build(cgra: &Cgra) -> Self {
        if cgra.num_pes() <= Self::DENSE_PE_LIMIT {
            Self::Dense(DistanceTable::build(cgra))
        } else {
            Self::Tiered(TieredDistance::build(cgra))
        }
    }

    /// Builds the size-appropriate tier behind an [`Arc`].
    pub fn shared(cgra: &Cgra) -> Arc<Self> {
        Arc::new(Self::build(cgra))
    }

    /// Whether this oracle was built for `cgra`'s link topology.
    pub fn matches(&self, cgra: &Cgra) -> bool {
        match self {
            Self::Dense(t) => t.matches(cgra),
            Self::Tiered(t) => t.matches(cgra),
        }
    }

    /// The fingerprint of the topology the oracle was built for.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Self::Dense(t) => t.fingerprint,
            Self::Tiered(t) => t.fingerprint,
        }
    }

    /// Whether the oracle returns exact distances (dense tier) rather
    /// than lower bounds.
    pub fn is_exact(&self) -> bool {
        matches!(self, Self::Dense(_))
    }

    /// Admissible lower bound on the hop distance `from → to` (exact in
    /// the dense tier).
    pub fn lower_bound(&self, from: PeId, to: PeId) -> u32 {
        match self {
            Self::Dense(t) => t.hops(from, to),
            Self::Tiered(t) => t.lower_bound(from, to),
        }
    }

    /// A per-destination view for the router's inner loop: resolves the
    /// destination once, then answers per-source queries without
    /// re-deriving it.
    pub fn bound_to(&self, dst: PeId) -> DistanceBound<'_> {
        match self {
            Self::Dense(t) => DistanceBound::Row(t.to_pe(dst)),
            Self::Tiered(t) => DistanceBound::Landmarks {
                oracle: t,
                dst: dst.index(),
            },
        }
    }

    /// Heap bytes held by the oracle's tables (reported through the
    /// `router.distance_table_bytes` gauge).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Self::Dense(t) => t.heap_bytes(),
            Self::Tiered(t) => t.heap_bytes(),
        }
    }
}

/// One destination's lower-bound view over a [`DistanceOracle`].
#[derive(Clone, Copy, Debug)]
pub enum DistanceBound<'a> {
    /// Dense tier: the destination's contiguous distance row.
    Row(&'a [u32]),
    /// Tiered tier: landmark queries against a fixed destination.
    Landmarks {
        /// The oracle the bounds come from.
        oracle: &'a TieredDistance,
        /// Destination PE index.
        dst: usize,
    },
}

impl DistanceBound<'_> {
    /// Admissible lower bound on the hop distance from PE index `src` to
    /// this view's destination.
    #[inline]
    pub fn get(&self, src: usize) -> u32 {
        match self {
            Self::Row(row) => row[src],
            Self::Landmarks { oracle, dst } => oracle.bound_indexed(src, *dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::{presets, CgraBuilder, Coord};

    fn pe(cgra: &Cgra, row: u16, col: u16) -> PeId {
        cgra.pe_at(Coord::new(row, col)).unwrap().id()
    }

    #[test]
    fn mesh_distances_match_manhattan() {
        let cgra = presets::paper_4x4_r4();
        let t = DistanceTable::build(&cgra);
        for a in cgra.pes() {
            for b in cgra.pes() {
                assert_eq!(
                    t.hops(a.id(), b.id()),
                    cgra.distance(a.id(), b.id()),
                    "{} -> {}",
                    a.id(),
                    b.id()
                );
            }
        }
    }

    #[test]
    fn torus_wraps_beat_the_manhattan_heuristic() {
        let cgra = CgraBuilder::new(4, 4).torus(true).build().unwrap();
        let t = DistanceTable::build(&cgra);
        let a = pe(&cgra, 0, 0);
        let b = pe(&cgra, 0, 3);
        assert_eq!(t.hops(a, b), 1, "one wrap link, not three mesh hops");
        assert_eq!(cgra.distance(a, b), 3, "the heuristic stays geometric");
    }

    #[test]
    fn rows_are_indexed_by_source() {
        let cgra = presets::paper_4x4_r4();
        let t = DistanceTable::build(&cgra);
        let dst = pe(&cgra, 2, 1);
        let row = t.to_pe(dst);
        for src in cgra.pes() {
            assert_eq!(row[src.id().index()], t.hops(src.id(), dst));
        }
    }

    #[test]
    fn matches_tracks_the_fingerprint() {
        let mesh = presets::paper_4x4_r4();
        let torus = CgraBuilder::new(4, 4).torus(true).build().unwrap();
        let t = DistanceTable::build(&mesh);
        assert!(t.matches(&mesh));
        assert!(!t.matches(&torus));
    }

    #[test]
    fn disconnected_islands_are_unreachable() {
        let cgra = CgraBuilder::new(4, 2).cut_row(2).build().unwrap();
        let t = DistanceTable::build(&cgra);
        let top = pe(&cgra, 0, 0);
        let bottom = pe(&cgra, 3, 1);
        assert_eq!(t.hops(top, bottom), DistanceTable::UNREACHABLE);
        assert_eq!(t.hops(bottom, top), DistanceTable::UNREACHABLE);
        // Within an island the distances stay finite.
        assert_eq!(t.hops(top, pe(&cgra, 1, 1)), 2);
    }

    #[test]
    fn tiered_is_admissible_on_a_plain_mesh() {
        let plain = CgraBuilder::new(10, 10).build().unwrap();
        assert_eq!(
            TieredDistance::build(&plain).num_landmarks(),
            4,
            "10x10 with 8x8 tiles"
        );
        let fabrics = [
            plain,
            presets::paper_8x8_r4(),
            presets::mesh16(),
            presets::mesh32(),
        ];
        for cgra in &fabrics {
            let exact = DistanceTable::build(cgra);
            let tiered = TieredDistance::build(cgra);
            for a in cgra.pes() {
                for b in cgra.pes() {
                    let lb = tiered.lower_bound(a.id(), b.id());
                    let d = exact.hops(a.id(), b.id());
                    assert!(
                        lb <= d,
                        "{}: {} -> {}: lb {lb} > true {d}",
                        cgra.label(),
                        a.id(),
                        b.id()
                    );
                }
            }
        }
    }

    #[test]
    fn tiered_detects_cut_islands() {
        // Landmark on each island ⇒ cross-island pairs are provably
        // unreachable, same-island pairs keep finite (admissible) bounds.
        let cgra = CgraBuilder::new(20, 4).cut_row(10).build().unwrap();
        let exact = DistanceTable::build(&cgra);
        let tiered = TieredDistance::build(&cgra);
        let top = pe(&cgra, 0, 0);
        let bottom = pe(&cgra, 19, 3);
        assert_eq!(
            tiered.lower_bound(top, bottom),
            DistanceTable::UNREACHABLE,
            "cross-island pair detected via landmark reachability"
        );
        for a in cgra.pes() {
            for b in cgra.pes() {
                let lb = tiered.lower_bound(a.id(), b.id());
                let d = exact.hops(a.id(), b.id());
                if lb == DistanceTable::UNREACHABLE {
                    assert_eq!(d, DistanceTable::UNREACHABLE, "{} -> {}", a.id(), b.id());
                } else {
                    assert!(lb <= d, "{} -> {}: lb {lb} > true {d}", a.id(), b.id());
                }
            }
        }
    }

    #[test]
    fn oracle_switches_tiers_at_the_limit() {
        let small = CgraBuilder::new(16, 16).build().unwrap();
        assert!(DistanceOracle::build(&small).is_exact(), "256 PEs is dense");
        let big = CgraBuilder::new(17, 16).build().unwrap();
        let oracle = DistanceOracle::build(&big);
        assert!(!oracle.is_exact(), "272 PEs exceeds the dense limit");
        assert!(oracle.matches(&big));
        assert!(!oracle.matches(&small));
        assert!(oracle.heap_bytes() < 17 * 16 * 17 * 16 * 4, "sub-quadratic");
        // The 1024-PE mesh stays tiered and far under 2 MB; its dense
        // table alone would be 4.2 MB.
        let mesh32 = DistanceOracle::build(&presets::mesh32());
        assert!(!mesh32.is_exact());
        assert!(mesh32.heap_bytes() < 2_000_000, "{}", mesh32.heap_bytes());
    }

    #[test]
    fn bound_views_agree_with_point_queries() {
        for cgra in [
            CgraBuilder::new(9, 9).build().unwrap(),
            CgraBuilder::new(9, 9).torus(true).build().unwrap(),
        ] {
            let exact = DistanceTable::build(&cgra);
            for oracle in [
                DistanceOracle::Dense(DistanceTable::build(&cgra)),
                DistanceOracle::Tiered(TieredDistance::build(&cgra)),
            ] {
                for dst in cgra.pes() {
                    let view = oracle.bound_to(dst.id());
                    for src in cgra.pes() {
                        let got = view.get(src.id().index());
                        assert_eq!(got, oracle.lower_bound(src.id(), dst.id()));
                        assert!(got <= exact.hops(src.id(), dst.id()));
                    }
                }
            }
        }
    }

    #[test]
    fn dense_heap_bytes_are_quadratic() {
        let cgra = presets::paper_4x4_r4();
        let t = DistanceTable::build(&cgra);
        assert!(t.heap_bytes() >= 16 * 16 * 4);
        let oracle = DistanceOracle::build(&cgra);
        assert_eq!(oracle.heap_bytes(), t.heap_bytes());
        assert_eq!(oracle.fingerprint(), cgra.topology_fingerprint());
    }
}
