//! The router's hop-distance oracle.
//!
//! The router's DP relaxes `(pe, carrier)` states layer by layer; a state
//! whose PE cannot reach the destination within the remaining steps can
//! never contribute to an arrival candidate, so relaxing it is pure waste.
//! [`DistanceOracle`] gives the router the exact link-hop distance to
//! prune against — the tightest bound that never over-estimates.
//!
//! Distances depend only on the link topology, not on the II or the
//! occupancy, so one oracle serves every route on a fabric: the router
//! caches oracles behind [`Arc`]s in its thread scratch, keyed by
//! [`Cgra::topology_fingerprint`], and a caller that already holds a
//! fabric's oracle can install it on a thread
//! ([`install_thread_distance_table`](crate::install_thread_distance_table)).
//!
//! Rows are built on first use, one reverse BFS per destination, so
//! memory follows the destinations actually routed rather than the
//! square of the fabric: mappers route to few destinations even on large
//! fabrics (82 of 1,024 PEs while Rewire maps the benchmark's six
//! rewire-mesh32 kernels on the 32×32 mesh).

use rewire_arch::{Cgra, PeId};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Exact minimum link-hop distances over a CGRA's directed link graph,
/// one destination row at a time.
///
/// [`hops_to(cgra, dst)`](DistanceOracle::hops_to)`[src]` is the fewest
/// links on any directed path `src → dst`, or
/// [`DistanceOracle::UNREACHABLE`] when no path exists (disconnected
/// fabrics). Distances follow the *links*, not grid geometry, so torus
/// wraps and diagonals are measured exactly — unlike [`Cgra::distance`],
/// which is a Manhattan/Chebyshev heuristic that over-estimates on
/// wrap-around fabrics and therefore must not be used for exact pruning.
#[derive(Clone)]
pub struct DistanceOracle {
    fingerprint: u64,
    /// One slot per destination PE, filled with that destination's row
    /// (hop counts indexed by source PE) the first time it is asked for.
    rows: Box<[OnceLock<Box<[u32]>>]>,
}

impl DistanceOracle {
    /// Sentinel distance for PE pairs with no connecting path.
    pub const UNREACHABLE: u32 = u32::MAX;

    /// An oracle for `cgra` with no rows yet: no BFS runs until a
    /// destination is asked for.
    pub fn build(cgra: &Cgra) -> Self {
        Self {
            fingerprint: cgra.topology_fingerprint(),
            rows: (0..cgra.num_pes()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// [`build`](DistanceOracle::build) behind an [`Arc`], ready for
    /// cross-thread sharing.
    pub fn shared(cgra: &Cgra) -> Arc<Self> {
        Arc::new(Self::build(cgra))
    }

    /// Whether this oracle was built for `cgra`'s link topology.
    pub fn matches(&self, cgra: &Cgra) -> bool {
        self.fingerprint == cgra.topology_fingerprint() && self.rows.len() == cgra.num_pes()
    }

    /// The fingerprint of the topology the oracle was built for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The hop counts to `dst`, indexed by source PE — the router's
    /// hot-path accessor (one lookup per route attempt, not per state).
    /// The first call for a destination fills its row with one BFS over
    /// the reversed link graph ([`Cgra::links_to`]), O(PEs + links); later
    /// calls return the same slice.
    ///
    /// # Panics
    ///
    /// Panics if the oracle was not built for `cgra`'s topology.
    pub fn hops_to(&self, cgra: &Cgra, dst: PeId) -> &[u32] {
        assert!(
            self.matches(cgra),
            "distance oracle built for another fabric"
        );
        self.rows[dst.index()].get_or_init(|| {
            let mut row = vec![Self::UNREACHABLE; self.rows.len()];
            row[dst.index()] = 0;
            let mut queue = VecDeque::from([dst]);
            while let Some(pe) = queue.pop_front() {
                let d = row[pe.index()];
                for link in cgra.links_to(pe) {
                    let src = link.src().index();
                    if row[src] == Self::UNREACHABLE {
                        row[src] = d + 1;
                        queue.push_back(link.src());
                    }
                }
            }
            row.into_boxed_slice()
        })
    }

    /// Heap bytes held: one empty slot per PE plus one `u32` per PE for
    /// every row built so far.
    pub fn heap_bytes(&self) -> usize {
        let row_bytes = self.rows.len() * std::mem::size_of::<u32>();
        std::mem::size_of_val(&*self.rows) + self.rows_built() * row_bytes
    }

    fn rows_built(&self) -> usize {
        self.rows.iter().filter(|r| r.get().is_some()).count()
    }
}

impl fmt::Debug for DistanceOracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistanceOracle")
            .field("fingerprint", &self.fingerprint)
            .field("num_pes", &self.rows.len())
            .field("rows_built", &self.rows_built())
            .finish()
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
        let oracle = DistanceOracle::build(&cgra);
        for a in cgra.pes() {
            for b in cgra.pes() {
                assert_eq!(
                    oracle.hops_to(&cgra, b.id())[a.id().index()],
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
        let oracle = DistanceOracle::build(&cgra);
        let a = pe(&cgra, 0, 0);
        let b = pe(&cgra, 0, 3);
        assert_eq!(
            oracle.hops_to(&cgra, b)[a.index()],
            1,
            "one wrap link, not three mesh hops"
        );
        assert_eq!(cgra.distance(a, b), 3, "the heuristic stays geometric");
    }

    #[test]
    fn matches_tracks_the_fingerprint() {
        let mesh = presets::paper_4x4_r4();
        let torus = CgraBuilder::new(4, 4).torus(true).build().unwrap();
        let oracle = DistanceOracle::build(&mesh);
        assert!(oracle.matches(&mesh));
        assert!(!oracle.matches(&torus));
        assert_eq!(oracle.fingerprint(), mesh.topology_fingerprint());
    }

    #[test]
    fn disconnected_islands_are_unreachable() {
        let cgra = CgraBuilder::new(4, 2).cut_row(2).build().unwrap();
        let oracle = DistanceOracle::build(&cgra);
        let top = pe(&cgra, 0, 0);
        let bottom = pe(&cgra, 3, 1);
        let unreachable = DistanceOracle::UNREACHABLE;
        assert_eq!(oracle.hops_to(&cgra, bottom)[top.index()], unreachable);
        assert_eq!(oracle.hops_to(&cgra, top)[bottom.index()], unreachable);
        // Within an island the distances stay finite.
        assert_eq!(oracle.hops_to(&cgra, pe(&cgra, 1, 1))[top.index()], 2);
    }

    #[test]
    fn rows_are_built_on_demand() {
        let cgra = presets::mesh64();
        let oracle = DistanceOracle::build(&cgra);
        let empty = oracle.heap_bytes();
        assert_eq!(oracle.rows_built(), 0, "build runs no BFS");
        assert!(empty < 2_000_000, "{empty}");
        let row_bytes = cgra.num_pes() * std::mem::size_of::<u32>();
        let dsts = [pe(&cgra, 0, 0), pe(&cgra, 63, 63), pe(&cgra, 31, 7)];
        for (i, &dst) in dsts.iter().enumerate() {
            let row = oracle.hops_to(&cgra, dst);
            assert!(cgra
                .pes()
                .all(|p| row[p.id().index()] == cgra.distance(p.id(), dst)));
            assert_eq!(oracle.heap_bytes(), empty + (i + 1) * row_bytes);
        }
        let first = oracle.hops_to(&cgra, dsts[0]);
        assert!(
            std::ptr::eq(first, oracle.hops_to(&cgra, dsts[0])),
            "a repeated query returns the same row"
        );
        assert_eq!(oracle.heap_bytes(), empty + dsts.len() * row_bytes);
    }
}
