//! Per-cell occupancy with signal sharing, reference counts, and overuse
//! tracking.

use crate::{Mrrg, Resource, Route};
use rewire_dfg::NodeId;
use std::sync::Arc;

/// Cells per lazily allocated occupancy chunk.
///
/// A 64×64 fabric time-extended at II 20 has on the order of a million
/// MRRG cells; a mapper that only ever touches a corner of it should not
/// pay a million-entry allocation per restart. Chunks of 256 cells keep
/// the directory small while untouched regions stay as `None`.
const CHUNK: usize = 256;

/// One chunk's cell lists, boxed so an unallocated chunk costs one `None`.
type Chunk = Box<[Vec<((NodeId, u32), u32)>]>;

/// Occupancy state of every MRRG cell.
///
/// Each cell holds a small list of `((signal, phase), refcount)` pairs,
/// where *phase* is the step's age — the number of cycles since the
/// signal's value left its producer. Routes of the same signal share cells
/// (fan-out) **only at equal phase**: two uses with the same modulo slot
/// but different ages would put two different iterations' values on one
/// physical resource in the same cycle. Any two distinct `(signal, phase)`
/// keys on one cell are *overuse* — permitted so PathFinder-style
/// negotiation can explore, but a valid final mapping must be overuse-free
/// ([`Occupancy::total_overuse`]).
///
/// # Examples
///
/// ```
/// use rewire_arch::presets;
/// use rewire_dfg::NodeId;
/// use rewire_mrrg::{Mrrg, Occupancy, Resource};
///
/// let cgra = presets::paper_4x4_r4();
/// let mrrg = Mrrg::new(&cgra, 2);
/// let mut occ = Occupancy::new(&mrrg);
/// let cell = Resource::Fu { pe: cgra.pes().next().unwrap().id(), slot: 0 };
///
/// occ.claim(cell, NodeId::new(0), 0);
/// occ.claim(cell, NodeId::new(0), 0); // same signal and phase: shared
/// assert!(!occ.is_overused(cell));
/// occ.claim(cell, NodeId::new(1), 0); // different signal: overuse
/// assert!(occ.is_overused(cell));
/// occ.release(cell, NodeId::new(1), 0);
/// assert!(!occ.is_overused(cell));
/// ```
#[derive(Clone, Debug)]
pub struct Occupancy {
    // Shared, not owned: cloning an occupancy (once per mapper restart)
    // must not duplicate the shape.
    mrrg: Arc<Mrrg>,
    /// Chunked cell directory: `cells[idx / CHUNK]` is `None` until a
    /// claim first touches that chunk, so untouched rows of a big fabric
    /// never allocate. Reads treat a missing chunk as all-free.
    cells: Vec<Option<Chunk>>,
}

/// The all-free owner list reads of unallocated chunks borrow.
const NO_OWNERS: &[((NodeId, u32), u32)] = &[];

impl Occupancy {
    /// Creates an all-free occupancy table for `mrrg`.
    pub fn new(mrrg: &Mrrg) -> Self {
        Self::new_shared(Arc::new(mrrg.clone()))
    }

    /// Creates an all-free occupancy table sharing an existing MRRG handle
    /// (avoids a per-table copy when the caller already holds one).
    pub fn new_shared(mrrg: Arc<Mrrg>) -> Self {
        let num_chunks = mrrg.num_cells().div_ceil(CHUNK);
        Self {
            mrrg,
            cells: vec![None; num_chunks],
        }
    }

    /// The MRRG shape this table belongs to.
    pub fn mrrg(&self) -> &Mrrg {
        &self.mrrg
    }

    /// Number of chunks that have been materialised by claims so far —
    /// the footprint knob the lazy layout exists for.
    pub fn allocated_chunks(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// The owner list at a dense cell index, materialising its chunk.
    fn owners_mut(&mut self, idx: usize) -> &mut Vec<((NodeId, u32), u32)> {
        let chunk = self.cells[idx / CHUNK]
            .get_or_insert_with(|| vec![Vec::new(); CHUNK].into_boxed_slice());
        &mut chunk[idx % CHUNK]
    }

    /// Claims one reference of `cell` for `signal` at the given `phase`
    /// (cycles since the signal left its producer; use 0 for FU cells).
    pub fn claim(&mut self, cell: Resource, signal: NodeId, phase: u32) {
        let idx = self.mrrg.index_of(cell);
        let owners = self.owners_mut(idx);
        if let Some(entry) = owners.iter_mut().find(|(k, _)| *k == (signal, phase)) {
            entry.1 += 1;
        } else {
            owners.push(((signal, phase), 1));
        }
    }

    /// Releases one reference of `cell` held by `(signal, phase)`.
    ///
    /// # Panics
    ///
    /// Panics if the key does not hold the cell — claims and releases must
    /// be balanced.
    pub fn release(&mut self, cell: Resource, signal: NodeId, phase: u32) {
        let idx = self.mrrg.index_of(cell);
        let owners = match &mut self.cells[idx / CHUNK] {
            Some(chunk) => &mut chunk[idx % CHUNK],
            None => panic!("release of unclaimed {cell} by {signal}@{phase}"),
        };
        let pos = owners
            .iter()
            .position(|(k, _)| *k == (signal, phase))
            .unwrap_or_else(|| panic!("release of unclaimed {cell} by {signal}@{phase}"));
        owners[pos].1 -= 1;
        if owners[pos].1 == 0 {
            owners.swap_remove(pos);
        }
    }

    /// Claims every resource of a committed route (signal and per-step
    /// phases taken from the route).
    pub fn claim_route(&mut self, route: &Route) {
        for (k, &res) in route.resources().iter().enumerate() {
            self.claim(res, route.signal(), k as u32);
        }
    }

    /// Releases every resource of a previously claimed route.
    pub fn release_route(&mut self, route: &Route) {
        for (k, &res) in route.resources().iter().enumerate() {
            self.release(res, route.signal(), k as u32);
        }
    }

    /// The distinct `(signal, phase)` keys currently on `cell` (with
    /// reference counts).
    #[inline]
    pub fn owners(&self, cell: Resource) -> &[((NodeId, u32), u32)] {
        self.owners_at_index(self.mrrg.index_of(cell))
    }

    /// Owners at a dense cell index ([`Mrrg::index_of`]). Reads of
    /// unallocated chunks borrow the shared empty list.
    #[inline]
    pub(crate) fn owners_at_index(&self, idx: usize) -> &[((NodeId, u32), u32)] {
        match &self.cells[idx / CHUNK] {
            Some(chunk) => &chunk[idx % CHUNK],
            None => NO_OWNERS,
        }
    }

    /// Number of distinct `(signal, phase)` keys on `cell`.
    pub fn num_signals(&self, cell: Resource) -> usize {
        self.owners(cell).len()
    }

    /// Whether `cell` is entirely free.
    pub fn is_free(&self, cell: Resource) -> bool {
        self.owners(cell).is_empty()
    }

    /// Whether `(signal, phase)` may use `cell` without creating overuse
    /// (the cell is free or already carries exactly this signal at this
    /// phase).
    #[inline]
    pub fn usable_by(&self, cell: Resource, signal: NodeId, phase: u32) -> bool {
        self.usable_at_index(self.mrrg.index_of(cell), signal, phase)
    }

    /// [`usable_by`](Occupancy::usable_by) at a dense cell index.
    #[inline]
    pub(crate) fn usable_at_index(&self, idx: usize, signal: NodeId, phase: u32) -> bool {
        let owners = self.owners_at_index(idx);
        owners.is_empty() || (owners.len() == 1 && owners[0].0 == (signal, phase))
    }

    /// Whether `signal` (at any phase) is the only occupant, or the cell is
    /// free — the optimistic test Rewire's propagation uses ("the objective
    /// of propagation is to explore potential routing paths rather than
    /// perform final resource allocation").
    #[inline]
    pub fn usable_by_any_phase(&self, cell: Resource, signal: NodeId) -> bool {
        let owners = self.owners(cell);
        owners.is_empty() || owners.iter().all(|((s, _), _)| *s == signal)
    }

    /// Whether more than one `(signal, phase)` key sits on `cell`: two
    /// signals, or one signal at two phases.
    pub fn is_overused(&self, cell: Resource) -> bool {
        self.num_signals(cell) > 1
    }

    /// Sum over all cells of `(distinct keys − 1)` — zero iff the current
    /// state is physically realisable. Walks allocated chunks
    /// only.
    pub fn total_overuse(&self) -> usize {
        self.cells
            .iter()
            .flatten()
            .flat_map(|chunk| chunk.iter())
            .map(|owners| owners.len().saturating_sub(1))
            .sum()
    }

    /// Number of cells carrying at least one signal.
    pub fn used_cells(&self) -> usize {
        self.cells
            .iter()
            .flatten()
            .flat_map(|chunk| chunk.iter())
            .filter(|o| !o.is_empty())
            .count()
    }

    /// Calls `f` with every overused cell and its excess key count
    /// (`distinct keys − 1`). Walks allocated chunks only, like
    /// [`Occupancy::total_overuse`]. This is the congestion-heatmap feed:
    /// forensic sampling needs the `Resource` identity of each hot cell,
    /// not just the total.
    pub fn for_each_overused(&self, mut f: impl FnMut(Resource, u64)) {
        for (c, chunk) in self.cells.iter().enumerate() {
            let Some(chunk) = chunk else { continue };
            for (i, owners) in chunk.iter().enumerate() {
                if owners.len() > 1 {
                    let idx = c * CHUNK + i;
                    f(self.mrrg.resource_of(idx), (owners.len() - 1) as u64);
                }
            }
        }
    }

    /// Calls `f` with the dense index of every overused cell. Skips
    /// unallocated chunks entirely, so congestion bookkeeping (PathFinder
    /// history accumulation) costs O(touched fabric), not O(fabric).
    pub(crate) fn for_each_overused_index(&self, mut f: impl FnMut(usize)) {
        for (c, chunk) in self.cells.iter().enumerate() {
            let Some(chunk) = chunk else { continue };
            for (i, owners) in chunk.iter().enumerate() {
                if owners.len() > 1 {
                    f(c * CHUNK + i);
                }
            }
        }
    }

    /// Clears every claim (used when a mapper restarts an II attempt).
    /// Allocated chunks are kept (emptied, not dropped): a restart reuses
    /// the same fabric region, so re-materialising them would thrash.
    pub fn clear(&mut self) {
        for chunk in self.cells.iter_mut().flatten() {
            for owners in chunk.iter_mut() {
                owners.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::{presets, PeId};

    fn occ() -> Occupancy {
        Occupancy::new(&Mrrg::new(&presets::paper_4x4_r4(), 2))
    }

    fn fu(pe: u32, slot: u32) -> Resource {
        Resource::Fu {
            pe: PeId::new(pe),
            slot,
        }
    }

    #[test]
    fn claim_release_round_trip() {
        let mut o = occ();
        let c = fu(0, 0);
        assert!(o.is_free(c));
        o.claim(c, NodeId::new(5), 0);
        assert!(!o.is_free(c));
        assert!(o.usable_by(c, NodeId::new(5), 0));
        assert!(!o.usable_by(c, NodeId::new(6), 0));
        o.release(c, NodeId::new(5), 0);
        assert!(o.is_free(c));
    }

    #[test]
    fn refcounted_sharing() {
        let mut o = occ();
        let c = fu(1, 1);
        o.claim(c, NodeId::new(2), 3);
        o.claim(c, NodeId::new(2), 3);
        o.release(c, NodeId::new(2), 3);
        assert!(!o.is_free(c), "one reference remains");
        o.release(c, NodeId::new(2), 3);
        assert!(o.is_free(c));
    }

    #[test]
    fn same_signal_different_phase_is_overuse() {
        // Two uses of one cell by the same signal at different ages carry
        // different iterations' values at the same cycle: physically
        // impossible, so it must count as overuse.
        let mut o = occ();
        let c = fu(1, 0);
        o.claim(c, NodeId::new(4), 1);
        assert!(!o.usable_by(c, NodeId::new(4), 3));
        assert!(o.usable_by_any_phase(c, NodeId::new(4)));
        o.claim(c, NodeId::new(4), 3);
        assert!(o.is_overused(c));
    }

    #[test]
    fn overuse_accounting() {
        let mut o = occ();
        let c = fu(2, 0);
        o.claim(c, NodeId::new(0), 0);
        o.claim(c, NodeId::new(1), 0);
        o.claim(c, NodeId::new(2), 0);
        assert_eq!(o.total_overuse(), 2);
        o.release(c, NodeId::new(1), 0);
        o.release(c, NodeId::new(2), 0);
        assert_eq!(o.total_overuse(), 0);
    }

    #[test]
    #[should_panic(expected = "release of unclaimed")]
    fn unbalanced_release_panics() {
        let mut o = occ();
        o.release(fu(0, 0), NodeId::new(9), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut o = occ();
        o.claim(fu(0, 0), NodeId::new(1), 0);
        o.claim(fu(3, 1), NodeId::new(2), 0);
        assert_eq!(o.used_cells(), 2);
        o.clear();
        assert_eq!(o.used_cells(), 0);
    }

    #[test]
    fn chunks_materialise_only_on_claim() {
        // A big-fabric occupancy allocates nothing up front; reads of the
        // untouched fabric stay allocation-free, and one claim allocates
        // exactly one chunk.
        let cgra = rewire_arch::CgraBuilder::new(64, 64).build().unwrap();
        let mrrg = Mrrg::new(&cgra, 4);
        let mut o = Occupancy::new(&mrrg);
        assert_eq!(o.allocated_chunks(), 0);
        assert_eq!(o.total_overuse(), 0);
        assert_eq!(o.used_cells(), 0);
        let far = Resource::Fu {
            pe: cgra.pes().last().unwrap().id(),
            slot: 3,
        };
        assert!(o.is_free(far), "reads never allocate");
        assert!(o.usable_by(far, NodeId::new(0), 0));
        assert_eq!(o.allocated_chunks(), 0);
        o.claim(far, NodeId::new(0), 0);
        assert_eq!(o.allocated_chunks(), 1);
        assert_eq!(o.used_cells(), 1);
        o.release(far, NodeId::new(0), 0);
        assert!(o.is_free(far));
    }

    #[test]
    fn clear_keeps_materialised_chunks() {
        let mut o = occ();
        o.claim(fu(0, 0), NodeId::new(1), 0);
        let chunks = o.allocated_chunks();
        assert!(chunks > 0);
        o.clear();
        assert_eq!(o.used_cells(), 0);
        assert_eq!(o.allocated_chunks(), chunks, "restart reuses chunks");
    }

    #[test]
    #[should_panic(expected = "release of unclaimed")]
    fn release_into_unallocated_chunk_panics() {
        let cgra = rewire_arch::CgraBuilder::new(16, 16).build().unwrap();
        let mrrg = Mrrg::new(&cgra, 2);
        let mut o = Occupancy::new(&mrrg);
        o.release(
            Resource::Fu {
                pe: cgra.pes().last().unwrap().id(),
                slot: 1,
            },
            NodeId::new(3),
            0,
        );
    }

    #[test]
    fn overused_walk_matches_dense_semantics() {
        let mut o = occ();
        let hot = fu(2, 0);
        o.claim(hot, NodeId::new(0), 0);
        o.claim(hot, NodeId::new(1), 0);
        o.claim(fu(0, 1), NodeId::new(2), 0);
        let mut seen = Vec::new();
        o.for_each_overused_index(|idx| seen.push(idx));
        assert_eq!(seen, vec![o.mrrg().index_of(hot)]);
    }

    #[test]
    fn public_overused_walk_yields_resources_and_excess() {
        let mut o = occ();
        let hot = fu(2, 0);
        o.claim(hot, NodeId::new(0), 0);
        o.claim(hot, NodeId::new(1), 0);
        o.claim(hot, NodeId::new(2), 0);
        o.claim(fu(0, 1), NodeId::new(3), 0);
        let mut seen = Vec::new();
        o.for_each_overused(|res, excess| seen.push((res, excess)));
        assert_eq!(seen, vec![(hot, 2)]);
    }
}
