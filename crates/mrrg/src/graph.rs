//! MRRG dimensions and dense cell indexing.

use crate::Resource;
use rewire_arch::{Cgra, LinkId, PeId};
use std::fmt;

/// The shape of a time-extended resource graph: the architecture's resource
/// counts crossed with an initiation interval.
///
/// `Mrrg` owns no per-cell state (that is [`Occupancy`](crate::Occupancy));
/// it provides dense indexing so occupancy and cost tables are flat arrays.
///
/// # Examples
///
/// ```
/// use rewire_arch::presets;
/// use rewire_mrrg::Mrrg;
/// let cgra = presets::paper_4x4_r4();
/// let mrrg = Mrrg::new(&cgra, 3);
/// assert_eq!(mrrg.ii(), 3);
/// // 16 FUs + 48 links + 64 registers, each × 3 slots.
/// assert_eq!(mrrg.num_cells(), (16 + 48 + 64) * 3);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Mrrg {
    ii: u32,
    num_pes: usize,
    num_links: usize,
    regs_per_pe: u8,
}

impl Mrrg {
    /// Builds the MRRG shape for `cgra` at initiation interval `ii`.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn new(cgra: &Cgra, ii: u32) -> Self {
        assert!(ii > 0, "initiation interval must be at least 1");
        Self {
            ii,
            num_pes: cgra.num_pes(),
            num_links: cgra.num_links(),
            regs_per_pe: cgra.regs_per_pe(),
        }
    }

    /// The initiation interval this graph is extended to.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Number of PEs (FU rows).
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Registers per PE.
    pub fn regs_per_pe(&self) -> u8 {
        self.regs_per_pe
    }

    /// Total number of cells across all three resource classes.
    pub fn num_cells(&self) -> usize {
        (self.num_pes + self.num_links + self.num_pes * self.regs_per_pe as usize)
            * self.ii as usize
    }

    /// Reduces an absolute schedule cycle to its modulo slot.
    pub fn slot_of(&self, abs_cycle: u32) -> u32 {
        abs_cycle % self.ii
    }

    /// Dense index of a cell, for flat side tables of length
    /// [`num_cells`](Mrrg::num_cells).
    ///
    /// The layout is FU cells, then link cells, then register cells, each
    /// entity's `ii` slots contiguous — the arithmetic the router's DP
    /// computes link and register indices with directly.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the cell's entity or slot is out of range for
    /// this shape; release builds skip the check (an out-of-range cell
    /// then aliases another index or overruns the side table).
    #[inline]
    pub fn index_of(&self, res: Resource) -> usize {
        let ii = self.ii as usize;
        match res {
            Resource::Fu { pe, slot } => {
                debug_assert!(pe.index() < self.num_pes && (slot as usize) < ii, "{res}");
                pe.index() * ii + slot as usize
            }
            Resource::Link { link, slot } => {
                debug_assert!(
                    link.index() < self.num_links && (slot as usize) < ii,
                    "{res}"
                );
                self.link_cells() + link.index() * ii + slot as usize
            }
            Resource::Reg { pe, reg, slot } => {
                debug_assert!(
                    pe.index() < self.num_pes && reg < self.regs_per_pe && (slot as usize) < ii,
                    "{res}"
                );
                self.reg_cells()
                    + (pe.index() * self.regs_per_pe as usize + reg as usize) * ii
                    + slot as usize
            }
        }
    }

    /// Dense index of the first link cell (`Link { link: 0, slot: 0 }`):
    /// link `l` at slot `s` is `link_cells() + l·ii + s`.
    #[inline]
    pub(crate) fn link_cells(&self) -> usize {
        self.num_pes * self.ii as usize
    }

    /// Dense index of the first register cell: register `r` of PE `p` at
    /// slot `s` is `reg_cells() + (p·regs_per_pe + r)·ii + s`.
    #[inline]
    pub(crate) fn reg_cells(&self) -> usize {
        (self.num_pes + self.num_links) * self.ii as usize
    }

    /// Whether the dense index `idx` is a register cell.
    #[inline]
    pub(crate) fn is_reg_index(&self, idx: usize) -> bool {
        idx >= self.reg_cells()
    }

    /// Inverse of [`index_of`](Mrrg::index_of): the resource cell at a
    /// dense arena index.
    ///
    /// Together with `index_of` this makes the dense index space a true
    /// arena: flat side tables (cost overlays, occupancy, history) can be
    /// walked by index and decoded back to cells without hashing.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.num_cells()`.
    pub fn resource_of(&self, idx: usize) -> Resource {
        assert!(
            idx < self.num_cells(),
            "cell index {idx} out of range for {self}"
        );
        let ii = self.ii as usize;
        let fu_cells = self.num_pes * ii;
        let link_cells = self.num_links * ii;
        if idx < fu_cells {
            Resource::Fu {
                pe: PeId::new((idx / ii) as u32),
                slot: (idx % ii) as u32,
            }
        } else if idx < fu_cells + link_cells {
            let rel = idx - fu_cells;
            Resource::Link {
                link: LinkId::new((rel / ii) as u32),
                slot: (rel % ii) as u32,
            }
        } else {
            let rel = idx - fu_cells - link_cells;
            let entity = rel / ii;
            let regs = self.regs_per_pe as usize;
            Resource::Reg {
                pe: PeId::new((entity / regs) as u32),
                reg: (entity % regs) as u8,
                slot: (rel % ii) as u32,
            }
        }
    }
}

impl fmt::Display for Mrrg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MRRG II={} ({} PEs, {} links, {} regs/PE, {} cells)",
            self.ii,
            self.num_pes,
            self.num_links,
            self.regs_per_pe,
            self.num_cells()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::{presets, LinkId, PeId};

    fn mrrg() -> Mrrg {
        Mrrg::new(&presets::paper_4x4_r2(), 3)
    }

    #[test]
    fn indices_are_dense_and_unique() {
        let m = mrrg();
        let mut seen = vec![false; m.num_cells()];
        for pe in 0..m.num_pes() as u32 {
            for slot in 0..m.ii() {
                let i = m.index_of(Resource::Fu {
                    pe: PeId::new(pe),
                    slot,
                });
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        for link in 0..m.num_links() as u32 {
            for slot in 0..m.ii() {
                let i = m.index_of(Resource::Link {
                    link: LinkId::new(link),
                    slot,
                });
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        for pe in 0..m.num_pes() as u32 {
            for reg in 0..m.regs_per_pe() {
                for slot in 0..m.ii() {
                    let i = m.index_of(Resource::Reg {
                        pe: PeId::new(pe),
                        reg,
                        slot,
                    });
                    assert!(!seen[i]);
                    seen[i] = true;
                }
            }
        }
        assert!(seen.into_iter().all(|b| b), "every cell index covered");
    }

    #[test]
    fn resource_of_inverts_index_of() {
        let m = mrrg();
        for idx in 0..m.num_cells() {
            assert_eq!(m.index_of(m.resource_of(idx)), idx);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn resource_of_out_of_range_panics() {
        let m = mrrg();
        m.resource_of(m.num_cells());
    }

    #[test]
    fn slot_reduction() {
        let m = mrrg();
        assert_eq!(m.slot_of(0), 0);
        assert_eq!(m.slot_of(3), 0);
        assert_eq!(m.slot_of(7), 1);
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_ii_panics() {
        Mrrg::new(&presets::paper_4x4_r4(), 0);
    }

    // The range check is a debug assertion: release builds index unchecked.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn out_of_range_cell_panics() {
        let m = mrrg();
        m.index_of(Resource::Reg {
            pe: PeId::new(0),
            reg: 7,
            slot: 0,
        });
    }
}
