//! Processing element description.

use crate::{Coord, OpKind, PeId};
use std::fmt;

/// A single processing element of the CGRA.
///
/// Every PE contains one single-issue ALU and `regs` register cells used to
/// buffer values that are being routed through or held across cycles. PEs in
/// memory-capable columns additionally own a port into the on-chip memory
/// banks and are the only legal placements for [`OpKind::Load`] /
/// [`OpKind::Store`] nodes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Pe {
    id: PeId,
    coord: Coord,
    memory_capable: bool,
    regs: u8,
}

impl Pe {
    pub(crate) fn new(id: PeId, coord: Coord, memory_capable: bool, regs: u8) -> Self {
        Self {
            id,
            coord,
            memory_capable,
            regs,
        }
    }

    /// The dense identifier of this PE.
    pub fn id(&self) -> PeId {
        self.id
    }

    /// Grid position of this PE.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// Whether this PE can issue memory operations.
    pub fn memory_capable(&self) -> bool {
        self.memory_capable
    }

    /// Number of register cells available for routing/buffering per cycle.
    pub fn regs(&self) -> u8 {
        self.regs
    }

    /// Whether `op` may legally execute on this PE.
    ///
    /// # Examples
    ///
    /// ```
    /// use rewire_arch::{presets, OpKind};
    /// let cgra = presets::paper_4x4_r4();
    /// let mem_pe = cgra.pe_at((0, 0).into()).unwrap();
    /// let inner_pe = cgra.pe_at((0, 2).into()).unwrap();
    /// assert!(mem_pe.supports(OpKind::Load));
    /// assert!(!inner_pe.supports(OpKind::Load));
    /// assert!(inner_pe.supports(OpKind::Mul));
    /// ```
    pub fn supports(&self, op: OpKind) -> bool {
        !op.is_memory() || self.memory_capable
    }
}

impl fmt::Display for Pe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}{}",
            self.id,
            self.coord,
            if self.memory_capable { " [mem]" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_support_depends_on_capability() {
        let mem = Pe::new(PeId::new(0), Coord::new(0, 0), true, 4);
        let plain = Pe::new(PeId::new(1), Coord::new(0, 1), false, 4);
        assert!(mem.supports(OpKind::Store));
        assert!(!plain.supports(OpKind::Store));
        assert!(plain.supports(OpKind::Add));
    }

    #[test]
    fn display_marks_memory_pes() {
        let mem = Pe::new(PeId::new(0), Coord::new(0, 0), true, 4);
        assert!(format!("{mem}").contains("[mem]"));
        let plain = Pe::new(PeId::new(1), Coord::new(0, 1), false, 4);
        assert!(!format!("{plain}").contains("[mem]"));
    }
}
