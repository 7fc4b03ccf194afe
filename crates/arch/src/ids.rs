//! Strongly-typed identifiers for architecture entities.

use std::fmt;

/// Identifier of a processing element within a [`Cgra`](crate::Cgra).
///
/// `PeId`s are dense indices in `0..cgra.num_pes()`, assigned row-major
/// (row 0 first, left to right), so they can index into side tables.
///
/// # Examples
///
/// ```
/// use rewire_arch::presets;
/// let cgra = presets::paper_4x4_r4();
/// let pe = cgra.pe_at((1, 2).into()).unwrap();
/// assert_eq!(pe.id().index(), 1 * 4 + 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeId(u32);

impl PeId {
    /// Creates a `PeId` from a raw dense index.
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Returns the dense index, suitable for indexing side tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

impl From<u32> for PeId {
    fn from(index: u32) -> Self {
        Self::new(index)
    }
}

/// Identifier of a directed NoC link.
///
/// Dense indices in `0..cgra.num_links()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(u32);

impl LinkId {
    /// Creates a `LinkId` from a raw dense index.
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Returns the dense index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl From<u32> for LinkId {
    fn from(index: u32) -> Self {
        Self::new(index)
    }
}

/// Grid coordinate of a PE: `(row, col)`, row 0 at the top.
///
/// # Examples
///
/// ```
/// use rewire_arch::Coord;
/// let c = Coord::new(1, 2);
/// assert_eq!((c.row, c.col), (1, 2));
/// assert_eq!(Coord::from((1, 2)), c);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Coord {
    /// Row index (0 = top row).
    pub row: u16,
    /// Column index (0 = left-most column).
    pub col: u16,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(row: u16, col: u16) -> Self {
        Self { row, col }
    }

    /// Manhattan distance to another coordinate.
    ///
    /// This is the minimum number of single-hop NoC traversals between the
    /// two PEs on an orthogonal mesh, which mappers use as a routing-cost
    /// lower bound.
    pub fn manhattan(self, other: Coord) -> u32 {
        self.row.abs_diff(other.row) as u32 + self.col.abs_diff(other.col) as u32
    }

    /// Chebyshev (king-move) distance — the hop lower bound on fabrics
    /// with diagonal links.
    pub fn chebyshev(self, other: Coord) -> u32 {
        (self.row.abs_diff(other.row) as u32).max(self.col.abs_diff(other.col) as u32)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

impl From<(u16, u16)> for Coord {
    fn from((row, col): (u16, u16)) -> Self {
        Self { row, col }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_id_round_trips() {
        let id = PeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "PE7");
        assert_eq!(PeId::from(7u32), id);
    }

    #[test]
    fn link_id_round_trips() {
        let id = LinkId::new(3);
        assert_eq!(id.index(), 3);
        assert_eq!(format!("{id}"), "L3");
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 4)), 7);
        assert_eq!(Coord::new(2, 2).manhattan(Coord::new(2, 2)), 0);
        assert_eq!(Coord::new(5, 1).manhattan(Coord::new(1, 5)), 8);
    }

    #[test]
    fn chebyshev_distance() {
        assert_eq!(Coord::new(0, 0).chebyshev(Coord::new(3, 4)), 4);
        assert_eq!(Coord::new(2, 2).chebyshev(Coord::new(2, 2)), 0);
    }

    #[test]
    fn coord_display() {
        assert_eq!(format!("{}", Coord::new(1, 2)), "(1,2)");
    }
}
