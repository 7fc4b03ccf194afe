//! Directed NoC links between neighbouring PEs.

use crate::{LinkId, PeId};
use std::fmt;

/// Compass direction of a mesh link, from the source PE's point of view.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Direction {
    /// Towards row − 1.
    North,
    /// Towards col + 1.
    East,
    /// Towards row + 1.
    South,
    /// Towards col − 1.
    West,
    /// Towards row − 1, col + 1 (diagonal interconnects only).
    NorthEast,
    /// Towards row − 1, col − 1.
    NorthWest,
    /// Towards row + 1, col + 1.
    SouthEast,
    /// Towards row + 1, col − 1.
    SouthWest,
}

impl Direction {
    /// All eight directions (orthogonal first, then diagonal).
    pub const ALL: [Direction; 8] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
        Direction::NorthEast,
        Direction::NorthWest,
        Direction::SouthEast,
        Direction::SouthWest,
    ];

    /// The opposite direction.
    ///
    /// # Examples
    ///
    /// ```
    /// use rewire_arch::Direction;
    /// assert_eq!(Direction::North.opposite(), Direction::South);
    /// assert_eq!(Direction::East.opposite(), Direction::West);
    /// ```
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
            Direction::NorthEast => Direction::SouthWest,
            Direction::NorthWest => Direction::SouthEast,
            Direction::SouthEast => Direction::NorthWest,
            Direction::SouthWest => Direction::NorthEast,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
            Direction::NorthEast => "NE",
            Direction::NorthWest => "NW",
            Direction::SouthEast => "SE",
            Direction::SouthWest => "SW",
        };
        f.write_str(s)
    }
}

/// A directed single-hop NoC link `src → dst`.
///
/// A value departing on a link at cycle `t` arrives at the destination PE at
/// cycle `t + 1`; this single-cycle-per-hop latency is the timing contract
/// every router in the workspace assumes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Link {
    id: LinkId,
    src: PeId,
    dst: PeId,
    direction: Direction,
}

impl Link {
    pub(crate) fn new(id: LinkId, src: PeId, dst: PeId, direction: Direction) -> Self {
        Self {
            id,
            src,
            dst,
            direction,
        }
    }

    /// Dense identifier of this link.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// The PE the value departs from.
    pub fn src(&self) -> PeId {
        self.src
    }

    /// The PE the value arrives at (one cycle later).
    pub fn dst(&self) -> PeId {
        self.dst
    }

    /// Compass direction of the hop.
    pub fn direction(&self) -> Direction {
        self.direction
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}→{}", self.id, self.src, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_is_involutive() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn link_accessors() {
        let l = Link::new(LinkId::new(0), PeId::new(1), PeId::new(2), Direction::East);
        assert_eq!(l.src(), PeId::new(1));
        assert_eq!(l.dst(), PeId::new(2));
        assert_eq!(l.direction(), Direction::East);
        assert_eq!(format!("{l}"), "L0:PE1→PE2");
    }
}
