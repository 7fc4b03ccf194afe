//! DFG edges.

use crate::NodeId;
use std::fmt;

/// Identifier of an edge within a [`Dfg`](crate::Dfg).
///
/// Dense indices in `0..dfg.num_edges()`, assigned in insertion order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an `EdgeId` from a raw dense index.
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Returns the dense index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u32> for EdgeId {
    fn from(index: u32) -> Self {
        Self::new(index)
    }
}

/// A data dependency `src → dst` consumed `distance` iterations later.
///
/// Distance 0 is an ordinary intra-iteration dependency. Distance `d ≥ 1`
/// is loop-carried: with initiation interval `II`, the value produced at
/// schedule time `t_src` must reach the consumer at `t_dst + d·II`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DfgEdge {
    id: EdgeId,
    src: NodeId,
    dst: NodeId,
    distance: u32,
}

impl DfgEdge {
    pub(crate) fn new(id: EdgeId, src: NodeId, dst: NodeId, distance: u32) -> Self {
        Self {
            id,
            src,
            dst,
            distance,
        }
    }

    /// Dense identifier of this edge.
    pub fn id(&self) -> EdgeId {
        self.id
    }

    /// The producing node.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The consuming node.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Iteration distance (0 = intra-iteration).
    pub fn distance(&self) -> u32 {
        self.distance
    }

    /// Whether this is a loop-carried dependency.
    pub fn is_loop_carried(&self) -> bool {
        self.distance > 0
    }
}

impl fmt::Display for DfgEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.distance == 0 {
            write!(f, "{}: {}→{}", self.id, self.src, self.dst)
        } else {
            write!(
                f,
                "{}: {}→{} [d={}]",
                self.id, self.src, self.dst, self.distance
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_accessors() {
        let e = DfgEdge::new(EdgeId::new(0), NodeId::new(1), NodeId::new(2), 1);
        assert_eq!(e.src(), NodeId::new(1));
        assert_eq!(e.dst(), NodeId::new(2));
        assert!(e.is_loop_carried());
        assert_eq!(format!("{e}"), "e0: n1→n2 [d=1]");
    }

    #[test]
    fn intra_edge_display_omits_distance() {
        let e = DfgEdge::new(EdgeId::new(3), NodeId::new(0), NodeId::new(1), 0);
        assert!(!e.is_loop_carried());
        assert_eq!(format!("{e}"), "e3: n0→n1");
    }
}
