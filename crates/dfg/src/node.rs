//! DFG nodes.

use rewire_arch::OpKind;
use std::fmt;

/// Identifier of a node within a [`Dfg`](crate::Dfg).
///
/// Dense indices in `0..dfg.num_nodes()`, assigned in insertion order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a `NodeId` from a raw dense index.
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Returns the dense index, suitable for indexing side tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        Self::new(index)
    }
}

/// A DFG operation node.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DfgNode {
    id: NodeId,
    name: String,
    op: OpKind,
}

impl DfgNode {
    pub(crate) fn new(id: NodeId, name: impl Into<String>, op: OpKind) -> Self {
        Self {
            id,
            name: name.into(),
            op,
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Human-readable name (unique within a well-formed DFG, e.g. `ld_a3`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operation this node performs.
    pub fn op(&self) -> OpKind {
        self.op
    }
}

impl fmt::Display for DfgNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}({})", self.id, self.name, self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips() {
        let id = NodeId::new(9);
        assert_eq!(id.index(), 9);
        assert_eq!(format!("{id}"), "n9");
    }

    #[test]
    fn node_accessors() {
        let n = DfgNode::new(NodeId::new(0), "ld_a", OpKind::Load);
        assert_eq!(n.name(), "ld_a");
        assert_eq!(n.op(), OpKind::Load);
        assert_eq!(format!("{n}"), "n0:ld_a(ld)");
    }
}
