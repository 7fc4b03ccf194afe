//! The DFG container and structural queries.

use crate::{DfgEdge, DfgNode, EdgeId, NodeId};
use rewire_arch::OpKind;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Error produced by [`Dfg`] mutation and validation.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint does not exist in the graph.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes currently in the graph.
        len: usize,
    },
    /// A self-loop with distance 0 (a node cannot depend on itself within one
    /// iteration).
    IntraIterationSelfLoop(NodeId),
    /// The intra-iteration (distance-0) subgraph contains a cycle, so no
    /// schedule exists.
    IntraIterationCycle,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, len } => {
                write!(
                    f,
                    "node {node} is out of range for a graph with {len} nodes"
                )
            }
            GraphError::IntraIterationSelfLoop(n) => {
                write!(f, "node {n} has an intra-iteration self-loop")
            }
            GraphError::IntraIterationCycle => {
                f.write_str("intra-iteration dependencies form a cycle")
            }
        }
    }
}

impl Error for GraphError {}

/// A data-flow graph: the loop body a mapper places onto a CGRA.
///
/// Structurally a directed multigraph; the distance-0 subgraph must be
/// acyclic (checked by [`validate`](Dfg::validate) and by every analysis that
/// needs a topological order).
///
/// # Examples
///
/// ```
/// use rewire_arch::OpKind;
/// use rewire_dfg::Dfg;
/// # fn main() -> Result<(), rewire_dfg::GraphError> {
/// let mut dfg = Dfg::new("acc");
/// let phi = dfg.add_node("phi", OpKind::Phi);
/// let ld = dfg.add_node("ld", OpKind::Load);
/// let add = dfg.add_node("add", OpKind::Add);
/// dfg.add_edge(phi, add, 0)?;
/// dfg.add_edge(ld, add, 0)?;
/// dfg.add_edge(add, phi, 1)?; // loop-carried accumulator
/// assert_eq!(dfg.rec_mii(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Dfg {
    name: String,
    nodes: Vec<DfgNode>,
    edges: Vec<DfgEdge>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
}

impl Dfg {
    /// Creates an empty DFG with the given kernel name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        }
    }

    /// Kernel name, e.g. `"gesummv"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the kernel (used by transforms, e.g. unrolling appends `(u)`).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, op: OpKind) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(DfgNode::new(id, name, op));
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Adds a dependency edge `src → dst` with the given iteration distance.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if either endpoint is unknown,
    /// or [`GraphError::IntraIterationSelfLoop`] for a distance-0 self-loop.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        distance: u32,
    ) -> Result<EdgeId, GraphError> {
        for n in [src, dst] {
            if n.index() >= self.nodes.len() {
                return Err(GraphError::NodeOutOfRange {
                    node: n,
                    len: self.nodes.len(),
                });
            }
        }
        if src == dst && distance == 0 {
            return Err(GraphError::IntraIterationSelfLoop(src));
        }
        let id = EdgeId::new(self.edges.len() as u32);
        self.edges.push(DfgEdge::new(id, src, dst, distance));
        self.out_edges[src.index()].push(id);
        self.in_edges[dst.index()].push(id);
        Ok(id)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &DfgNode {
        &self.nodes[id.index()]
    }

    /// Looks up an edge.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> &DfgEdge {
        &self.edges[id.index()]
    }

    /// Finds a node by name (linear scan; names are unique in the bundled
    /// kernels but uniqueness is not enforced).
    pub fn node_by_name(&self, name: &str) -> Option<&DfgNode> {
        self.nodes.iter().find(|n| n.name() == name)
    }

    /// Iterates over all nodes in id order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = &DfgNode> + '_ {
        self.nodes.iter()
    }

    /// Iterates over all node ids in id order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + 'static {
        (0..self.nodes.len() as u32).map(NodeId::new)
    }

    /// Iterates over all edges in id order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = &DfgEdge> + '_ {
        self.edges.iter()
    }

    /// Iterates over the outgoing edges of `node`.
    pub fn out_edges(&self, node: NodeId) -> impl ExactSizeIterator<Item = &DfgEdge> + '_ {
        self.out_edges[node.index()].iter().map(|&e| self.edge(e))
    }

    /// Iterates over the incoming edges of `node`.
    pub fn in_edges(&self, node: NodeId) -> impl ExactSizeIterator<Item = &DfgEdge> + '_ {
        self.in_edges[node.index()].iter().map(|&e| self.edge(e))
    }

    /// Iterates over the distinct parents (producers feeding `node`).
    pub fn parents(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut seen = vec![];
        self.in_edges(node).filter_map(move |e| {
            if seen.contains(&e.src()) {
                None
            } else {
                seen.push(e.src());
                Some(e.src())
            }
        })
    }

    /// Iterates over the distinct children (consumers of `node`).
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut seen = vec![];
        self.out_edges(node).filter_map(move |e| {
            if seen.contains(&e.dst()) {
                None
            } else {
                seen.push(e.dst());
                Some(e.dst())
            }
        })
    }

    /// Distinct undirected neighbours of `node` (parents ∪ children).
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.parents(node).collect();
        for c in self.children(node) {
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// Validates structural invariants: the distance-0 subgraph is acyclic.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::IntraIterationCycle`] if a distance-0 cycle
    /// exists.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.try_topo_order().map(|_| ())
    }

    /// Topological order of the nodes over intra-iteration (distance-0)
    /// edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::IntraIterationCycle`] if no order exists.
    pub fn try_topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            if e.distance() == 0 {
                indegree[e.dst().index()] += 1;
            }
        }
        let mut queue: VecDeque<NodeId> = self
            .node_ids()
            .filter(|v| indegree[v.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for e in self.out_edges(v) {
                if e.distance() == 0 {
                    let d = &mut indegree[e.dst().index()];
                    *d -= 1;
                    if *d == 0 {
                        queue.push_back(e.dst());
                    }
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(GraphError::IntraIterationCycle)
        }
    }

    /// Topological order over intra-iteration edges.
    ///
    /// # Panics
    ///
    /// Panics if the intra-iteration subgraph is cyclic; call
    /// [`validate`](Dfg::validate) first for untrusted graphs.
    pub fn topo_order(&self) -> Vec<NodeId> {
        self.try_topo_order()
            .expect("intra-iteration subgraph must be acyclic")
    }

    /// Length (in edges) of the longest intra-iteration path.
    ///
    /// This is the critical-path depth of one loop iteration; Rewire's
    /// propagation-round heuristic uses the longest path *within a cluster*,
    /// for which see [`longest_path_within`](Dfg::longest_path_within).
    pub fn longest_path(&self) -> u32 {
        let order = self.topo_order();
        let mut depth = vec![0u32; self.nodes.len()];
        let mut best = 0;
        for v in order {
            for e in self.out_edges(v) {
                if e.distance() == 0 {
                    let cand = depth[v.index()] + 1;
                    if cand > depth[e.dst().index()] {
                        depth[e.dst().index()] = cand;
                        best = best.max(cand);
                    }
                }
            }
        }
        best
    }

    /// Length of the longest intra-iteration path that stays inside `members`.
    pub fn longest_path_within(&self, members: &[NodeId]) -> u32 {
        let order = self.topo_order();
        let mut depth = vec![0u32; self.nodes.len()];
        let mut best = 0;
        for v in order {
            if !members.contains(&v) {
                continue;
            }
            for e in self.out_edges(v) {
                if e.distance() == 0 && members.contains(&e.dst()) {
                    let cand = depth[v.index()] + 1;
                    if cand > depth[e.dst().index()] {
                        depth[e.dst().index()] = cand;
                        best = best.max(cand);
                    }
                }
            }
        }
        best
    }

    /// Undirected hop distance from `from` to the nearest node in `targets`,
    /// or `None` if unreachable. Used by Rewire's cluster-growth policy
    /// ("append the node with the least DFS distance to the cluster").
    pub fn hop_distance_to_set(&self, from: NodeId, targets: &[NodeId]) -> Option<u32> {
        if targets.contains(&from) {
            return Some(0);
        }
        let mut dist = vec![u32::MAX; self.nodes.len()];
        dist[from.index()] = 0;
        let mut queue = VecDeque::from([from]);
        while let Some(v) = queue.pop_front() {
            for u in self.neighbors(v) {
                if dist[u.index()] == u32::MAX {
                    dist[u.index()] = dist[v.index()] + 1;
                    if targets.contains(&u) {
                        return Some(dist[u.index()]);
                    }
                    queue.push_back(u);
                }
            }
        }
        None
    }

    /// Whether the graph is weakly connected (ignoring edge direction).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = VecDeque::from([NodeId::new(0)]);
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for u in self.neighbors(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    count += 1;
                    queue.push_back(u);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Number of memory-class nodes (loads + stores).
    pub fn num_memory_ops(&self) -> usize {
        self.nodes.iter().filter(|n| n.op().is_memory()).count()
    }
}

impl fmt::Display for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DFG '{}' ({} nodes, {} edges, {} mem ops)",
            self.name,
            self.num_nodes(),
            self.num_edges(),
            self.num_memory_ops()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Dfg, [NodeId; 4]) {
        let mut g = Dfg::new("diamond");
        let a = g.add_node("a", OpKind::Load);
        let b = g.add_node("b", OpKind::Add);
        let c = g.add_node("c", OpKind::Mul);
        let d = g.add_node("d", OpKind::Store);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(a, c, 0).unwrap();
        g.add_edge(b, d, 0).unwrap();
        g.add_edge(c, d, 0).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, _) = diamond();
        let order = g.topo_order();
        let pos = |v: NodeId| order.iter().position(|&x| x == v).unwrap();
        for e in g.edges() {
            assert!(pos(e.src()) < pos(e.dst()), "{e}");
        }
    }

    #[test]
    fn cycle_detected() {
        let mut g = Dfg::new("cyclic");
        let a = g.add_node("a", OpKind::Add);
        let b = g.add_node("b", OpKind::Add);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 0).unwrap();
        assert_eq!(g.validate().unwrap_err(), GraphError::IntraIterationCycle);
    }

    #[test]
    fn loop_carried_cycle_is_fine() {
        let mut g = Dfg::new("rec");
        let a = g.add_node("a", OpKind::Phi);
        let b = g.add_node("b", OpKind::Add);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 1).unwrap();
        assert!(g.validate().is_ok());
    }

    #[test]
    fn self_loop_rules() {
        let mut g = Dfg::new("s");
        let a = g.add_node("a", OpKind::Add);
        assert!(matches!(
            g.add_edge(a, a, 0),
            Err(GraphError::IntraIterationSelfLoop(_))
        ));
        assert!(g.add_edge(a, a, 1).is_ok());
    }

    #[test]
    fn bad_endpoint_rejected() {
        let mut g = Dfg::new("s");
        let a = g.add_node("a", OpKind::Add);
        let ghost = NodeId::new(7);
        assert!(matches!(
            g.add_edge(a, ghost, 0),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn parents_and_children_dedup() {
        let mut g = Dfg::new("sq");
        let a = g.add_node("a", OpKind::Load);
        let m = g.add_node("m", OpKind::Mul);
        g.add_edge(a, m, 0).unwrap(); // a*a: two operand edges
        g.add_edge(a, m, 0).unwrap();
        assert_eq!(g.parents(m).count(), 1);
        assert_eq!(g.children(a).count(), 1);
        assert_eq!(g.in_edges(m).count(), 2);
    }

    #[test]
    fn longest_path_of_diamond_is_two() {
        let (g, _) = diamond();
        assert_eq!(g.longest_path(), 2);
    }

    #[test]
    fn longest_path_within_subset() {
        let (g, [a, b, _c, d]) = diamond();
        assert_eq!(g.longest_path_within(&[a, b, d]), 2);
        assert_eq!(g.longest_path_within(&[a, d]), 0); // no direct edge
    }

    #[test]
    fn hop_distance() {
        let (g, [a, _b, _c, d]) = diamond();
        assert_eq!(g.hop_distance_to_set(a, &[d]), Some(2));
        assert_eq!(g.hop_distance_to_set(a, &[a]), Some(0));
    }

    #[test]
    fn hop_distance_unreachable() {
        let mut g = Dfg::new("two-islands");
        let a = g.add_node("a", OpKind::Add);
        let b = g.add_node("b", OpKind::Add);
        assert_eq!(g.hop_distance_to_set(a, &[b]), None);
        assert!(!g.is_connected());
    }

    #[test]
    fn connectivity() {
        let (g, _) = diamond();
        assert!(g.is_connected());
        assert!(Dfg::new("empty").is_connected());
    }

    #[test]
    fn memory_op_count() {
        let (g, _) = diamond();
        assert_eq!(g.num_memory_ops(), 2);
    }

    #[test]
    fn display_summarises() {
        let (g, _) = diamond();
        let s = format!("{g}");
        assert!(s.contains("diamond"));
        assert!(s.contains("4 nodes"));
    }
}
