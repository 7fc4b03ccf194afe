//! The mapping state shared by every mapper in the workspace.

use rewire_arch::{Cgra, PeId};
use rewire_dfg::{Dfg, EdgeId, NodeId};
use rewire_mrrg::{Mrrg, Occupancy, Resource, Route, RouteRequest};
use std::fmt;
use std::sync::Arc;

/// A (possibly partial, possibly overused) mapping of a DFG onto a CGRA at
/// a fixed initiation interval.
///
/// A `Mapping` tracks, per node, the placement `(PE, absolute schedule
/// time)` and, per edge, the committed [`Route`]. All resource claims go
/// through an internal [`Occupancy`], which tolerates overuse so that
/// negotiation-style mappers can explore; [`validate`](Mapping::validate)
/// decides whether the state is a physically realisable mapping.
///
/// # Examples
///
/// ```
/// use rewire_arch::{presets, OpKind};
/// use rewire_dfg::Dfg;
/// use rewire_mappers::Mapping;
/// use rewire_mrrg::{Mrrg, Router, UnitCost};
///
/// let cgra = presets::paper_4x4_r4();
/// let mut dfg = Dfg::new("pair");
/// let a = dfg.add_node("a", OpKind::Add);
/// let b = dfg.add_node("b", OpKind::Add);
/// let e = dfg.add_edge(a, b, 0)?;
///
/// let mrrg = Mrrg::new(&cgra, 2);
/// let mut m = Mapping::new(&dfg, &mrrg);
/// let p0 = cgra.pe_at((0, 0).into()).unwrap().id();
/// let p1 = cgra.pe_at((0, 1).into()).unwrap().id();
/// m.place(a, p0, 0);
/// m.place(b, p1, 1);
///
/// let router = Router::new(&cgra, &mrrg);
/// let req = m.request_for(&dfg, e).unwrap();
/// let route = router.route(m.occupancy(), &req, &UnitCost)?;
/// m.set_route(e, route);
/// assert!(m.validate(&dfg, &cgra).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Mapping {
    // One shared MRRG handle between the mapping and its occupancy table;
    // cloning a mapping (Rewire's restarts from the initial mapping)
    // copies only the handle.
    mrrg: Arc<Mrrg>,
    pes: Vec<Option<PeId>>,
    times: Vec<Option<u32>>,
    routes: Vec<Option<Route>>,
    occ: Occupancy,
}

/// One defect found by [`Mapping::validate`].
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum MappingIssue {
    /// A node has no placement.
    NodeUnplaced(NodeId),
    /// A node sits on a PE that cannot execute its operation.
    UnsupportedPe {
        /// The misplaced node.
        node: NodeId,
        /// The incapable PE.
        pe: PeId,
    },
    /// An edge has no committed route.
    EdgeUnrouted(EdgeId),
    /// An edge's route does not match the current placement of its
    /// endpoints (stale after a move).
    RouteMismatch(EdgeId),
    /// An edge's timing is impossible (`arrive < depart`).
    TimingViolation(EdgeId),
    /// Distinct signals share cells: the state is not physically
    /// realisable.
    Overuse {
        /// Total `(signals − 1)` across all cells.
        amount: usize,
    },
}

impl fmt::Display for MappingIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingIssue::NodeUnplaced(n) => write!(f, "node {n} is not placed"),
            MappingIssue::UnsupportedPe { node, pe } => {
                write!(f, "node {node} is placed on incapable {pe}")
            }
            MappingIssue::EdgeUnrouted(e) => write!(f, "edge {e} is not routed"),
            MappingIssue::RouteMismatch(e) => write!(f, "edge {e} has a stale route"),
            MappingIssue::TimingViolation(e) => write!(f, "edge {e} arrives before it departs"),
            MappingIssue::Overuse { amount } => write!(f, "{amount} cells are overused"),
        }
    }
}

impl Mapping {
    /// Creates an empty mapping for `dfg` over the given MRRG shape.
    pub fn new(dfg: &Dfg, mrrg: &Mrrg) -> Self {
        let mrrg = Arc::new(mrrg.clone());
        Self {
            mrrg: mrrg.clone(),
            pes: vec![None; dfg.num_nodes()],
            times: vec![None; dfg.num_nodes()],
            routes: vec![None; dfg.num_edges()],
            occ: Occupancy::new_shared(mrrg),
        }
    }

    /// The initiation interval of this mapping.
    pub fn ii(&self) -> u32 {
        self.mrrg.ii()
    }

    /// The MRRG shape.
    pub fn mrrg(&self) -> &Mrrg {
        &self.mrrg
    }

    /// The occupancy table (for routers and congestion inspection).
    pub fn occupancy(&self) -> &Occupancy {
        &self.occ
    }

    /// Places `node` on `pe` at absolute schedule time `time`, claiming the
    /// FU cell. Any previous placement must be removed first with
    /// [`unplace`](Mapping::unplace).
    ///
    /// # Panics
    ///
    /// Panics if the node is already placed.
    pub fn place(&mut self, node: NodeId, pe: PeId, time: u32) {
        assert!(
            self.pes[node.index()].is_none(),
            "node {node} is already placed"
        );
        self.pes[node.index()] = Some(pe);
        self.times[node.index()] = Some(time);
        self.occ.claim(
            Resource::Fu {
                pe,
                slot: self.mrrg.slot_of(time),
            },
            node,
            0,
        );
    }

    /// Removes `node`'s placement and rips up every route adjacent to it.
    /// Returns the edges whose routes were removed.
    pub fn unplace(&mut self, dfg: &Dfg, node: NodeId) -> Vec<EdgeId> {
        let Some(pe) = self.pes[node.index()].take() else {
            return Vec::new();
        };
        let time = self.times[node.index()]
            .take()
            .expect("pe and time in sync");
        self.occ.release(
            Resource::Fu {
                pe,
                slot: self.mrrg.slot_of(time),
            },
            node,
            0,
        );
        let mut ripped = Vec::new();
        for e in dfg.out_edges(node).chain(dfg.in_edges(node)) {
            if self.routes[e.id().index()].is_some() {
                self.clear_route(e.id());
                ripped.push(e.id());
            }
        }
        ripped
    }

    /// Current placement of `node`.
    pub fn placement(&self, node: NodeId) -> Option<(PeId, u32)> {
        Some((self.pes[node.index()]?, self.times[node.index()]?))
    }

    /// Whether `node` is placed.
    pub fn is_placed(&self, node: NodeId) -> bool {
        self.pes[node.index()].is_some()
    }

    /// Commits a route for `edge`, claiming its cells.
    ///
    /// # Panics
    ///
    /// Panics if the edge already has a route.
    pub fn set_route(&mut self, edge: EdgeId, route: Route) {
        assert!(
            self.routes[edge.index()].is_none(),
            "edge {edge} is already routed"
        );
        self.occ.claim_route(&route);
        self.routes[edge.index()] = Some(route);
    }

    /// Rips up the route of `edge` (no-op if unrouted).
    pub fn clear_route(&mut self, edge: EdgeId) {
        if let Some(route) = self.routes[edge.index()].take() {
            self.occ.release_route(&route);
        }
    }

    /// The committed route of `edge`, if any.
    pub fn route(&self, edge: EdgeId) -> Option<&Route> {
        self.routes[edge.index()].as_ref()
    }

    /// Builds the [`RouteRequest`] implied by the current placement of an
    /// edge's endpoints, or `None` if either endpoint is unplaced.
    ///
    /// Timing contract: `depart = t_src + 1`, `arrive = t_dst + dist·II`.
    pub fn request_for(&self, dfg: &Dfg, edge: EdgeId) -> Option<RouteRequest> {
        let e = dfg.edge(edge);
        let (src_pe, t_src) = self.placement(e.src())?;
        let (dst_pe, t_dst) = self.placement(e.dst())?;
        Some(RouteRequest {
            signal: e.src(),
            src_pe,
            depart_cycle: t_src + 1,
            dst_pe,
            arrive_cycle: t_dst + e.distance() * self.ii(),
        })
    }

    /// Nodes without a placement.
    pub fn unplaced_nodes(&self, dfg: &Dfg) -> Vec<NodeId> {
        dfg.node_ids().filter(|&n| !self.is_placed(n)).collect()
    }

    /// Full validation: returns every defect, or `Ok` for a complete,
    /// physically realisable mapping.
    ///
    /// # Errors
    ///
    /// A non-empty [`MappingIssue`] list describing all defects.
    pub fn validate(&self, dfg: &Dfg, cgra: &Cgra) -> Result<(), Vec<MappingIssue>> {
        let mut issues = Vec::new();
        for node in dfg.nodes() {
            match self.placement(node.id()) {
                None => issues.push(MappingIssue::NodeUnplaced(node.id())),
                Some((pe, _)) => {
                    if !cgra.pe(pe).supports(node.op()) {
                        issues.push(MappingIssue::UnsupportedPe {
                            node: node.id(),
                            pe,
                        });
                    }
                }
            }
        }
        for e in dfg.edges() {
            let Some(expected) = self.request_for(dfg, e.id()) else {
                // Endpoint missing: already reported as NodeUnplaced.
                continue;
            };
            if expected.num_steps().is_none() {
                issues.push(MappingIssue::TimingViolation(e.id()));
                continue;
            }
            match self.route(e.id()) {
                None => issues.push(MappingIssue::EdgeUnrouted(e.id())),
                Some(route) => {
                    if route.request() != &expected {
                        issues.push(MappingIssue::RouteMismatch(e.id()));
                    }
                }
            }
        }
        let overuse = self.occ.total_overuse();
        if overuse > 0 {
            issues.push(MappingIssue::Overuse { amount: overuse });
        }
        if issues.is_empty() {
            Ok(())
        } else {
            Err(issues)
        }
    }

    /// `true` iff [`validate`](Mapping::validate) returns `Ok`.
    pub fn is_valid(&self, dfg: &Dfg, cgra: &Cgra) -> bool {
        self.validate(dfg, cgra).is_ok()
    }

    /// Allocation-free completeness check for mapper hot loops: every node
    /// placed, every edge routed, no overuse. Mappers that rip routes on
    /// every move keep routes fresh by construction, so this is equivalent
    /// to [`is_valid`](Mapping::is_valid) for them (debug-asserted at
    /// commit time).
    pub fn is_complete(&self, dfg: &Dfg) -> bool {
        debug_assert_eq!(self.pes.len(), dfg.num_nodes());
        self.pes.iter().all(|p| p.is_some())
            && self.routes.iter().all(|r| r.is_some())
            && self.occ.total_overuse() == 0
    }

    /// The nodes the paper calls *ill-mapped*: unplaced, or incident to an
    /// edge that is unrouted, mistimed, or riding on overused cells.
    pub fn ill_mapped_nodes(&self, dfg: &Dfg) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        let mark = |n: NodeId, out: &mut Vec<NodeId>| {
            if !out.contains(&n) {
                out.push(n);
            }
        };
        for &n in &self.unplaced_nodes(dfg) {
            mark(n, &mut out);
        }
        // Nodes whose FU cell is shared with another node.
        for n in dfg.node_ids() {
            if let Some((pe, t)) = self.placement(n) {
                let fu = Resource::Fu {
                    pe,
                    slot: self.mrrg.slot_of(t),
                };
                if self.occ.is_overused(fu) {
                    mark(n, &mut out);
                }
            }
        }
        for e in dfg.edges() {
            let bad = match (self.request_for(dfg, e.id()), self.route(e.id())) {
                (None, _) => false, // endpoint unplaced: already marked
                (Some(req), None) => {
                    // Unrouted or timing-violated.
                    let _ = req;
                    true
                }
                (Some(req), Some(route)) => {
                    route.request() != &req
                        || route
                            .resources()
                            .iter()
                            .any(|&cell| self.occ.is_overused(cell))
                }
            };
            if bad {
                mark(e.src(), &mut out);
                mark(e.dst(), &mut out);
            }
        }
        out
    }

    /// Total overuse of the underlying occupancy.
    pub fn total_overuse(&self) -> usize {
        self.occ.total_overuse()
    }

    /// Schedule length: the latest placed operation's absolute time plus
    /// one — the pipeline fill (prologue) depth in cycles.
    pub fn schedule_length(&self) -> u32 {
        self.times
            .iter()
            .flatten()
            .copied()
            .max()
            .map_or(0, |t| t + 1)
    }

    /// Steady-state throughput in iterations per cycle (`1 / II`).
    pub fn throughput(&self) -> f64 {
        1.0 / self.ii() as f64
    }

    /// Total cycles to run `iterations` loop iterations, including the
    /// pipeline fill: `schedule_length + (iterations − 1) · II`.
    pub fn cycles_for(&self, iterations: u32) -> u64 {
        if iterations == 0 {
            return 0;
        }
        self.schedule_length() as u64 + (iterations as u64 - 1) * self.ii() as u64
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let placed = self.pes.iter().filter(|p| p.is_some()).count();
        let routed = self.routes.iter().filter(|r| r.is_some()).count();
        write!(
            f,
            "Mapping II={} ({placed}/{} nodes placed, {routed}/{} edges routed, overuse {})",
            self.ii(),
            self.pes.len(),
            self.routes.len(),
            self.total_overuse()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::{presets, OpKind};
    use rewire_mrrg::{Router, UnitCost};

    fn chain() -> (Dfg, NodeId, NodeId, EdgeId) {
        let mut dfg = Dfg::new("chain");
        let a = dfg.add_node("a", OpKind::Add);
        let b = dfg.add_node("b", OpKind::Add);
        let e = dfg.add_edge(a, b, 0).unwrap();
        (dfg, a, b, e)
    }

    fn setup(ii: u32) -> (Cgra, Mrrg) {
        let cgra = presets::paper_4x4_r4();
        let mrrg = Mrrg::new(&cgra, ii);
        (cgra, mrrg)
    }

    #[test]
    fn empty_mapping_reports_all_defects() {
        let (cgra, mrrg) = setup(2);
        let (dfg, _, _, _) = chain();
        let m = Mapping::new(&dfg, &mrrg);
        let issues = m.validate(&dfg, &cgra).unwrap_err();
        assert_eq!(
            issues
                .iter()
                .filter(|i| matches!(i, MappingIssue::NodeUnplaced(_)))
                .count(),
            2
        );
    }

    #[test]
    fn place_route_validate_round_trip() {
        let (cgra, mrrg) = setup(2);
        let (dfg, a, b, e) = chain();
        let mut m = Mapping::new(&dfg, &mrrg);
        let p0 = cgra.pe_at((0, 0).into()).unwrap().id();
        let p1 = cgra.pe_at((0, 1).into()).unwrap().id();
        m.place(a, p0, 0);
        m.place(b, p1, 1);
        let router = Router::new(&cgra, &mrrg);
        let req = m.request_for(&dfg, e).unwrap();
        assert_eq!(req.depart_cycle, 1);
        assert_eq!(req.arrive_cycle, 1);
        // 0-length across PEs is impossible: move b later.
        m.unplace(&dfg, b);
        m.place(b, p1, 2);
        let req = m.request_for(&dfg, e).unwrap();
        let route = router.route(m.occupancy(), &req, &UnitCost).unwrap();
        m.set_route(e, route);
        assert!(m.validate(&dfg, &cgra).is_ok());
    }

    #[test]
    fn unplace_rips_adjacent_routes() {
        let (cgra, mrrg) = setup(2);
        let (dfg, a, b, e) = chain();
        let mut m = Mapping::new(&dfg, &mrrg);
        let p0 = cgra.pe_at((0, 0).into()).unwrap().id();
        let p1 = cgra.pe_at((0, 1).into()).unwrap().id();
        m.place(a, p0, 0);
        m.place(b, p1, 2);
        let router = Router::new(&cgra, &mrrg);
        let req = m.request_for(&dfg, e).unwrap();
        let route = router.route(m.occupancy(), &req, &UnitCost).unwrap();
        m.set_route(e, route);
        let used_before = m.occupancy().used_cells();
        assert!(used_before >= 3); // two FUs + at least one route cell

        let ripped = m.unplace(&dfg, b);
        assert_eq!(ripped, vec![e]);
        assert!(m.route(e).is_none());
        assert!(!m.is_placed(b));
        // Only a's FU remains claimed.
        assert_eq!(m.occupancy().used_cells(), 1);
    }

    #[test]
    fn fu_conflicts_count_as_overuse() {
        let (cgra, mrrg) = setup(2);
        let (dfg, a, b, _) = chain();
        let mut m = Mapping::new(&dfg, &mrrg);
        let p0 = cgra.pe_at((0, 0).into()).unwrap().id();
        m.place(a, p0, 0);
        m.place(b, p0, 2); // same slot (2 % 2 == 0): conflict
        assert_eq!(m.total_overuse(), 1);
        let issues = m.validate(&dfg, &cgra).unwrap_err();
        assert!(issues
            .iter()
            .any(|i| matches!(i, MappingIssue::Overuse { amount: 1 })));
    }

    #[test]
    fn memory_op_on_compute_pe_is_flagged() {
        let (cgra, mrrg) = setup(2);
        let mut dfg = Dfg::new("m");
        let ld = dfg.add_node("ld", OpKind::Load);
        let mut m = Mapping::new(&dfg, &mrrg);
        let inner = cgra.pe_at((0, 2).into()).unwrap().id();
        m.place(ld, inner, 0);
        let issues = m.validate(&dfg, &cgra).unwrap_err();
        assert!(issues
            .iter()
            .any(|i| matches!(i, MappingIssue::UnsupportedPe { .. })));
    }

    #[test]
    fn timing_violation_detected() {
        let (cgra, mrrg) = setup(2);
        let (dfg, a, b, e) = chain();
        let mut m = Mapping::new(&dfg, &mrrg);
        let p0 = cgra.pe_at((0, 0).into()).unwrap().id();
        let p1 = cgra.pe_at((0, 1).into()).unwrap().id();
        m.place(a, p0, 5);
        m.place(b, p1, 2); // consumer before producer
        let issues = m.validate(&dfg, &cgra).unwrap_err();
        assert!(issues.contains(&MappingIssue::TimingViolation(e)));
    }

    #[test]
    fn ill_mapped_detection() {
        let (cgra, mrrg) = setup(2);
        let (dfg, a, b, _e) = chain();
        let mut m = Mapping::new(&dfg, &mrrg);
        let p0 = cgra.pe_at((0, 0).into()).unwrap().id();
        let p1 = cgra.pe_at((0, 1).into()).unwrap().id();
        assert_eq!(m.ill_mapped_nodes(&dfg).len(), 2); // both unplaced
        m.place(a, p0, 0);
        m.place(b, p1, 2);
        // Placed but edge unrouted: both endpoints ill-mapped.
        assert_eq!(m.ill_mapped_nodes(&dfg).len(), 2);
        let _ = cgra;
    }

    #[test]
    fn stale_route_detected() {
        let (cgra, mrrg) = setup(2);
        let (dfg, a, b, e) = chain();
        let mut m = Mapping::new(&dfg, &mrrg);
        let p0 = cgra.pe_at((0, 0).into()).unwrap().id();
        let p1 = cgra.pe_at((0, 1).into()).unwrap().id();
        m.place(a, p0, 0);
        m.place(b, p1, 2);
        let router = Router::new(&cgra, &mrrg);
        let req = m.request_for(&dfg, e).unwrap();
        let route = router.route(m.occupancy(), &req, &UnitCost).unwrap();
        // Move b without re-routing — but keep the stale route committed.
        m.set_route(e, route);
        let stale = m.route(e).cloned().unwrap();
        m.unplace(&dfg, b);
        m.place(b, p1, 3);
        m.set_route(e, stale);
        let issues = m.validate(&dfg, &cgra).unwrap_err();
        assert!(issues.contains(&MappingIssue::RouteMismatch(e)));
    }

    #[test]
    fn schedule_statistics() {
        let (cgra, mrrg) = setup(2);
        let (dfg, a, b, _e) = chain();
        let mut m = Mapping::new(&dfg, &mrrg);
        assert_eq!(m.schedule_length(), 0);
        let p0 = cgra.pe_at((0, 0).into()).unwrap().id();
        let p1 = cgra.pe_at((0, 1).into()).unwrap().id();
        m.place(a, p0, 0);
        m.place(b, p1, 3);
        assert_eq!(m.schedule_length(), 4);
        assert!((m.throughput() - 0.5).abs() < 1e-9);
        // 4 fill cycles + 4 more iterations at II 2.
        assert_eq!(m.cycles_for(5), 4 + 4 * 2);
        assert_eq!(m.cycles_for(0), 0);
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_place_panics() {
        let (_cgra, mrrg) = setup(2);
        let (dfg, a, _, _) = chain();
        let mut m = Mapping::new(&dfg, &mrrg);
        m.place(a, PeId::new(0), 0);
        m.place(a, PeId::new(1), 0);
    }
}
