//! Routes: committed paths through the MRRG.

use crate::Resource;
use rewire_arch::PeId;
use rewire_dfg::NodeId;
use std::error::Error;
use std::fmt;

/// A routing request: carry `signal` from the output wire of `src_pe`
/// (driven at `depart_cycle`) into `dst_pe`'s FU at `arrive_cycle`.
///
/// Both cycles are *absolute* schedule times; the router reduces them to
/// modulo slots when touching cells. For a DFG edge `(u, v, dist)`:
/// `depart_cycle = t_u + 1` and `arrive_cycle = t_v + dist·II`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RouteRequest {
    /// The producing DFG node (sharing key).
    pub signal: NodeId,
    /// PE whose output wire carries the value.
    pub src_pe: PeId,
    /// Absolute cycle at which the value is on the source wire.
    pub depart_cycle: u32,
    /// PE whose FU consumes the value.
    pub dst_pe: PeId,
    /// Absolute cycle at which the consumer reads it.
    pub arrive_cycle: u32,
}

impl RouteRequest {
    /// Number of resource steps the path must take
    /// (`arrive_cycle − depart_cycle`), or `None` if the request is
    /// backwards in time.
    pub fn num_steps(&self) -> Option<u32> {
        self.arrive_cycle.checked_sub(self.depart_cycle)
    }
}

impl fmt::Display for RouteRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}@{} → {}@{}",
            self.signal, self.src_pe, self.depart_cycle, self.dst_pe, self.arrive_cycle
        )
    }
}

/// A realised route: the request plus the ordered cells it occupies.
///
/// Step `k` of the path consumes `resources()[k]` during absolute cycle
/// `depart_cycle + k`. Routes are value objects; claiming/releasing their
/// cells is [`Occupancy`](crate::Occupancy)'s job.
#[derive(Clone, PartialEq, Debug)]
pub struct Route {
    request: RouteRequest,
    resources: Vec<Resource>,
    cost: f64,
}

impl Route {
    pub(crate) fn new(request: RouteRequest, resources: Vec<Resource>, cost: f64) -> Self {
        Self {
            request,
            resources,
            cost,
        }
    }

    /// Assembles a route from raw parts, without any routing.
    ///
    /// Two legitimate callers exist: failure injection — building
    /// deliberately wrong paths (a mis-slotted cell, a register held
    /// across the modulo wrap) to prove that the simulator and the fuzz
    /// oracle catch what structural validation alone cannot — and the
    /// exact SAT backend's model decoder, which reconstructs cell lists
    /// from a satisfying assignment and immediately re-validates the full
    /// mapping. Heuristic mapping code must never call it; the router is
    /// their only producer of correct routes.
    pub fn from_parts(request: RouteRequest, resources: Vec<Resource>, cost: f64) -> Self {
        Self::new(request, resources, cost)
    }

    /// The request this route satisfies.
    pub fn request(&self) -> &RouteRequest {
        &self.request
    }

    /// The sharing key (producing DFG node).
    pub fn signal(&self) -> NodeId {
        self.request.signal
    }

    /// The ordered cells occupied, one per cycle of the path.
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// Total router cost of the path (1.0 per cell under
    /// [`UnitCost`](crate::UnitCost)).
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Number of link hops on the path.
    pub fn hops(&self) -> usize {
        self.resources.iter().filter(|r| r.is_link()).count()
    }

    /// Number of register-cycle cells on the path.
    pub fn reg_cycles(&self) -> usize {
        self.resources.iter().filter(|r| r.is_reg()).count()
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [", self.request)?;
        for (i, r) in self.resources.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "]")
    }
}

/// Routing failure.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum RouteError {
    /// The arrival precedes the departure — a scheduling bug upstream.
    NegativeLength {
        /// The impossible request.
        request: RouteRequest,
    },
    /// No path of the required exact length exists under the cost model
    /// (cells blocked, or the fabric simply cannot deliver in time).
    NoPath {
        /// The unroutable request.
        request: RouteRequest,
    },
}

impl RouteError {
    /// Short static label for forensics (flight-recorder `RouteFailed`
    /// events tag failures with this, so the doctor can rank reasons
    /// without string parsing).
    pub fn label(&self) -> &'static str {
        match self {
            RouteError::NegativeLength { .. } => "negative_length",
            RouteError::NoPath { .. } => "no_path",
        }
    }
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NegativeLength { request } => {
                write!(f, "arrival precedes departure in request {request}")
            }
            RouteError::NoPath { request } => write!(f, "no feasible path for request {request}"),
        }
    }
}

impl Error for RouteError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::LinkId;

    fn req() -> RouteRequest {
        RouteRequest {
            signal: NodeId::new(0),
            src_pe: PeId::new(0),
            depart_cycle: 1,
            dst_pe: PeId::new(1),
            arrive_cycle: 3,
        }
    }

    #[test]
    fn num_steps() {
        assert_eq!(req().num_steps(), Some(2));
        let mut backwards = req();
        backwards.arrive_cycle = 0;
        assert_eq!(backwards.num_steps(), None);
    }

    #[test]
    fn route_statistics() {
        let r = Route::new(
            req(),
            vec![
                Resource::Reg {
                    pe: PeId::new(0),
                    reg: 0,
                    slot: 1,
                },
                Resource::Link {
                    link: LinkId::new(0),
                    slot: 0,
                },
            ],
            2.0,
        );
        assert_eq!(r.hops(), 1);
        assert_eq!(r.reg_cycles(), 1);
        assert_eq!(r.cost(), 2.0);
        assert!(format!("{r}").contains("REG"));
    }

    #[test]
    fn from_parts_is_equivalent_to_new() {
        let cells = vec![Resource::Link {
            link: LinkId::new(3),
            slot: 1,
        }];
        assert_eq!(
            Route::from_parts(req(), cells.clone(), 1.0),
            Route::new(req(), cells, 1.0)
        );
    }

    #[test]
    fn error_display() {
        let e = RouteError::NoPath { request: req() };
        assert!(format!("{e}").contains("no feasible path"));
    }
}
