//! Modulo Routing Resource Graph (MRRG) for CGRA modulo scheduling.
//!
//! The MRRG time-extends a [`rewire_arch::Cgra`] over `II` cycles (Mei et
//! al., DRESC). Three resource classes exist per modulo slot:
//!
//! * **FU** cells `(pe, slot)` — one operation executes per PE per slot,
//! * **Link** cells `(link, slot)` — a value departing on a link at a cycle
//!   with this slot arrives at the far PE one cycle later,
//! * **Register** cells `(pe, r, slot)` — the value held in register `r`
//!   of a PE during a cycle with this slot.
//!
//! ## Timing contract
//!
//! A DFG node `u` placed on `pe_u` at schedule time `t_u` drives its output
//! wire at cycle `t_u + 1`. Every subsequent cycle the value either hops one
//! link, is written to / held in a register, or is consumed by the
//! destination FU. An edge `(u, v, dist)` with `v` at `(pe_v, t_v)` under
//! initiation interval `II` needs a path of exactly
//! `t_v + dist·II − (t_u + 1)` resource steps that ends either *at* `pe_v`
//! (a zero-step path is same-PE output-register forwarding) or at a
//! neighbour of `pe_v`, in which case a final *delivery hop* crosses the
//! last link combinationally during the consumption cycle itself — the
//! ADRES/HyCube register→link→FU-input path that lets a neighbour consume
//! a value in the very next cycle.
//!
//! ## Sharing
//!
//! Routing cells (links/registers) are shareable between routes of the same
//! *signal* (the producing DFG node) at the same phase — that is how
//! fan-out works — and exclusive across different signals. [`Occupancy`]
//! is the one place that rule lives: it tracks per-cell `(signal, phase)`
//! reference counts, and also tolerates transient *overuse* (a second key
//! on one cell) because PathFinder-style negotiation needs it;
//! [`Occupancy::is_overused`] exposes the violations.
//!
//! # Examples
//!
//! ```
//! use rewire_arch::presets;
//! use rewire_dfg::NodeId;
//! use rewire_mrrg::{Mrrg, Occupancy, RouteRequest, Router, UnitCost};
//!
//! let cgra = presets::paper_4x4_r4();
//! let mrrg = Mrrg::new(&cgra, 2);
//! let mut occ = Occupancy::new(&mrrg);
//! let router = Router::new(&cgra, &mrrg);
//!
//! // Route the output of node 0, on the wire of PE0 at cycle 1, into PE1
//! // at cycle 2 (one hop).
//! let req = RouteRequest {
//!     signal: NodeId::new(0),
//!     src_pe: cgra.pes().next().unwrap().id(),
//!     depart_cycle: 1,
//!     dst_pe: cgra.pe_at((0, 1).into()).unwrap().id(),
//!     arrive_cycle: 2,
//! };
//! let route = router.route(&occ, &req, &UnitCost)?;
//! assert_eq!(route.resources().len(), 1); // a single link cell
//! occ.claim_route(&route);
//! # Ok::<(), rewire_mrrg::RouteError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distance;
mod graph;
mod occupancy;
mod resource;
mod route;
mod router;

pub use distance::DistanceOracle;
pub use graph::Mrrg;
pub use occupancy::Occupancy;
pub use resource::Resource;
pub use route::{Route, RouteError, RouteRequest};
pub use router::{
    install_thread_distance_table, CostModel, NegotiatedCost, RouteCertificate, Router, RouterMode,
    TreeCost, UnitCost,
};
