//! **Rewire** — a consolidated routing paradigm for CGRA mapping
//! (Li et al., DAC 2025).
//!
//! Conventional mappers place and route one DFG node at a time and
//! backtrack when later nodes fail. Rewire instead *amends* an invalid
//! initial mapping by re-mapping a whole **cluster** of ill-mapped nodes in
//! one shot:
//!
//! 1. **Propagation** ([`propagate`]): the output values of the cluster's
//!    mapped parents are propagated forward through the network (and its
//!    mapped children backward), generating *propagation tuples*
//!    `(source, direction, PE, cycle)` — shareable routing knowledge.
//! 2. **Intersection** ([`PlacementCandidates`]): a PE is a placement
//!    candidate for a cluster node if it holds the required tuples from all
//!    relevant sources at a consistent cycle (Eq. 1 of the paper); direct
//!    neighbours require exact-cycle tuples, cluster-internal neighbours
//!    are represented by DFS-located transitive sources.
//! 3. **Multi-node placement** ([`ClusterPlacer`], Alg. 2): candidates are
//!    enumerated with execution-cycle dependency constraints pruning the
//!    combination space, and each surviving `Placement(U)` is verified by
//!    exclusive routing before being committed.
//!
//! The driver ([`RewireMapper`], Alg. 1) starts from PF*'s initial mapping,
//! grows the cluster up to α = 15 on failure, and raises II when a cluster
//! cannot be mapped.
//!
//! # Examples
//!
//! ```
//! use rewire_arch::presets;
//! use rewire_dfg::kernels;
//! use rewire_core::RewireMapper;
//! use rewire_mappers::{MapLimits, Mapper};
//!
//! let cgra = presets::paper_4x4_r4();
//! let dfg = kernels::fir();
//! let outcome = RewireMapper::new().map(&dfg, &cgra, &MapLimits::fast());
//! if let Some(mapping) = &outcome.mapping {
//!     assert!(mapping.is_valid(&dfg, &cgra));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod config;
mod intersect;
#[cfg(test)]
mod lib_tests;
mod mapper;
mod placement;
mod propagate;
mod stats;

pub use cluster::Cluster;
pub use config::RewireConfig;
pub use intersect::{pcandidates, PlacementCandidates, Requirement};
pub use mapper::{RewireAttempt, RewireMapper};
pub use placement::ClusterPlacer;
pub use propagate::{propagate, Direction, PropagationSeed, TupleStore};
pub use stats::RewireStats;
