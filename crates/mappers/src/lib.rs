//! Mapping state, validation, scheduling helpers, and the two baseline
//! CGRA mappers the Rewire paper compares against.
//!
//! * [`Mapping`] — placement + routes + occupancy with full validation,
//!   shared by every mapper in the workspace (including `rewire-core`),
//! * [`PathFinderMapper`] — `PF*`, negotiated-congestion rip-up/re-place in
//!   the SPR/PathFinder tradition; also supplies the *initial mapping*
//!   Rewire amends,
//! * [`SaMapper`] — `SA`, simulated annealing over placements,
//! * [`Mapper`] / [`MapOutcome`] / [`MapStats`] / [`MapLimits`] — the
//!   interface, the per-run record and the budgets the evaluation harness
//!   consumes,
//! * [`observe`] — the observe directory every `--observe DIR` writes:
//!   run records, metrics snapshot, flight log and Chrome trace.
//!
//! # Examples
//!
//! ```
//! use rewire_arch::presets;
//! use rewire_dfg::kernels;
//! use rewire_mappers::{MapLimits, Mapper, PathFinderMapper};
//!
//! let cgra = presets::paper_4x4_r4();
//! let dfg = kernels::gesummv();
//! let outcome = PathFinderMapper::new().map(&dfg, &cgra, &MapLimits::fast());
//! if let Some(mapping) = &outcome.mapping {
//!     assert!(mapping.is_valid(&dfg, &cgra));
//!     println!("mapped at II {}", mapping.ii());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annealing;
pub mod engine;
mod exact;
mod fanout;
mod limits;
mod mapping;
pub mod observe;
mod pathfinder;
mod render;
mod schedule;
mod stats;
mod traits;

pub use annealing::{SaAttempt, SaConfig, SaMapper};
pub use engine::{AttemptVerdict, IiAttempt, IiSearch};
pub use exact::{ExactAttempt, ExactSatMapper};
pub use fanout::{consolidate_fanout, ConsolidationStats};
pub use limits::MapLimits;
pub use mapping::{Mapping, MappingIssue};
pub use pathfinder::{PathFinderAttempt, PathFinderConfig, PathFinderMapper};
pub use schedule::{candidate_pes, default_horizon, modulo_schedule, schedule_asap};
pub use stats::{GiveUpReason, MapStats};
pub use traits::{MapOutcome, Mapper};
