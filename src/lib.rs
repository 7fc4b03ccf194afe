//! **rewire** — a from-scratch reproduction of *Rewire: Advancing CGRA
//! Mapping Through a Consolidated Routing Paradigm* (Li et al., DAC 2025).
//!
//! This facade re-exports the workspace crates so downstream users (and
//! the bundled examples/integration tests) can depend on a single crate:
//!
//! * [`arch`] — parametric CGRA architecture model,
//! * [`dfg`] — data-flow graphs, MII analysis, the kernel benchmark suite,
//! * [`mrrg`] — modulo routing resource graph, occupancy and routers,
//! * [`mappers`] — mapping state/validation and the PF* / SA baselines,
//! * [`core`] — the Rewire mapper itself,
//! * [`obs`] — zero-dependency metrics: counters, histograms, span timers,
//! * [`sim`] — cycle-accurate functional simulation and configuration
//!   generation.
//!
//! # Quickstart
//!
//! ```
//! use rewire::prelude::*;
//!
//! let cgra = presets::paper_4x4_r4();
//! let dfg = kernels::fir();
//! let outcome = RewireMapper::new().map(&dfg, &cgra, &MapLimits::fast());
//! if let Some(mapping) = &outcome.mapping {
//!     println!(
//!         "mapped {} at II {} (MII {})",
//!         dfg.name(),
//!         mapping.ii(),
//!         outcome.stats.mii
//!     );
//!     assert!(mapping.is_valid(&dfg, &cgra));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rewire_arch as arch;
pub use rewire_core as core;
pub use rewire_dfg as dfg;
pub use rewire_mappers as mappers;
pub use rewire_mrrg as mrrg;
pub use rewire_obs as obs;
pub use rewire_sim as sim;

/// The items most programs need, under one import.
pub mod prelude {
    pub use rewire_arch::{presets, Cgra, CgraBuilder, OpKind, PeId};
    pub use rewire_core::{RewireConfig, RewireMapper, RewireStats};
    pub use rewire_dfg::{kernels, Dfg, NodeId};
    pub use rewire_mappers::engine::{
        EventSink, JsonlTrace, MapEvent, MetricsSink, Silent, StderrProgress,
    };
    pub use rewire_mappers::{
        AttemptVerdict, ExactSatMapper, MapLimits, MapOutcome, MapStats, Mapper, Mapping,
        PathFinderMapper, SaMapper,
    };
    pub use rewire_mrrg::{Mrrg, Occupancy, Route, Router, UnitCost};
    pub use rewire_sim::{verify_semantics, Inputs};
}
