//! Differential fuzzing for the Rewire mapper stack.
//!
//! One fuzz seed deterministically produces one scenario — a random DFG
//! (via [`rewire_dfg::generate`]) on a random fabric (via
//! [`rewire_arch::random`]) — which is mapped by four mappers through the
//! shared ascending-II engine (Rewire, PF*, SA and the exact SAT backend,
//! the one reference search) and checked against a five-layer oracle
//! stack:
//!
//! 1. **Structural** — every produced mapping validates, is complete, and
//!    agrees with its own stats.
//! 2. **Semantic** — mapped kernels execute bit-identically to the DFG
//!    golden model ([`rewire_sim::verify_semantics`]).
//! 3. **MII bound** — no mapper claims an II below `max(ResMII, RecMII)`.
//! 4. **Cross-mapper** — no mapper claims infeasibility without sweeping
//!    the full II range.
//! 5. **Exact verdict** — no mapper maps at an II the SAT backend proved
//!    infeasible.
//!
//! On a violation the scenario is greedily shrunk ([`mod@shrink`]) to a
//! minimal reproducer and persisted as a self-contained text artifact
//! ([`artifact`]) under `fuzz/corpus/`, which the corpus regression test
//! replays in CI.
//!
//! Everything is observe-only with respect to the mappers: the fuzz loop
//! derives its sub-seeds with the same SplitMix64 mix the engine uses, but
//! never reaches into mapper state, so a scenario maps identically inside
//! and outside the harness.

pub mod artifact;
pub mod oracle;
pub mod run;
pub mod scenario;
pub mod shrink;

pub use artifact::{Artifact, Expectation, ParseArtifactError};
pub use oracle::{run_oracle, CheckKind, MapperRun, OracleConfig, Violation};
pub use run::{
    differential_mappers, evaluate, fuzz_one, fuzz_range, replay, FuzzConfig, SeedReport,
};
pub use scenario::{mix, Scenario};
pub use shrink::{render_trace, shrink, ShrinkResult};
