//! `rewire-obs` — the workspace's observability substrate.
//!
//! A zero-dependency, thread-aware metrics registry: monotonic (saturating)
//! [`Counter`]s, [`Gauge`]s, fixed-bucket log2 [`Histogram`]s, and
//! hierarchical span timers recorded through a [`ScopedTimer`] RAII guard.
//! Everything is *observe-only by contract*: recording never feeds back into
//! the code being measured, so mapping results are byte-identical with and
//! without metrics enabled (pinned by `tests/engine_determinism.rs` at the
//! workspace root).
//!
//! # Design
//!
//! * **Thread-sharded.** Every thread records into its own shard (a private
//!   set of atomic cells), so the hot paths never contend on a shared lock.
//!   [`Registry::snapshot`] merges all shards by summation — a commutative,
//!   associative merge over integers, so the merged [`Snapshot`] is
//!   deterministic regardless of thread scheduling or merge order.
//! * **Scoped.** Metrics are grouped under a per-thread *scope* string (the
//!   engine uses `"<mapper>/<kernel>"`), set with the [`scope`] RAII guard.
//!   This is what lets one global registry attribute router expansions to
//!   the individual run that caused them.
//! * **Handle-based.** Looking a metric up returns a cheap cloneable handle
//!   (an `Arc` around atomic cells); hot loops resolve handles once and
//!   then increment lock-free. [`scope_epoch`] lets long-lived caches (the
//!   router scratch) detect scope changes and refresh their handles.
//! * **Offline JSON.** [`Snapshot::to_json`] hand-rolls the same minimal
//!   JSON subset the engine's trace sink uses (the workspace has no serde),
//!   and [`json`] provides the matching parser used by `rewire-report`.
//!
//! # Example
//!
//! ```
//! let registry = rewire_obs::Registry::new();
//! {
//!     let _run = registry.scope("PF*/fir");
//!     registry.counter("router.expansions").add(128);
//!     registry.histogram("router.route_len").record(5);
//!     let _t = registry.span("attempt");
//!     // ... timed work ...
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.scopes["PF*/fir"].counters["router.expansions"], 128);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flight;
mod hist;
pub mod json;
mod registry;
mod snapshot;
mod trace;

pub use flight::{
    FlightEvent, FlightLog, FlightRecord, FlightRecorder, HeatCell, HeatKey,
    DEFAULT_FLIGHT_CAPACITY,
};
pub use hist::{Histogram, NUM_BUCKETS};
pub use registry::{Counter, Gauge, Registry, ScopeGuard, ScopedTimer};
pub use snapshot::{HistogramSnapshot, ScopeSnapshot, Snapshot, SpanSnapshot};
pub use trace::{ChromeTrace, DEFAULT_TRACE_CAPACITY};

use std::sync::OnceLock;

/// The process-wide registry every free function below records into.
///
/// The instrumented crates (`rewire-mrrg`'s router, the mappers, the
/// engine) all use this instance so a single `--metrics FILE` snapshot
/// covers the whole run; tests that need isolation construct their own
/// [`Registry`].
pub fn metrics() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Sets the calling thread's metric scope on the global registry until the
/// returned guard drops. See [`Registry::scope`].
pub fn scope(path: impl Into<String>) -> ScopeGuard<'static> {
    metrics().scope(path)
}

/// The calling thread's current scope on the global registry.
pub fn current_scope() -> String {
    metrics().current_scope()
}

/// Monotonic per-thread counter of scope changes on the global registry.
/// See [`Registry::scope_epoch`].
pub fn scope_epoch() -> u64 {
    metrics().scope_epoch()
}

/// A counter under the current thread scope of the global registry.
pub fn counter(name: &str) -> Counter {
    metrics().counter(name)
}

/// A gauge under the current thread scope of the global registry.
pub fn gauge(name: &str) -> Gauge {
    metrics().gauge(name)
}

/// A histogram under the current thread scope of the global registry.
pub fn histogram(name: &str) -> Histogram {
    metrics().histogram(name)
}

/// Starts a span timer on the global registry, nested under the thread's
/// innermost live span. See [`Registry::span`].
pub fn span(name: &str) -> ScopedTimer<'static> {
    metrics().span(name)
}

/// Starts a span timer on the global registry at an explicit parent path,
/// ignoring the thread's span stack. See [`Registry::span_under`].
pub fn span_under(parent: &str, name: &str) -> ScopedTimer<'static> {
    metrics().span_under(parent, name)
}

/// The calling thread's innermost live span path on the global registry
/// (empty when no span is open). Capture this before spawning workers and
/// pass it to [`span_under`] so their spans nest consistently.
pub fn current_span_path() -> String {
    metrics().current_span_path()
}

/// The process-wide flight recorder (disabled until
/// [`FlightRecorder::enable`] is called). The mappers and engine record
/// decision events into this instance; `--flight FILE` on the experiment
/// binaries enables it and writes [`FlightRecorder::snapshot`] at exit.
pub fn flight() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(FlightRecorder::default)
}

/// Records one decision event on the global [`flight`] recorder under the
/// calling thread's current scope. One relaxed atomic load when disabled.
pub fn flight_event(event: FlightEvent) {
    flight().record(event);
}

/// The process-wide Chrome trace collector (disabled until
/// [`ChromeTrace::enable`] is called). Every span on every registry feeds
/// it while enabled; `--chrome-trace FILE` on the experiment binaries
/// enables it and writes [`ChromeTrace::export_json`] at exit.
pub fn chrome() -> &'static ChromeTrace {
    static GLOBAL: OnceLock<ChromeTrace> = OnceLock::new();
    GLOBAL.get_or_init(ChromeTrace::default)
}
