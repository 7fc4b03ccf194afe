//! The common mapper interface.

use crate::{MapLimits, MapStats, Mapping};
use rewire_arch::Cgra;
use rewire_dfg::Dfg;

/// Result of a mapping attempt: the mapping (if one was found) plus the
/// run record the evaluation harness reports.
#[derive(Clone, Debug)]
pub struct MapOutcome {
    /// A validated mapping, or `None` on failure.
    pub mapping: Option<Mapping>,
    /// The run record: identity, counters and timings (always populated).
    pub stats: MapStats,
}

/// A CGRA mapper: given a DFG and an architecture, find a valid mapping at
/// the lowest II it can within the budgets.
///
/// Implementations in this workspace: `PathFinderMapper` (PF*),
/// `SaMapper` (SA), and `RewireMapper` in the `rewire-core` crate.
pub trait Mapper {
    /// Display name used in tables (`"PF*"`, `"SA"`, `"Rewire"`).
    fn name(&self) -> &'static str;

    /// Attempts to map `dfg` onto `cgra`.
    ///
    /// Contract (audited by the shared conformance suite): if
    /// `MapOutcome::mapping` is `Some`, it validates cleanly against
    /// `dfg`/`cgra` and its II equals `stats.achieved_ii`; on failure
    /// `stats` is still fully populated, `stats.gave_up` saying why; the
    /// record carries `cgra.label()` and `limits.seed`; and identical
    /// inputs (same seed, same budgets, caps binding before wall-clock
    /// deadlines) produce identical outcomes.
    fn map(&self, dfg: &Dfg, cgra: &Cgra, limits: &MapLimits) -> MapOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trait must stay object-safe: the bench harness stores mappers as
    // `Box<dyn Mapper>`.
    #[test]
    fn mapper_is_object_safe() {
        fn _takes(_: &dyn Mapper) {}
    }

    #[test]
    fn outcome_is_cloneable() {
        let o = MapOutcome {
            mapping: None,
            stats: MapStats::default(),
        };
        let _ = o.clone();
    }
}
