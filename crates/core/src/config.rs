//! Rewire tuning knobs.

/// Configuration of the Rewire mapper.
///
/// Defaults follow the paper: cluster size capped at α = 15. The paper's
/// propagation rounds (3× the parent/child cycle spread, 5× the cluster's
/// longest path when one side is empty) are fixed constants of the mapper.
#[derive(Clone, Debug)]
pub struct RewireConfig {
    /// Maximum cluster size α (the paper limits |U| to 15). The first
    /// cluster of each amendment holds `min(α, 3)` nodes.
    pub alpha: usize,
    /// Hard cap on `Placement(U)` combinations verified per cluster
    /// attempt (the paper relies on its per-II time limit; this keeps unit
    /// tests bounded too).
    pub max_verifications: u64,
    /// Keep at most this many `(PE, cycle)` candidates per cluster node,
    /// earliest execution cycles first.
    pub max_candidates_per_node: usize,
    /// Hard cap on cluster-amendment attempts per II.
    pub max_cluster_attempts: u64,
    /// Hard cap on Algorithm 2 enumeration steps per cluster attempt —
    /// combinatorial blow-ups fail fast and grow the cluster instead.
    pub max_search_steps: u64,
    /// Randomised amendment restarts per II (within the time budget).
    pub max_restarts_per_ii: u32,
}

impl Default for RewireConfig {
    fn default() -> Self {
        Self {
            alpha: 15,
            max_verifications: 400,
            max_candidates_per_node: 256,
            max_cluster_attempts: 200,
            max_search_steps: 150_000,
            max_restarts_per_ii: u32::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        assert_eq!(RewireConfig::default().alpha, 15);
    }
}
