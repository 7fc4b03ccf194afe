//! Exploration budgets shared by all mappers.

use std::time::Duration;

/// Budgets for one mapping attempt.
///
/// The paper lets each mapper explore "a maximum of one hour per II"; the
/// reproduction harness uses seconds-scale budgets, applied identically to
/// every mapper so the relative comparison stands.
#[derive(Clone, Copy, Debug)]
pub struct MapLimits {
    /// Give up raising II beyond this value.
    pub max_ii: u32,
    /// Wall-clock budget per explored II.
    pub ii_time_budget: Duration,
    /// RNG seed (cluster selection, SA moves, tie-breaking).
    pub seed: u64,
}

impl MapLimits {
    /// Budgets suitable for tests and interactive use: II up to 16, half a
    /// second per II.
    pub fn fast() -> Self {
        Self {
            max_ii: 16,
            ii_time_budget: Duration::from_millis(500),
            seed: 0xC0FFEE,
        }
    }

    /// Budgets for the benchmark harness: II up to 20, a few seconds per II.
    pub fn benchmark() -> Self {
        Self {
            max_ii: 20,
            ii_time_budget: Duration::from_secs(4),
            seed: 0xC0FFEE,
        }
    }

    /// Replaces the seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the per-II time budget (builder-style).
    pub fn with_ii_time_budget(mut self, budget: Duration) -> Self {
        self.ii_time_budget = budget;
        self
    }

    /// Replaces the maximum II (builder-style).
    pub fn with_max_ii(mut self, max_ii: u32) -> Self {
        self.max_ii = max_ii;
        self
    }
}

impl Default for MapLimits {
    fn default() -> Self {
        Self::fast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_replace_fields() {
        let l = MapLimits::fast()
            .with_seed(7)
            .with_max_ii(9)
            .with_ii_time_budget(Duration::from_millis(10));
        assert_eq!(l.seed, 7);
        assert_eq!(l.max_ii, 9);
        assert_eq!(l.ii_time_budget, Duration::from_millis(10));
    }

    #[test]
    fn default_is_fast() {
        assert_eq!(MapLimits::default().max_ii, MapLimits::fast().max_ii);
    }
}
