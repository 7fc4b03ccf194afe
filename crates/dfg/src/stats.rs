//! Structural statistics of a DFG — the numbers papers quote about their
//! benchmark suites and that mappers use for difficulty triage.

use crate::Dfg;
use std::collections::BTreeMap;
use std::fmt;

/// Summary statistics of one DFG.
#[derive(Clone, Debug)]
pub struct DfgStats {
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Loop-carried edge count.
    pub carried_edges: usize,
    /// Memory operations (loads + stores).
    pub memory_ops: usize,
    /// Critical-path depth (intra edges).
    pub depth: u32,
    /// Recurrence-constrained minimum II.
    pub rec_mii: u32,
    /// Largest fan-out of any producer.
    pub max_fanout: usize,
    /// Mean fan-out over producers with at least one consumer.
    pub mean_fanout: f64,
    /// Histogram of operation kinds.
    pub op_histogram: BTreeMap<&'static str, usize>,
}

impl Dfg {
    /// Computes the summary statistics.
    ///
    /// # Examples
    ///
    /// ```
    /// use rewire_dfg::kernels;
    /// let s = kernels::gesummv().stats();
    /// assert!(s.nodes >= 26);
    /// assert!(s.memory_ops > 0);
    /// assert!(s.op_histogram["ld"] > 0);
    /// ```
    pub fn stats(&self) -> DfgStats {
        let mut op_histogram: BTreeMap<&'static str, usize> = BTreeMap::new();
        for n in self.nodes() {
            *op_histogram.entry(n.op().mnemonic()).or_insert(0) += 1;
        }
        let fanouts: Vec<usize> = self
            .node_ids()
            .map(|v| self.children(v).count())
            .filter(|&f| f > 0)
            .collect();
        DfgStats {
            nodes: self.num_nodes(),
            edges: self.num_edges(),
            carried_edges: self.edges().filter(|e| e.is_loop_carried()).count(),
            memory_ops: self.num_memory_ops(),
            depth: self.longest_path(),
            rec_mii: self.rec_mii(),
            max_fanout: fanouts.iter().copied().max().unwrap_or(0),
            mean_fanout: if fanouts.is_empty() {
                0.0
            } else {
                fanouts.iter().sum::<usize>() as f64 / fanouts.len() as f64
            },
            op_histogram,
        }
    }

    /// Fraction of nodes that are memory operations.
    pub fn memory_fraction(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_memory_ops() as f64 / self.num_nodes() as f64
        }
    }
}

impl fmt::Display for DfgStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} nodes, {} edges ({} carried), {} memory ops, depth {}, RecMII {}",
            self.nodes, self.edges, self.carried_edges, self.memory_ops, self.depth, self.rec_mii
        )?;
        write!(
            f,
            "fanout max {} / mean {:.2}; ops:",
            self.max_fanout, self.mean_fanout
        )?;
        for (op, count) in &self.op_histogram {
            write!(f, " {op}×{count}")?;
        }
        Ok(())
    }
}

/// Suite-level aggregates over a list of DFGs — the numbers §V quotes
/// ("The number of DFG nodes varies from 26 to 51 and the average is 38").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuiteStats {
    /// Smallest kernel.
    pub min_nodes: usize,
    /// Largest kernel.
    pub max_nodes: usize,
    /// Mean size.
    pub mean_nodes: f64,
    /// Number of kernels.
    pub count: usize,
}

/// Aggregates node counts over `dfgs`.
pub fn suite_stats<'a, I: IntoIterator<Item = &'a Dfg>>(dfgs: I) -> SuiteStats {
    let sizes: Vec<usize> = dfgs.into_iter().map(|d| d.num_nodes()).collect();
    SuiteStats {
        min_nodes: sizes.iter().copied().min().unwrap_or(0),
        max_nodes: sizes.iter().copied().max().unwrap_or(0),
        mean_nodes: if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
        },
        count: sizes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    #[test]
    fn suite_statistics_match_the_paper_band() {
        let suite: Vec<Dfg> = kernels::all().into_iter().map(|(_, d)| d).collect();
        let s = suite_stats(suite.iter());
        assert!(s.min_nodes >= 26);
        assert!(s.max_nodes <= 51);
        assert!((30.0..=43.0).contains(&s.mean_nodes));
        assert_eq!(s.count, suite.len());
    }

    #[test]
    fn histogram_sums_to_node_count() {
        let d = kernels::cholesky();
        let s = d.stats();
        let total: usize = s.op_histogram.values().sum();
        assert_eq!(total, s.nodes);
    }

    #[test]
    fn memory_fraction_is_sane() {
        for (name, d) in kernels::all() {
            let f = d.memory_fraction();
            assert!((0.05..=0.5).contains(&f), "{name}: {f}");
        }
    }

    #[test]
    fn display_renders() {
        let s = kernels::fir().stats();
        let text = format!("{s}");
        assert!(text.contains("RecMII"));
        assert!(text.contains("ld×"));
    }

    #[test]
    fn empty_suite() {
        let s = suite_stats(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_nodes, 0.0);
    }
}
