//! Minimum-initiation-interval analysis.
//!
//! `MII = max(ResMII, RecMII)` following Rau's iterative modulo scheduling:
//! the resource bound counts operation slots per II cycles, the recurrence
//! bound comes from loop-carried dependency cycles.

use crate::Dfg;
use rewire_arch::Cgra;

impl Dfg {
    /// Resource-constrained minimum II on `cgra`, or `None` if some
    /// operation class has zero capacity (the DFG can never map).
    ///
    /// Accounts for both total ALU slots and memory-capable ALU slots, the
    /// two capacity classes of the paper's architectures.
    ///
    /// # Examples
    ///
    /// ```
    /// use rewire_arch::presets;
    /// use rewire_dfg::kernels;
    /// let dfg = kernels::gesummv();
    /// let mii = dfg.res_mii(&presets::paper_4x4_r4()).unwrap();
    /// assert!(mii >= 1);
    /// ```
    pub fn res_mii(&self, cgra: &Cgra) -> Option<u32> {
        if self.num_nodes() == 0 {
            return Some(1);
        }
        let total_pes = cgra.num_pes();
        let mem_pes = cgra.memory_pes().count();
        let mem_ops = self.num_memory_ops();
        if mem_ops > 0 && mem_pes == 0 {
            return None;
        }
        let all = self.num_nodes().div_ceil(total_pes) as u32;
        let mem = if mem_ops > 0 {
            mem_ops.div_ceil(mem_pes) as u32
        } else {
            0
        };
        Some(all.max(mem).max(1))
    }

    /// Recurrence-constrained minimum II.
    ///
    /// The smallest `II ≥ 1` for which the dependence constraint system
    /// `t_dst ≥ t_src + 1 − II·distance` admits a solution, i.e. the graph
    /// with edge weights `1 − II·distance` has no positive-weight cycle
    /// (checked with Bellman–Ford). A DFG without loop-carried edges has
    /// `RecMII = 1`.
    pub fn rec_mii(&self) -> u32 {
        if self.edges().all(|e| e.distance() == 0) {
            return 1;
        }
        // RecMII is bounded by the longest simple cycle latency, itself
        // bounded by the node count (unit latencies).
        let upper = self.num_nodes() as u32 + 1;
        for ii in 1..=upper {
            if !self.has_positive_cycle(ii) {
                return ii;
            }
        }
        upper
    }

    /// `max(ResMII, RecMII)`, or `None` if the DFG can never map on `cgra`.
    pub fn mii(&self, cgra: &Cgra) -> Option<u32> {
        Some(self.res_mii(cgra)?.max(self.rec_mii()))
    }

    /// Bellman–Ford positive-cycle detection with weights `1 − II·dist`.
    fn has_positive_cycle(&self, ii: u32) -> bool {
        let n = self.num_nodes();
        // Longest-path relaxations from a virtual source connected to all
        // nodes with weight 0.
        let mut dist = vec![0i64; n];
        for _ in 0..n {
            let mut changed = false;
            for e in self.edges() {
                let w = 1i64 - ii as i64 * e.distance() as i64;
                let cand = dist[e.src().index()] + w;
                if cand > dist[e.dst().index()] {
                    dist[e.dst().index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
        }
        // One more pass: any further relaxation implies a positive cycle.
        for e in self.edges() {
            let w = 1i64 - ii as i64 * e.distance() as i64;
            if dist[e.src().index()] + w > dist[e.dst().index()] {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::{presets, OpKind};

    #[test]
    fn chain_rec_mii_is_one() {
        let mut g = Dfg::new("chain");
        let a = g.add_node("a", OpKind::Load);
        let b = g.add_node("b", OpKind::Add);
        g.add_edge(a, b, 0).unwrap();
        assert_eq!(g.rec_mii(), 1);
    }

    #[test]
    fn accumulator_rec_mii_is_cycle_latency_over_distance() {
        // phi -> add -> phi with distance 1: two unit-latency ops per
        // iteration of the recurrence => RecMII = 2.
        let mut g = Dfg::new("acc");
        let phi = g.add_node("phi", OpKind::Phi);
        let add = g.add_node("add", OpKind::Add);
        g.add_edge(phi, add, 0).unwrap();
        g.add_edge(add, phi, 1).unwrap();
        assert_eq!(g.rec_mii(), 2);
    }

    #[test]
    fn distance_two_halves_rec_mii() {
        // Same 2-op cycle but the value is consumed two iterations later:
        // RecMII = ceil(2/2) = 1.
        let mut g = Dfg::new("acc2");
        let phi = g.add_node("phi", OpKind::Phi);
        let add = g.add_node("add", OpKind::Add);
        g.add_edge(phi, add, 0).unwrap();
        g.add_edge(add, phi, 2).unwrap();
        assert_eq!(g.rec_mii(), 1);
    }

    #[test]
    fn long_recurrence() {
        // 4-op cycle with distance 1 => RecMII = 4.
        let mut g = Dfg::new("r4");
        let n: Vec<_> = (0..4)
            .map(|i| g.add_node(format!("n{i}"), OpKind::Add))
            .collect();
        g.add_edge(n[0], n[1], 0).unwrap();
        g.add_edge(n[1], n[2], 0).unwrap();
        g.add_edge(n[2], n[3], 0).unwrap();
        g.add_edge(n[3], n[0], 1).unwrap();
        assert_eq!(g.rec_mii(), 4);
    }

    #[test]
    fn res_mii_counts_memory_pressure() {
        let cgra = presets::paper_4x4_r4(); // 16 PEs, 4 memory PEs
        let mut g = Dfg::new("mem-heavy");
        let mut prev = None;
        for i in 0..9 {
            let ld = g.add_node(format!("ld{i}"), OpKind::Load);
            if let Some(p) = prev {
                g.add_edge(p, ld, 0).unwrap();
            }
            prev = Some(ld);
        }
        // 9 memory ops on 4 memory PEs => ResMII = ceil(9/4) = 3.
        assert_eq!(g.res_mii(&cgra), Some(3));
    }

    #[test]
    fn res_mii_none_when_no_memory_pes() {
        let cgra = rewire_arch::CgraBuilder::new(2, 2).build().unwrap();
        let mut g = Dfg::new("needs-mem");
        g.add_node("ld", OpKind::Load);
        assert_eq!(g.res_mii(&cgra), None);
        assert_eq!(g.mii(&cgra), None);
    }

    #[test]
    fn mii_is_max_of_both_bounds() {
        let cgra = presets::paper_4x4_r4();
        let mut g = Dfg::new("m");
        let phi = g.add_node("phi", OpKind::Phi);
        let a = g.add_node("a", OpKind::Add);
        let b = g.add_node("b", OpKind::Mul);
        g.add_edge(phi, a, 0).unwrap();
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, phi, 1).unwrap();
        assert_eq!(g.rec_mii(), 3);
        assert_eq!(g.res_mii(&cgra), Some(1));
        assert_eq!(g.mii(&cgra), Some(3));
    }
}
