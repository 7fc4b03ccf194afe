//! Scenario generation: one fuzz seed ⇒ one (DFG, fabric) pair.
//!
//! A scenario is fully determined by its seed: the seed is split (via
//! SplitMix64) into independent streams for the DFG-shape draw, the DFG
//! itself, the fabric, and the mapper RNGs, so regenerating any part never
//! perturbs the others.

use rewire_arch::random::{random_cgra_spec, CgraSpec, RandomCgraParams};
use rewire_arch::Cgra;
use rewire_dfg::generate::{random_dfg, RandomDfgParams};
use rewire_dfg::Dfg;

/// SplitMix64: decorrelates a base seed and a salt into an independent
/// stream seed, so one fuzz seed can deterministically spawn many
/// sub-streams.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One generated fuzz scenario: a random kernel on a random fabric.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The fuzz seed that produced it.
    pub seed: u64,
    /// The kernel.
    pub dfg: Dfg,
    /// The fabric, as a re-buildable spec (what artifacts persist).
    pub spec: CgraSpec,
    /// The built fabric.
    pub cgra: Cgra,
}

impl Scenario {
    /// Generates the scenario for `seed`. Deterministic: same seed ⇒
    /// byte-identical DFG text and fabric spec.
    ///
    /// The DFG-shape knobs themselves are drawn from the seed, so the
    /// population covers sizes 4–14 nodes (well inside the exact SAT
    /// oracle's size guard,
    /// [`ExactSatMapper::MAX_NODES`](rewire_mappers::ExactSatMapper::MAX_NODES)
    /// and [`MAX_PES`](rewire_mappers::ExactSatMapper::MAX_PES), so it
    /// takes every scenario),
    /// recurrence counts 0–3, depths 1–3, carry distances up to 3,
    /// memory fractions 0–0.35 and a *promoted* fan-out-skew knob: a base
    /// skew of 1–3 (salt 16) escalated 2.5× on a quarter of the seeds
    /// (salt 17, its own stream so the older draws stay put), so the
    /// population reliably contains the fan-out-hub kernels the
    /// Steiner-tree router exists for. Fabrics span 2×2 up to 5×5 with
    /// 1–4 registers, occasional torus/diagonal links and occasional
    /// memory-free grids (those make memory kernels *infeasible* — MII
    /// undefined — which is a scenario class of its own: every mapper
    /// must give up cleanly and agree).
    pub fn generate(seed: u64) -> Self {
        // Independent draw streams.
        let shape = mix(seed, 1);
        let dfg_seed = mix(seed, 2);
        let arch_seed = mix(seed, 3);

        let pick = |salt: u64, n: u64| mix(shape, salt) % n;
        let dfg_params = RandomDfgParams {
            nodes: 4 + pick(10, 11) as usize,                    // 4..=14
            second_operand_prob: 0.3 + pick(11, 6) as f64 * 0.1, // 0.3..=0.8
            memory_fraction: pick(12, 8) as f64 * 0.05,          // 0.0..=0.35
            recurrences: pick(13, 4) as usize,                   // 0..=3
            max_distance: 1 + pick(14, 3) as u32,                // 1..=3
            recurrence_depth: 1 + pick(15, 3) as usize,          // 1..=3
            // Promoted knob: base skew 1..=3, with a heavy-fan-out tail on
            // ~25% of seeds (2.5x escalation, up to 7.5). The escalation
            // draw uses a fresh salt so seeds keep their other parameters.
            fanout_skew: [1.0, 1.0, 2.0, 3.0][pick(16, 4) as usize]
                * [1.0, 1.0, 1.0, 2.5][pick(17, 4) as usize],
        };
        let arch_params = RandomCgraParams {
            rows: (2, 5),
            cols: (2, 5),
            regs_per_pe: (1, 4),
            memory_prob: 0.85,
            memory_banks: (1, 4),
            max_memory_columns: 2,
            torus_prob: 0.15,
            diagonal_prob: 0.15,
            // Stays 0.0: the checked-in corpus pins the seed -> spec
            // correspondence, and a zero probability consumes no RNG draw.
            cut_prob: 0.0,
        };

        let dfg = random_dfg(&dfg_params, dfg_seed);
        let spec = random_cgra_spec(&arch_params, arch_seed);
        let cgra = spec.build().expect("random specs always build");
        Self {
            seed,
            dfg,
            spec,
            cgra,
        }
    }

    /// Rebuilds a scenario around an explicit DFG and fabric spec (the
    /// shrinker's candidates, artifact replay).
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not build — shrink candidates and persisted
    /// artifacts are produced from specs that built before.
    pub fn from_parts(seed: u64, dfg: Dfg, spec: CgraSpec) -> Self {
        let cgra = spec.build().expect("spec must build");
        Self {
            seed,
            dfg,
            spec,
            cgra,
        }
    }

    /// One-line structural summary, stable across reruns (no timing).
    pub fn summary(&self) -> String {
        let mii = self
            .dfg
            .mii(&self.cgra)
            .map_or("-".to_string(), |m| m.to_string());
        format!(
            "{}n/{}e mem={} mii={} on {}",
            self.dfg.num_nodes(),
            self.dfg.num_edges(),
            self.dfg.num_memory_ops(),
            mii,
            self.spec
        )
    }

    /// The base RNG seed handed to the mappers for this scenario.
    pub fn mapper_seed(&self) -> u64 {
        mix(self.seed, 4)
    }

    /// The input seed for the semantic (golden-model) check.
    pub fn input_seed(&self) -> u64 {
        mix(self.seed, 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_mappers::ExactSatMapper;

    #[test]
    fn same_seed_same_scenario() {
        let a = Scenario::generate(17);
        let b = Scenario::generate(17);
        assert_eq!(a.dfg.to_text(), b.dfg.to_text());
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn seeds_diversify_both_sides() {
        let dfgs: std::collections::HashSet<String> = (0..24)
            .map(|s| Scenario::generate(s).dfg.to_text())
            .collect();
        let specs: std::collections::HashSet<String> = (0..24)
            .map(|s| Scenario::generate(s).spec.to_string())
            .collect();
        assert!(dfgs.len() >= 20, "{} distinct DFGs", dfgs.len());
        assert!(specs.len() >= 8, "{} distinct fabrics", specs.len());
    }

    #[test]
    fn scenarios_are_structurally_sound() {
        for seed in 0..64 {
            let s = Scenario::generate(seed);
            assert!(s.dfg.validate().is_ok(), "seed {seed}");
            assert!(s.dfg.num_nodes() >= 4, "seed {seed}");
            assert!(s.cgra.num_pes() >= 4, "seed {seed}");
        }
    }

    #[test]
    fn population_covers_key_classes() {
        let mut infeasible = 0;
        let mut deep_distance = 0;
        let mut fanout_hub = 0;
        for seed in 0..128 {
            let s = Scenario::generate(seed);
            // Inside the exact SAT backend's size guard: it never refuses.
            assert!(
                s.dfg.num_nodes() <= ExactSatMapper::MAX_NODES,
                "seed {seed}"
            );
            assert!(s.cgra.num_pes() <= ExactSatMapper::MAX_PES, "seed {seed}");
            if s.dfg.mii(&s.cgra).is_none() {
                infeasible += 1;
            }
            if s.dfg.edges().any(|e| e.distance() > 1) {
                deep_distance += 1;
            }
            let max_out = (0..s.dfg.num_nodes() as u32)
                .map(|n| s.dfg.out_edges(rewire_dfg::NodeId::new(n)).len())
                .max()
                .unwrap_or(0);
            if max_out >= 3 {
                fanout_hub += 1;
            }
        }
        assert!(infeasible > 0, "no infeasible scenario in 128 seeds");
        assert!(deep_distance > 20, "{deep_distance} deep-carry scenarios");
        // The promoted fan-out-skew knob must keep hub kernels (a node
        // with >= 3 sinks) a substantial scenario class.
        assert!(fanout_hub > 15, "{fanout_hub} fan-out-hub scenarios");
    }

    #[test]
    fn mix_decorrelates() {
        assert_ne!(mix(0, 1), mix(0, 2));
        assert_ne!(mix(1, 1), mix(2, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
