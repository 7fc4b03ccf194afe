//! The CGRA configurations evaluated in the Rewire paper (§V).
//!
//! All 4×4 variants have two local memory banks accessible from the left-most
//! PE column; the 8×8 variant has eight banks accessible from the left-most
//! and right-most columns (16 memory PEs).

use crate::{Cgra, CgraBuilder};

/// 4×4 CGRA, four registers per PE (the paper's baseline, Fig 5a).
pub fn paper_4x4_r4() -> Cgra {
    four_by_four(4)
}

/// 4×4 CGRA, two registers per PE (Fig 5c).
pub fn paper_4x4_r2() -> Cgra {
    four_by_four(2)
}

/// 4×4 CGRA, one register per PE — the paper's deliberately impractical
/// extreme-case configuration (Fig 5d).
pub fn paper_4x4_r1() -> Cgra {
    four_by_four(1)
}

/// 8×8 CGRA, four registers per PE (Fig 5b).
pub fn paper_8x8_r4() -> Cgra {
    CgraBuilder::new(8, 8)
        .regs_per_pe(4)
        .memory_banks(8)
        .memory_columns([0, 7])
        .build()
        .expect("preset configuration is valid")
}

/// All four paper configurations with their Fig 5 labels, in figure order.
pub fn all_paper_configs() -> Vec<(&'static str, Cgra)> {
    vec![
        ("4x4 4reg", paper_4x4_r4()),
        ("8x8 4reg", paper_8x8_r4()),
        ("4x4 2reg", paper_4x4_r2()),
        ("4x4 1reg", paper_4x4_r1()),
    ]
}

fn four_by_four(regs: u8) -> Cgra {
    CgraBuilder::new(4, 4)
        .regs_per_pe(regs)
        .memory_banks(2)
        .memory_columns([0])
        .build()
        .expect("preset configuration is valid")
}

/// 16×16 mesh, four registers per PE, memory on the outermost columns —
/// the 8×8 paper fabric's layout continued one doubling up.
pub fn mesh16() -> Cgra {
    big_mesh(16)
}

/// 32×32 mesh (1024 PEs): big enough that a quadratic structure shows,
/// small enough to map in seconds. The benchmark's large-fabric workload
/// and the amendment golden run on it.
pub fn mesh32() -> Cgra {
    big_mesh(32)
}

/// 64×64 mesh (4096 PEs): the scaling suite's top end. An all-pairs
/// distance table here would be 67 MB; the router's distance oracle holds
/// only the rows of the destinations it routes to.
pub fn mesh64() -> Cgra {
    big_mesh(64)
}

/// The scaling-curve fabric ladder (`EXPERIMENTS.md` §scaling), smallest
/// first: the two paper meshes, then each doubling up to 64×64.
pub fn scaling_configs() -> Vec<(&'static str, Cgra)> {
    vec![
        ("4x4", paper_4x4_r4()),
        ("8x8", paper_8x8_r4()),
        ("16x16", mesh16()),
        ("32x32", mesh32()),
        ("64x64", mesh64()),
    ]
}

fn big_mesh(n: u16) -> Cgra {
    // One bank per memory PE row mirrors the paper 8×8's eight banks for
    // two memory columns of eight rows each; memory stays on the fabric
    // edge so interior PEs are pure compute.
    CgraBuilder::new(n, n)
        .regs_per_pe(4)
        .memory_banks(n)
        .memory_columns([0, n - 1])
        .build()
        .expect("preset configuration is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paper_configs_build() {
        let configs = all_paper_configs();
        assert_eq!(configs.len(), 4);
        for (label, cgra) in configs {
            assert!(cgra.num_pes() >= 16, "{label}");
            assert!(cgra.memory_pes().count() > 0, "{label}");
        }
    }

    #[test]
    fn register_counts() {
        assert_eq!(paper_4x4_r4().regs_per_pe(), 4);
        assert_eq!(paper_4x4_r2().regs_per_pe(), 2);
        assert_eq!(paper_4x4_r1().regs_per_pe(), 1);
        assert_eq!(paper_8x8_r4().regs_per_pe(), 4);
    }

    #[test]
    fn bank_counts_match_paper() {
        assert_eq!(paper_4x4_r4().memory_banks(), 2);
        assert_eq!(paper_8x8_r4().memory_banks(), 8);
    }

    #[test]
    fn big_meshes_build_and_scale() {
        let ladder = scaling_configs();
        assert_eq!(ladder.len(), 5);
        let sizes: Vec<usize> = ladder.iter().map(|(_, c)| c.num_pes()).collect();
        assert_eq!(sizes, vec![16, 64, 256, 1024, 4096]);
        for (label, cgra) in &ladder {
            assert!(cgra.memory_pes().count() > 0, "{label}");
            assert_eq!(cgra.regs_per_pe(), 4, "{label}");
        }
        assert_eq!(mesh64().memory_banks(), 64);
    }
}
