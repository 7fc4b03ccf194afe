//! Seeded random fabric generation for the differential fuzz harness.
//!
//! Mirrors `rewire_dfg::generate` on the architecture side: the fuzzer
//! pairs a random DFG with a random fabric and asks every mapper about the
//! combination. A [`CgraSpec`] is the persistable intermediate — small,
//! printable, and exactly reconstructible — so a shrunk failure artifact
//! can embed the fabric alongside the DFG text.

use crate::{BuildCgraError, Cgra, CgraBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::str::FromStr;

/// A buildable description of a mesh CGRA: everything [`CgraBuilder`]
/// accepts, as plain data.
///
/// Unlike [`Cgra`] (id-resolved PEs and links), a spec is cheap to store,
/// compare and print; [`CgraSpec::build`] re-derives the full fabric
/// deterministically. The fuzz corpus stores specs in their
/// [`Display`](fmt::Display) form, e.g. `4x4 regs=2 banks=2 memcols=0
/// torus diag`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CgraSpec {
    /// Mesh rows.
    pub rows: u16,
    /// Mesh columns.
    pub cols: u16,
    /// Register cells per PE.
    pub regs_per_pe: u8,
    /// On-chip memory banks (0 = pure-compute fabric).
    pub memory_banks: u16,
    /// Columns whose PEs may issue memory operations (sorted, deduped).
    pub memory_columns: Vec<u16>,
    /// Torus wrap-around links.
    pub torus: bool,
    /// Diagonal single-hop links.
    pub diagonals: bool,
    /// Severed horizontal boundary (`Some(r)` disconnects rows `0..r` from
    /// rows `r..rows`), for exercising unreachable-PE behaviour.
    pub cut_row: Option<u16>,
}

impl CgraSpec {
    /// The spec of an `n`×`n` mesh preset in the big-fabric layout
    /// (`presets::mesh16/32/64`): four registers per PE, one bank per
    /// row, memory on the outermost columns.
    pub fn mesh(n: u16) -> Self {
        Self {
            rows: n,
            cols: n,
            regs_per_pe: 4,
            memory_banks: n,
            memory_columns: if n > 1 { vec![0, n - 1] } else { vec![0] },
            torus: false,
            diagonals: false,
            cut_row: None,
        }
    }

    /// Builds the fabric this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`BuildCgraError`] for hand-written inconsistent specs
    /// (empty grid, memory column out of range, banks without columns);
    /// specs from [`random_cgra_spec`] always build.
    pub fn build(&self) -> Result<Cgra, BuildCgraError> {
        let mut builder = CgraBuilder::new(self.rows, self.cols)
            .regs_per_pe(self.regs_per_pe)
            .memory_banks(self.memory_banks)
            .memory_columns(self.memory_columns.iter().copied())
            .torus(self.torus)
            .diagonals(self.diagonals);
        if let Some(cut) = self.cut_row {
            builder = builder.cut_row(cut);
        }
        builder.build()
    }
}

impl fmt::Display for CgraSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} regs={} banks={}",
            self.rows, self.cols, self.regs_per_pe, self.memory_banks
        )?;
        if !self.memory_columns.is_empty() {
            let cols: Vec<String> = self.memory_columns.iter().map(u16::to_string).collect();
            write!(f, " memcols={}", cols.join(","))?;
        }
        if self.torus {
            f.write_str(" torus")?;
        }
        if self.diagonals {
            f.write_str(" diag")?;
        }
        if let Some(cut) = self.cut_row {
            write!(f, " cut={cut}")?;
        }
        Ok(())
    }
}

/// Error from parsing a [`CgraSpec`] display string.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseCgraSpecError(String);

impl fmt::Display for ParseCgraSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad CGRA spec: {}", self.0)
    }
}

impl std::error::Error for ParseCgraSpecError {}

impl FromStr for CgraSpec {
    type Err = ParseCgraSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut tokens = s.split_whitespace();
        let dims = tokens
            .next()
            .ok_or_else(|| ParseCgraSpecError("empty spec".into()))?;
        let (rows, cols) = dims
            .split_once('x')
            .ok_or_else(|| ParseCgraSpecError(format!("expected RxC, got '{dims}'")))?;
        let mut spec = CgraSpec {
            rows: parse_num("rows", rows)?,
            cols: parse_num("cols", cols)?,
            regs_per_pe: 4,
            memory_banks: 0,
            memory_columns: Vec::new(),
            torus: false,
            diagonals: false,
            cut_row: None,
        };
        for tok in tokens {
            if let Some(v) = tok.strip_prefix("regs=") {
                spec.regs_per_pe = parse_num("regs", v)?;
            } else if let Some(v) = tok.strip_prefix("banks=") {
                spec.memory_banks = parse_num("banks", v)?;
            } else if let Some(v) = tok.strip_prefix("memcols=") {
                for c in v.split(',') {
                    spec.memory_columns.push(parse_num("memcol", c)?);
                }
            } else if let Some(v) = tok.strip_prefix("cut=") {
                spec.cut_row = Some(parse_num("cut", v)?);
            } else if tok == "torus" {
                spec.torus = true;
            } else if tok == "diag" {
                spec.diagonals = true;
            } else {
                return Err(ParseCgraSpecError(format!("unknown token '{tok}'")));
            }
        }
        Ok(spec)
    }
}

/// Parses one spec number into its field's own type, so an out-of-range
/// value is an error rather than a silently truncated one.
fn parse_num<T: FromStr>(what: &str, v: &str) -> Result<T, ParseCgraSpecError> {
    v.parse()
        .map_err(|_| ParseCgraSpecError(format!("bad {what} '{v}'")))
}

/// Parameters for [`random_cgra_spec`].
///
/// Defaults sample small fabrics (2×2 up to 6×6) around the paper's 4×4
/// baseline, with occasional torus/diagonal interconnects and occasional
/// memory-free fabrics — the latter deliberately produce infeasible
/// scenarios (a DFG with loads on a fabric with no memory PEs) so the
/// fuzzer also exercises every mapper's give-up paths.
#[derive(Clone, Debug)]
pub struct RandomCgraParams {
    /// Inclusive row range.
    pub rows: (u16, u16),
    /// Inclusive column range.
    pub cols: (u16, u16),
    /// Inclusive registers-per-PE range.
    pub regs_per_pe: (u8, u8),
    /// Probability the fabric has memory banks at all.
    pub memory_prob: f64,
    /// Inclusive bank-count range when memory is present.
    pub memory_banks: (u16, u16),
    /// Maximum number of memory columns when memory is present (at least 1
    /// is always chosen; capped by the fabric's column count).
    pub max_memory_columns: u16,
    /// Probability of torus wrap-around links.
    pub torus_prob: f64,
    /// Probability of diagonal links.
    pub diagonal_prob: f64,
    /// Probability of a severed row boundary (disconnected fabric). Zero by
    /// default so existing seed streams are unchanged; only fabrics with at
    /// least two rows can be cut.
    pub cut_prob: f64,
}

impl Default for RandomCgraParams {
    fn default() -> Self {
        Self {
            rows: (2, 6),
            cols: (2, 6),
            regs_per_pe: (1, 4),
            memory_prob: 0.85,
            memory_banks: (1, 4),
            max_memory_columns: 2,
            torus_prob: 0.15,
            diagonal_prob: 0.15,
            cut_prob: 0.0,
        }
    }
}

impl RandomCgraParams {
    /// Parameters sampling big fabrics (12×12 up to 40×40) with occasional
    /// cut rows, so property tests exercise the lazy occupancy paths and
    /// large topologies, not just the paper-scale meshes.
    pub fn large_fabric() -> Self {
        Self {
            rows: (12, 40),
            cols: (12, 40),
            regs_per_pe: (2, 4),
            memory_prob: 0.9,
            memory_banks: (4, 16),
            max_memory_columns: 4,
            torus_prob: 0.1,
            diagonal_prob: 0.1,
            cut_prob: 0.1,
        }
    }
}

/// Draws a random fabric spec. Deterministic: same `params` and `seed` ⇒
/// identical spec.
///
/// The result always satisfies [`CgraBuilder`]'s invariants (non-empty
/// grid, in-range memory columns, banks ⇔ columns), so
/// [`CgraSpec::build`] cannot fail on it.
///
/// # Examples
///
/// ```
/// use rewire_arch::random::{random_cgra_spec, RandomCgraParams};
/// let spec = random_cgra_spec(&RandomCgraParams::default(), 7);
/// assert_eq!(spec, random_cgra_spec(&RandomCgraParams::default(), 7));
/// let cgra = spec.build().expect("random specs always build");
/// assert!(cgra.num_pes() >= 4);
/// ```
///
/// # Panics
///
/// Panics if a range in `params` is inverted (e.g. `rows.0 > rows.1`).
pub fn random_cgra_spec(params: &RandomCgraParams, seed: u64) -> CgraSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = rng.random_range(params.rows.0..=params.rows.1).max(1);
    let cols = rng.random_range(params.cols.0..=params.cols.1).max(1);
    let regs_per_pe = rng
        .random_range(params.regs_per_pe.0..=params.regs_per_pe.1)
        .max(1);

    let (memory_banks, memory_columns) = if rng.random_bool(params.memory_prob) {
        let banks = rng
            .random_range(params.memory_banks.0..=params.memory_banks.1)
            .max(1);
        let n_cols = rng
            .random_range(1..=params.max_memory_columns.max(1))
            .min(cols);
        let mut all: Vec<u16> = (0..cols).collect();
        all.shuffle(&mut rng);
        let mut chosen: Vec<u16> = all.into_iter().take(n_cols as usize).collect();
        chosen.sort_unstable();
        (banks, chosen)
    } else {
        (0, Vec::new())
    };

    let torus = rng.random_bool(params.torus_prob);
    let diagonals = rng.random_bool(params.diagonal_prob);
    // Drawn after every pre-existing field so seeds from before the cut-row
    // feature still produce byte-identical specs when `cut_prob` is 0.
    let cut_row = if params.cut_prob > 0.0 && rows >= 2 && rng.random_bool(params.cut_prob) {
        Some(rng.random_range(1..rows))
    } else {
        None
    };

    CgraSpec {
        rows,
        cols,
        regs_per_pe,
        memory_banks,
        memory_columns,
        torus,
        diagonals,
        cut_row,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let p = RandomCgraParams::default();
        assert_eq!(random_cgra_spec(&p, 3), random_cgra_spec(&p, 3));
    }

    #[test]
    fn seeds_vary_the_fabric() {
        let p = RandomCgraParams::default();
        let distinct: std::collections::HashSet<String> = (0..32)
            .map(|s| random_cgra_spec(&p, s).to_string())
            .collect();
        assert!(distinct.len() > 8, "only {} distinct specs", distinct.len());
    }

    #[test]
    fn every_random_spec_builds() {
        let p = RandomCgraParams::default();
        for seed in 0..200 {
            let spec = random_cgra_spec(&p, seed);
            let cgra = spec.build().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(
                cgra.num_pes() as u32,
                spec.rows as u32 * spec.cols as u32,
                "seed {seed}"
            );
            assert!(spec.regs_per_pe >= 1);
            // Banks and columns are consistent by construction.
            assert_eq!(
                spec.memory_banks == 0,
                spec.memory_columns.is_empty(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn memory_free_fabrics_occur() {
        let p = RandomCgraParams {
            memory_prob: 0.5,
            ..Default::default()
        };
        let free = (0..64)
            .filter(|&s| random_cgra_spec(&p, s).memory_banks == 0)
            .count();
        assert!(free > 0, "no memory-free fabric in 64 seeds");
        assert!(free < 64, "every fabric memory-free in 64 seeds");
    }

    #[test]
    fn cut_fabrics_occur_and_build() {
        let p = RandomCgraParams {
            cut_prob: 0.5,
            ..Default::default()
        };
        let mut cut = 0;
        for seed in 0..64 {
            let spec = random_cgra_spec(&p, seed);
            let cgra = spec.build().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            if let Some(r) = spec.cut_row {
                cut += 1;
                assert!(r >= 1 && r < spec.rows, "seed {seed}");
                assert!(cgra.num_pes() >= 4);
            }
        }
        assert!(cut > 0, "no cut fabric in 64 seeds");
        assert!(cut < 64, "every fabric cut in 64 seeds");
    }

    #[test]
    fn zero_cut_prob_preserves_legacy_seed_stream() {
        // The cut draw is appended after all pre-existing draws and skipped
        // entirely at probability zero, so default-params specs match the
        // pre-cut-row format byte for byte.
        let p = RandomCgraParams::default();
        for seed in 0..64 {
            let spec = random_cgra_spec(&p, seed);
            assert_eq!(spec.cut_row, None, "seed {seed}");
        }
    }

    #[test]
    fn display_round_trips() {
        let p = RandomCgraParams::default();
        for seed in 0..64 {
            let spec = random_cgra_spec(&p, seed);
            let parsed: CgraSpec = spec.to_string().parse().unwrap();
            assert_eq!(parsed, spec, "seed {seed}");
        }
    }

    #[test]
    fn display_round_trips_hand_written() {
        let spec = CgraSpec {
            rows: 3,
            cols: 5,
            regs_per_pe: 2,
            memory_banks: 2,
            memory_columns: vec![0, 4],
            torus: true,
            diagonals: true,
            cut_row: Some(2),
        };
        let s = spec.to_string();
        assert_eq!(s, "3x5 regs=2 banks=2 memcols=0,4 torus diag cut=2");
        assert_eq!(s.parse::<CgraSpec>().unwrap(), spec);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!("".parse::<CgraSpec>().is_err());
        assert!("4".parse::<CgraSpec>().is_err());
        assert!("4x4 wat".parse::<CgraSpec>().is_err());
        assert!("4x4 regs=zz".parse::<CgraSpec>().is_err());
        let err = "nope".parse::<CgraSpec>().unwrap_err();
        assert!(err.to_string().contains("expected RxC"));
        // Out-of-range numbers are errors, never truncated values.
        for bad in [
            "65537x2",
            "2x65536",
            "4x4 regs=256",
            "4x4 banks=65536",
            "4x4 banks=1 memcols=65536",
            "4x4 cut=65536",
            "-1x4",
        ] {
            let err = bad.parse::<CgraSpec>().unwrap_err();
            assert!(
                err.to_string().starts_with("bad CGRA spec: bad "),
                "{bad}: {err}"
            );
        }
        assert_eq!("4x4 regs=255".parse::<CgraSpec>().unwrap().regs_per_pe, 255);
    }

    #[test]
    fn mesh_spec_matches_the_presets() {
        for (n, preset) in [
            (16u16, crate::presets::mesh16()),
            (32, crate::presets::mesh32()),
        ] {
            let built = CgraSpec::mesh(n).build().unwrap();
            assert_eq!(
                built.topology_fingerprint(),
                preset.topology_fingerprint(),
                "{n}x{n}"
            );
            assert_eq!(built.memory_banks(), preset.memory_banks());
        }
    }

    #[test]
    fn large_fabric_params_build_and_cut() {
        let p = RandomCgraParams::large_fabric();
        let mut cut = 0;
        let mut past_dense_limit = 0;
        for seed in 0..64 {
            let spec = random_cgra_spec(&p, seed);
            let cgra = spec.build().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(cgra.num_pes() >= 144, "seed {seed}");
            if spec.cut_row.is_some() {
                cut += 1;
            }
            if cgra.num_pes() > 256 {
                past_dense_limit += 1;
            }
        }
        assert!(cut > 0, "no cut fabric in 64 large-fabric seeds");
        assert!(
            past_dense_limit > 16,
            "only {past_dense_limit}/64 fabrics exceed the dense oracle limit"
        );
    }

    #[test]
    fn hand_written_bad_spec_fails_build() {
        let spec = CgraSpec {
            rows: 2,
            cols: 2,
            regs_per_pe: 1,
            memory_banks: 1,
            memory_columns: vec![9],
            torus: false,
            diagonals: false,
            cut_row: None,
        };
        assert!(matches!(
            spec.build(),
            Err(BuildCgraError::MemoryColumnOutOfRange { .. })
        ));
    }
}
