//! A benchmark suite of loop-kernel DFGs.
//!
//! The Rewire paper evaluates on compute-intensive loop kernels drawn from
//! PolyBench, MachSuite and MiBench, with 26–51 DFG nodes (average 38). The
//! kernels here are hand-built DFGs of the same inner-loop bodies: every
//! array access carries its address arithmetic, reductions lower to
//! `Phi`/`Add` recurrences, induction variables are self-incrementing `Addr`
//! nodes, and memory-carried dependencies (LU-style factorizations) appear
//! as loop-carried store→load edges. See `DESIGN.md` §2 for why this
//! substitution preserves the mapping-difficulty profile.
//!
//! # Examples
//!
//! ```
//! use rewire_dfg::kernels;
//! let suite = kernels::all();
//! assert!(suite.len() >= 20);
//! for (name, dfg) in &suite {
//!     assert!(dfg.num_nodes() >= 26 && dfg.num_nodes() <= 51, "{name}");
//! }
//! let atax = kernels::by_name("atax").unwrap();
//! let unrolled = kernels::by_name("atax(u)").unwrap();
//! assert_eq!(unrolled.num_nodes(), 2 * atax.num_nodes());
//! ```

mod factorization;
mod linear_algebra;
mod machsuite;
mod mibench;
mod signal;
mod stencils;

pub use factorization::{cholesky, gramschmidt, lu, ludcmp};
pub use linear_algebra::{atax, bicg, doitgen, gemm, gemver, gesummv, mvt, syr2k, syrk, trmm};
pub use machsuite::{fft, md_knn, spmv, viterbi};
pub use mibench::{fir, sha, susan};
pub use signal::{backprop, conv2d, dct8, histogram, kmeans, sobel};
pub use stencils::{jacobi2d, seidel2d, stencil3d};

use crate::{Dfg, NodeId};
use rewire_arch::OpKind;

/// A base kernel's constructor.
type Constructor = fn() -> Dfg;

/// Every base kernel's canonical name and constructor, in suite order.
const SUITE: [(&str, Constructor); 30] = [
    ("gramschmidt", gramschmidt),
    ("ludcmp", ludcmp),
    ("lu", lu),
    ("gemver", gemver),
    ("cholesky", cholesky),
    ("gesummv", gesummv),
    ("atax", atax),
    ("bicg", bicg),
    ("mvt", mvt),
    ("gemm", gemm),
    ("syrk", syrk),
    ("syr2k", syr2k),
    ("trmm", trmm),
    ("doitgen", doitgen),
    ("jacobi2d", jacobi2d),
    ("seidel2d", seidel2d),
    ("stencil3d", stencil3d),
    ("md-knn", md_knn),
    ("spmv", spmv),
    ("fft", fft),
    ("viterbi", viterbi),
    ("fir", fir),
    ("susan", susan),
    ("sha", sha),
    ("conv2d", conv2d),
    ("sobel", sobel),
    ("dct8", dct8),
    ("histogram", histogram),
    ("kmeans", kmeans),
    ("backprop", backprop),
];

/// Every base kernel in the suite, with its canonical name.
pub fn all() -> Vec<(&'static str, Dfg)> {
    SUITE.iter().map(|&(name, build)| (name, build())).collect()
}

/// Looks a kernel up by name, building only that kernel. `"<name>(u)"`
/// resolves to the unroll-by-2 variant, following the paper's notation,
/// and `"<name>(uN)"` (e.g. `"fir(u4)"`) to the unroll-by-`N` variant used
/// by the fabric-scaling suite — bigger fabrics need proportionally bigger
/// kernels before the map-time curve measures anything but fixed overhead.
pub fn by_name(name: &str) -> Option<Dfg> {
    if let Some(base) = name.strip_suffix("(u)") {
        return by_name(base).map(|d| d.unroll(2));
    }
    if let Some((base, rest)) = name.split_once("(u") {
        let factor: u32 = rest.strip_suffix(')').and_then(|f| f.parse().ok())?;
        if factor >= 2 {
            return by_name(base).map(|d| d.unroll(factor));
        }
        return None;
    }
    SUITE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
}

/// Builder with loop-kernel idioms: auto-named nodes, address arithmetic,
/// loads/stores, and `Phi`-based accumulators.
///
/// All the bundled kernels are written against this API, and downstream
/// users can construct their own kernels the same way.
///
/// # Examples
///
/// ```
/// use rewire_dfg::kernels::KernelBuilder;
/// let mut k = KernelBuilder::new("dot");
/// let i = k.induction();
/// let a = k.load_at(&[i]);
/// let b = k.load_at(&[i]);
/// let prod = k.mul(a, b);
/// let _sum = k.accumulate(prod, 1);
/// let dfg = k.build();
/// assert!(dfg.validate().is_ok());
/// assert_eq!(dfg.rec_mii(), 2); // the accumulator recurrence
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    dfg: Dfg,
    counter: usize,
}

impl KernelBuilder {
    /// Starts a kernel with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            dfg: Dfg::new(name),
            counter: 0,
        }
    }

    fn fresh(&mut self, op: OpKind) -> NodeId {
        let n = self.counter;
        self.counter += 1;
        self.dfg.add_node(format!("{}{n}", op.mnemonic()), op)
    }

    fn connect(&mut self, src: NodeId, dst: NodeId) {
        self.dfg
            .add_edge(src, dst, 0)
            .expect("builder edges are valid");
    }

    /// A raw node with no operands.
    pub fn node(&mut self, op: OpKind) -> NodeId {
        self.fresh(op)
    }

    /// A constant / immediate.
    pub fn konst(&mut self) -> NodeId {
        self.fresh(OpKind::Const)
    }

    /// A self-incrementing induction variable (`i = i + stride` in one ALU
    /// op): an `Addr` node with a distance-1 self-loop.
    pub fn induction(&mut self) -> NodeId {
        let n = self.fresh(OpKind::Addr);
        self.dfg
            .add_edge(n, n, 1)
            .expect("self loop with distance 1");
        n
    }

    /// A unary operation.
    pub fn unary(&mut self, op: OpKind, a: NodeId) -> NodeId {
        let n = self.fresh(op);
        self.connect(a, n);
        n
    }

    /// A binary operation.
    pub fn binary(&mut self, op: OpKind, a: NodeId, b: NodeId) -> NodeId {
        let n = self.fresh(op);
        self.connect(a, n);
        self.connect(b, n);
        n
    }

    /// `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(OpKind::Add, a, b)
    }

    /// `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(OpKind::Sub, a, b)
    }

    /// `a * b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(OpKind::Mul, a, b)
    }

    /// `a / b`.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(OpKind::Div, a, b)
    }

    /// `sqrt(a)`.
    pub fn sqrt(&mut self, a: NodeId) -> NodeId {
        self.unary(OpKind::Sqrt, a)
    }

    /// An address computation combining index operands (base constants are
    /// folded into the `Addr` op itself).
    pub fn address(&mut self, indices: &[NodeId]) -> NodeId {
        let n = self.fresh(OpKind::Addr);
        for &i in indices {
            self.connect(i, n);
        }
        n
    }

    /// A load from an explicit address node.
    pub fn load(&mut self, addr: NodeId) -> NodeId {
        self.unary(OpKind::Load, addr)
    }

    /// Address computation from `indices` followed by a load — the common
    /// `A[f(i,j)]` idiom (two nodes).
    pub fn load_at(&mut self, indices: &[NodeId]) -> NodeId {
        let a = self.address(indices);
        self.load(a)
    }

    /// A store of `value` to an explicit address node.
    pub fn store(&mut self, addr: NodeId, value: NodeId) -> NodeId {
        let n = self.fresh(OpKind::Store);
        self.connect(addr, n);
        self.connect(value, n);
        n
    }

    /// Address computation followed by a store (two nodes).
    pub fn store_at(&mut self, indices: &[NodeId], value: NodeId) -> NodeId {
        let a = self.address(indices);
        self.store(a, value)
    }

    /// A reduction accumulator: `acc = acc ⊕ increment`, carried `distance`
    /// iterations. Lowers to `Phi → Add → (back-edge to Phi)` and returns
    /// the `Add` (the live-out sum).
    pub fn accumulate(&mut self, increment: NodeId, distance: u32) -> NodeId {
        let phi = self.fresh(OpKind::Phi);
        let add = self.add(phi, increment);
        self.dfg.add_edge(add, phi, distance).expect("back edge");
        add
    }

    /// A value carried from `distance` iterations ago: `Phi` fed by `value`
    /// through a loop-carried edge. Returns the `Phi`.
    pub fn carried(&mut self, value: NodeId, distance: u32) -> NodeId {
        let phi = self.fresh(OpKind::Phi);
        self.dfg.add_edge(value, phi, distance).expect("back edge");
        phi
    }

    /// An explicit loop-carried dependency between two existing nodes, e.g.
    /// a store feeding a later iteration's load (memory-carried dependency).
    pub fn loop_dep(&mut self, src: NodeId, dst: NodeId, distance: u32) {
        self.dfg
            .add_edge(src, dst, distance)
            .expect("loop-carried edge");
    }

    /// A loop-exit predicate: `cmp(i, bound)` with a fresh bound constant.
    pub fn loop_guard(&mut self, i: NodeId) -> NodeId {
        let bound = self.konst();
        self.binary(OpKind::Cmp, i, bound)
    }

    /// Finishes the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the constructed graph is invalid — a builder bug, since
    /// every combinator only adds legal edges.
    pub fn build(self) -> Dfg {
        self.dfg
            .validate()
            .expect("kernel builder produces valid graphs");
        self.dfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::presets;

    #[test]
    fn suite_matches_paper_size_band() {
        let suite = all();
        assert!(suite.len() >= 20, "need a realistic suite");
        let sizes: Vec<usize> = suite.iter().map(|(_, d)| d.num_nodes()).collect();
        for ((name, _), &n) in suite.iter().zip(&sizes) {
            assert!((26..=51).contains(&n), "{name} has {n} nodes");
        }
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(
            (33.0..=43.0).contains(&avg),
            "average size {avg} should be near the paper's 38"
        );
    }

    #[test]
    fn all_kernels_valid_connected_and_mappable_in_principle() {
        let cgra = presets::paper_4x4_r4();
        for (name, dfg) in all() {
            assert!(dfg.validate().is_ok(), "{name}");
            assert!(dfg.is_connected(), "{name}");
            let mii = dfg.mii(&cgra).unwrap_or_else(|| panic!("{name}: no MII"));
            assert!((1..=12).contains(&mii), "{name}: MII {mii}");
            let memory = dfg.num_memory_ops() as f64 / dfg.num_nodes() as f64;
            assert!(
                (0.05..=0.5).contains(&memory),
                "{name}: memory share {memory}"
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in all() {
            assert!(seen.insert(name), "duplicate kernel {name}");
        }
    }

    #[test]
    fn by_name_resolves_base_and_unrolled() {
        assert!(by_name("cholesky").is_some());
        assert!(by_name("nonexistent").is_none());
        let u = by_name("lu(u)").unwrap();
        assert_eq!(u.num_nodes(), 2 * by_name("lu").unwrap().num_nodes());
        assert_eq!(u.name(), "lu(u)");
    }

    #[test]
    fn by_name_resolves_scaled_unroll_factors() {
        let base = by_name("fir").unwrap();
        for factor in [2u32, 4, 8] {
            let scaled = by_name(&format!("fir(u{factor})")).unwrap();
            assert_eq!(scaled.num_nodes(), factor as usize * base.num_nodes());
            assert!(scaled.validate().is_ok(), "factor {factor}");
        }
        // `(u2)` and `(u)` are the same transform; only the label differs.
        assert_eq!(
            by_name("fir(u2)").unwrap().num_nodes(),
            by_name("fir(u)").unwrap().num_nodes()
        );
        assert!(by_name("fir(u1)").is_none(), "factor below 2 is rejected");
        assert!(by_name("fir(uX)").is_none());
        assert!(by_name("nonexistent(u4)").is_none());
    }

    #[test]
    fn every_kernel_has_memory_ops() {
        for (name, dfg) in all() {
            assert!(dfg.num_memory_ops() > 0, "{name} touches no memory");
        }
    }

    #[test]
    fn builder_accumulator_shape() {
        let mut k = KernelBuilder::new("t");
        let c = k.konst();
        let acc = k.accumulate(c, 1);
        let dfg = k.build();
        assert_eq!(dfg.rec_mii(), 2);
        assert_eq!(dfg.parents(acc).count(), 2);
    }

    #[test]
    fn unrolled_variants_stay_structurally_sound() {
        for (name, dfg) in all() {
            let u = dfg.unroll(2);
            assert!(u.validate().is_ok(), "{name}(u)");
            assert!(u.is_connected(), "{name}(u)");
            assert_eq!(u.num_memory_ops(), 2 * dfg.num_memory_ops(), "{name}(u)");
        }
    }

    #[test]
    fn builder_induction_is_cheap_recurrence() {
        let mut k = KernelBuilder::new("t");
        let i = k.induction();
        let _ = k.loop_guard(i);
        let dfg = k.build();
        assert_eq!(dfg.rec_mii(), 1);
    }
}
