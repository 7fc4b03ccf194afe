//! Exact-arrival routers over the MRRG.
//!
//! Placement fixes both endpoints *and* both times of every route, so
//! routing is a shortest-path problem on a layered DAG: layer `k` holds the
//! possible value locations `k` cycles after departure, and every transition
//! consumes exactly one MRRG cell. A min-cost path is found with one dynamic
//! -programming sweep per layer — no priority queue needed because all
//! edges advance exactly one layer.
//!
//! Under the exclusive [`UnitCost`] model a route's outcome depends only on
//! the cells its DP attempts' paths took: [`Router::route_certified`]
//! returns them as a [`RouteCertificate`], and while those cells stay
//! usable on an occupancy that only adds claims, the outcome is the same
//! (the reuse lemma on [`RouteCertificate`]). Rewire's Algorithm 2 reuses
//! its verification routes this way.

use crate::distance::DistanceOracle;
use crate::{Mrrg, Occupancy, Resource, Route, RouteError, RouteRequest};
use rewire_arch::{Cgra, LinkId, PeId};
use rewire_dfg::NodeId;
use rewire_obs as obs;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Pluggable cell-cost policy for the router.
pub trait CostModel {
    /// Cost for `signal` at step-age `phase` to occupy the cell at dense
    /// index `cell` ([`Mrrg::index_of`] of `occ.mrrg()`;
    /// [`Mrrg::resource_of`] decodes it), or `None` if the cell must not
    /// be used (e.g. it carries a different signal — or the same signal at
    /// a different age — under exclusive rules).
    ///
    /// The router asks once per DP transition, so the cell comes as the
    /// index the DP already holds, not as a `Resource` to re-index.
    fn cell_cost(&self, occ: &Occupancy, cell: usize, signal: NodeId, phase: u32) -> Option<f64>;
}

/// Exclusive routing: a cell is usable only if free or already carrying the
/// same signal. This is the policy used for final verification — a route
/// found under `UnitCost` is physically realisable.
///
/// Links cost 1.0 and register cells 0.95: timing slack is absorbed by
/// waiting in local registers rather than ping-ponging across the NoC,
/// which both conserves link bandwidth and makes tie-breaking
/// deterministic.
#[derive(Clone, Copy, Default, Debug)]
pub struct UnitCost;

impl CostModel for UnitCost {
    #[inline]
    fn cell_cost(&self, occ: &Occupancy, cell: usize, signal: NodeId, phase: u32) -> Option<f64> {
        occ.usable_at_index(cell, signal, phase)
            .then_some(if occ.mrrg().is_reg_index(cell) {
                0.95
            } else {
                1.0
            })
    }
}

/// PathFinder-style negotiated congestion cost: occupied cells may be used,
/// at a price that grows with present sharing and accumulated history.
///
/// `cost = 1 + present_factor·(#foreign signals) + history[cell]`.
/// After each routing iteration the mapper calls
/// [`accumulate_history_everywhere`](NegotiatedCost::accumulate_history_everywhere) so that
/// persistently congested cells become expensive and losers move elsewhere.
#[derive(Clone, Debug)]
pub struct NegotiatedCost {
    present_factor: f64,
    history_increment: f64,
    history: Vec<f64>,
}

impl NegotiatedCost {
    /// Creates a cost table for `mrrg` with the given negotiation factors.
    pub fn new(mrrg: &Mrrg, present_factor: f64, history_increment: f64) -> Self {
        Self {
            present_factor,
            history_increment,
            history: vec![0.0; mrrg.num_cells()],
        }
    }

    /// Bumps history on every overused cell in the table (full sweep);
    /// call once per negotiation iteration.
    pub fn accumulate_history_everywhere(&mut self, occ: &Occupancy) {
        // Only occupied chunks can hold overuse, so the walk is bounded by
        // the touched fabric, not its full time-extended size.
        occ.for_each_overused_index(|idx| {
            self.history[idx] += self.history_increment;
        });
    }

    /// Current history cost of a cell.
    pub fn history(&self, mrrg: &Mrrg, cell: Resource) -> f64 {
        self.history[mrrg.index_of(cell)]
    }
}

impl CostModel for NegotiatedCost {
    #[inline]
    fn cell_cost(&self, occ: &Occupancy, cell: usize, signal: NodeId, phase: u32) -> Option<f64> {
        let foreign = occ
            .owners_at_index(cell)
            .iter()
            .filter(|(k, _)| *k != (signal, phase))
            .count();
        Some(1.0 + self.present_factor * foreign as f64 + self.history[cell])
    }
}

/// Multiplicative reuse discount applied by [`TreeCost`] to cells the
/// routed signal already owns at the queried phase.
///
/// Under [`UnitCost`] and [`NegotiatedCost`] a cell carrying the same
/// signal at the same phase is priced like a free cell, so per-edge
/// fan-out routes only share trunks when the shared path happens to be
/// the unique minimum. The discount makes reuse *strictly* cheaper, so
/// the DP actively converges sibling branches onto the existing trunk —
/// the Steiner-tree behaviour — while never enabling a cell the inner
/// model forbids.
const TREE_REUSE_DISCOUNT: f64 = 1.0 / 16.0;

/// Cost wrapper that discounts cells already owned by the routed signal
/// at the queried phase (by `TREE_REUSE_DISCOUNT`, 1/16).
///
/// Admissibility is inherited: a cell the inner model rejects stays
/// rejected, and a discounted cost is still positive, so routes found
/// under `TreeCost` satisfy exactly the same sharing rules as the inner
/// model's — they just prefer the signal's own cells.
#[derive(Clone, Copy, Debug)]
pub struct TreeCost<'c, C> {
    inner: &'c C,
}

impl<'c, C: CostModel> TreeCost<'c, C> {
    /// Wraps `inner` with the trunk-reuse discount.
    pub fn new(inner: &'c C) -> Self {
        Self { inner }
    }
}

impl<C: CostModel> CostModel for TreeCost<'_, C> {
    #[inline]
    fn cell_cost(&self, occ: &Occupancy, cell: usize, signal: NodeId, phase: u32) -> Option<f64> {
        let cost = self.inner.cell_cost(occ, cell, signal, phase)?;
        let owned = occ
            .owners_at_index(cell)
            .iter()
            .any(|(key, _)| *key == (signal, phase));
        Some(if owned {
            cost * TREE_REUSE_DISCOUNT
        } else {
            cost
        })
    }
}

/// Sweep strategy for the router's per-layer dynamic program.
///
/// Both modes produce byte-identical routes (pinned by the differential
/// tests in `crates/mrrg/tests/route_pruning.rs`); they differ only in how
/// many states they relax per layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouterMode {
    /// Sweep a sorted sparse frontier of live states and skip any state
    /// whose PE cannot reach the destination in the remaining steps, by
    /// the exact hop distance from the [`DistanceOracle`]. What
    /// [`Router::new`] builds, and so what every mapper routes with.
    Pruned,
    /// The original dense `0..num_states` sweep: the reference the pruned
    /// path is checked against. Reachable only through
    /// [`Router::with_mode`]; kept compiled (not just `#[cfg(test)]`) so
    /// the differential integration tests can run it.
    Dense,
}

/// Value location during routing: on the PE's wire fabric, or parked in a
/// register (with its residency run length, to respect the modulo wrap).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Carrier {
    Wire,
    /// `(register index, cycles spent in it so far)`.
    Reg(u8, u32),
}

impl Carrier {
    /// Position in a PE's block of `1 + regs·ii` DP states: 0 is the wire,
    /// `1 + r·ii + (run − 1)` is `Reg(r, run)`.
    fn offset(self, ii: usize) -> usize {
        match self {
            Carrier::Wire => 0,
            Carrier::Reg(r, run) => 1 + r as usize * ii + (run as usize - 1),
        }
    }

    /// Inverse of [`offset`](Carrier::offset).
    fn at(offset: usize, ii: usize) -> Self {
        if offset == 0 {
            Carrier::Wire
        } else {
            let r = (offset - 1) / ii;
            let run = (offset - 1) % ii + 1;
            Carrier::Reg(r as u8, run as u32)
        }
    }
}

/// The register moves out of every carrier for one `(regs, ii)` shape, in
/// relaxation order: the per-carrier template the DP walks instead of
/// re-deriving each move.
///
/// An entry `(next, reg)` moves the value to carrier offset `next` of the
/// same PE and occupies register `reg / ii` of that PE, stored pre-scaled:
/// the cell's dense index is the PE's first register cell at the layer's
/// slot plus `reg`. Memory is one entry per move, O(regs²·ii) — a few
/// hundred bytes — independent of the fabric.
#[derive(Clone, Debug, Default)]
struct RegMoves {
    regs: usize,
    ii: usize,
    /// `(next carrier offset, register index · ii)`, grouped by carrier.
    moves: Vec<(u32, u32)>,
    /// Carrier `c`'s moves are `moves[start[c]..start[c + 1]]`.
    start: Vec<u32>,
}

impl RegMoves {
    /// Builds the template for `regs` registers per PE at `ii`, unless it
    /// already holds that shape.
    fn prepare(&mut self, regs: usize, ii: usize) {
        if !self.start.is_empty() && (self.regs, self.ii) == (regs, ii) {
            return;
        }
        self.regs = regs;
        self.ii = ii;
        self.moves.clear();
        self.start.clear();
        let entry = |r: u8, next: Carrier| (next.offset(ii) as u32, (r as usize * ii) as u32);
        for c in 0..1 + regs * ii {
            self.start.push(self.moves.len() as u32);
            match Carrier::at(c, ii) {
                Carrier::Wire => {
                    // Park in any register.
                    for r in 0..regs as u8 {
                        self.moves.push(entry(r, Carrier::Reg(r, 1)));
                    }
                }
                Carrier::Reg(r, run) => {
                    // Keep holding (bounded by II so no modulo cell is
                    // claimed twice by this route).
                    if (run as usize) < ii {
                        self.moves.push(entry(r, Carrier::Reg(r, run + 1)));
                    }
                    // Transfer to a sibling register.
                    for r2 in 0..regs as u8 {
                        if r2 != r {
                            self.moves.push(entry(r2, Carrier::Reg(r2, 1)));
                        }
                    }
                }
            }
        }
        self.start.push(self.moves.len() as u32);
    }

    /// The register moves out of carrier offset `carrier`.
    #[inline]
    fn of(&self, carrier: usize) -> &[(u32, u32)] {
        &self.moves[self.start[carrier] as usize..self.start[carrier + 1] as usize]
    }
}

/// The DP's state encoding and cell arithmetic for one MRRG shape.
///
/// A state is `pe · stride + carrier offset`. A transition's cell index
/// comes from [`Mrrg::index_of`]'s layout by arithmetic — link `l` at
/// slot `s` is `link_cells + l·ii + s`, register `r` of PE `p` is
/// `reg_cells + (p·regs + r)·ii + s` — so the DP never builds a
/// `Resource` per transition. It walks the PE's out-neighbour slice
/// ([`Cgra::out_neighbours`]) and the carrier's [`RegMoves`] entries.
#[derive(Clone, Copy)]
struct Transitions<'t> {
    cgra: &'t Cgra,
    moves: &'t RegMoves,
    ii: usize,
    /// DP states per PE: the wire plus `regs·ii` register carriers.
    stride: usize,
    link_cells: usize,
    reg_cells: usize,
    /// One PE's register cells: `regs·ii`.
    pe_reg_cells: usize,
}

impl<'t> Transitions<'t> {
    fn new(cgra: &'t Cgra, mrrg: &Mrrg, moves: &'t RegMoves) -> Self {
        let ii = mrrg.ii() as usize;
        let regs = mrrg.regs_per_pe() as usize;
        let stride = 1 + regs * ii;
        debug_assert_eq!((moves.regs, moves.ii), (regs, ii), "template shape");
        // Frontiers and parents store states and cells as `u32`.
        assert!(
            (cgra.num_pes() * stride).max(mrrg.num_cells()) <= u32::MAX as usize,
            "{mrrg} has too many router states for u32 indices"
        );
        Self {
            cgra,
            moves,
            ii,
            stride,
            link_cells: mrrg.link_cells(),
            reg_cells: mrrg.reg_cells(),
            pe_reg_cells: regs * ii,
        }
    }

    /// Calls `f(next state, cell index)` for every move out of state
    /// `(pe, carrier)` during a cycle at `slot`, in relaxation order: link
    /// hops (legal from the wire and from a register read-out) in link-id
    /// order, then the carrier's register moves.
    #[inline(always)]
    fn for_each(&self, pe: usize, carrier: usize, slot: usize, mut f: impl FnMut(usize, usize)) {
        for &(dst, link) in self.cgra.out_neighbours(PeId::new(pe as u32)) {
            f(dst.index() * self.stride, self.link_cell(link, slot));
        }
        let pe_state = pe * self.stride;
        let pe_regs = self.reg_cells + pe * self.pe_reg_cells + slot;
        for &(next, reg) in self.moves.of(carrier) {
            f(pe_state + next as usize, pe_regs + reg as usize);
        }
    }

    /// Dense index of `link`'s cell at `slot`.
    #[inline]
    fn link_cell(&self, link: LinkId, slot: usize) -> usize {
        self.link_cells + link.index() * self.ii + slot
    }
}

/// Work counts of one route call, flushed to the `router.*` metrics once
/// at its end. Each DP attempt counts in locals and adds them here once.
#[derive(Default)]
struct RouteTally {
    expansions: u64,
    /// The share of `expansions` made by DP attempts after the first: the
    /// duplicate-cell retry loop's work.
    retry_expansions: u64,
    pruned: u64,
    frontier_peak: u64,
    retries: u64,
}

/// How many DP attempts one route call makes before a path that keeps
/// revisiting cells is declared [`RouteError::NoPath`].
const MAX_ATTEMPTS: usize = 10;

/// The cells an exclusive-cost route outcome depends on, from
/// [`Router::route_certified`]: the `(cell, phase)` pairs of every DP
/// attempt's path — each duplicate-cell retry's path as well as the
/// returned one — including the delivery cell at phase `len`.
///
/// # The reuse lemma
///
/// Let a request route under [`UnitCost`] on occupancy `O` with
/// certificate `C`. If `O′` only adds claims to `O` and every pair of
/// `C` is still usable under `O′` ([`holds`](RouteCertificate::holds)),
/// the same request routes under `O′` to the identical [`Route`] (cells
/// and cost) or the identical error.
///
/// Proof. `UnitCost` prices a usable cell by its class alone, so `O′`
/// only removes DP transitions, never re-prices one, and every DP value
/// under `O′` is at least its value under `O`. Take an attempt with the
/// same overlay under both. Its path under `O` only uses pairs in `C`,
/// so each prefix still exists under `O′` and every state on the path
/// keeps its value. Any candidate that came earlier in relaxation order
/// lost with a strictly larger value under `O` and cannot get cheaper, so
/// each path state keeps its first strict-`<` parent, and the arrival
/// scan keeps its winner: the attempt returns the same path and cost.
/// The same path has the same duplicate cells, so the same penalties
/// make the same next attempt, by induction over the attempts. An
/// infeasible first attempt (no finite arrival) stays infeasible under
/// `O′`, since values only rise; its certificate is empty, and penalties
/// never make a feasible DP infeasible, so no later attempt can fail
/// that way. A request with more steps than the MRRG has link and
/// register cells is `NoPath` before any attempt on every occupancy, so
/// its empty certificate holds everywhere too.
///
/// The lemma does not hold for [`NegotiatedCost`], whose prices move with
/// foreign claims; the certified call is exclusive-cost only.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteCertificate {
    /// `(dense cell index, phase)`, sorted and deduplicated.
    cells: Vec<(u32, u32)>,
}

impl RouteCertificate {
    /// Whether every certified cell is still usable by `signal` at its
    /// phase under `occ` (free, or held only by that exact key), so the
    /// certified outcome is what routing on `occ` would return — provided
    /// `occ` only adds claims to the occupancy the certificate was
    /// computed on (see the type's docs).
    pub fn holds(&self, occ: &Occupancy, signal: NodeId) -> bool {
        self.cells
            .iter()
            .all(|&(cell, phase)| occ.usable_at_index(cell as usize, signal, phase))
    }

    /// The certified `(cell, phase)` pairs, in dense-index order.
    pub fn pairs<'m>(&'m self, mrrg: &'m Mrrg) -> impl Iterator<Item = (Resource, u32)> + 'm {
        self.cells
            .iter()
            .map(|&(cell, phase)| (mrrg.resource_of(cell as usize), phase))
    }

    /// Whether nothing is certified: the request was backwards in time,
    /// asked for more steps than the MRRG has link and register cells (no
    /// loop-free path exists under any occupancy), or its first DP attempt
    /// found no path. The first two outcomes do not depend on the
    /// occupancy, so an empty certificate holds everywhere.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// A reusable bitset over dense MRRG cell indices with O(touched words)
/// clearing, so the duplicate-cell scan after each route attempt costs one
/// pass over the route instead of a quadratic `Vec::contains` loop.
#[derive(Clone, Debug, Default)]
struct CellBitset {
    words: Vec<u64>,
    touched: Vec<u32>,
}

impl CellBitset {
    /// Clears all set bits and resizes for a universe of `num_cells`.
    fn reset(&mut self, num_cells: usize) {
        let words = num_cells.div_ceil(64);
        if self.words.len() == words {
            for &w in &self.touched {
                self.words[w as usize] = 0;
            }
        } else {
            self.words.clear();
            self.words.resize(words, 0);
        }
        self.touched.clear();
    }

    /// Sets a bit; returns whether it was already set.
    fn test_and_set(&mut self, idx: usize) -> bool {
        let (w, b) = (idx / 64, 1u64 << (idx % 64));
        let word = &mut self.words[w];
        if *word == 0 {
            self.touched.push(w as u32);
        }
        let was = *word & b != 0;
        *word |= b;
        was
    }

    fn test(&self, idx: usize) -> bool {
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    fn clear(&mut self, idx: usize) {
        self.words[idx / 64] &= !(1u64 << (idx % 64));
    }
}

/// A DP value row over dense state indices with O(1) whole-row reset.
///
/// Resetting the row per layer used to be a `clear(); resize(num_states,
/// INF)` pair — an O(states) memset that dominates on big fabrics where
/// only a few hundred of hundreds of thousands of states are ever live.
/// Instead each entry carries the epoch that last wrote it: `begin` bumps
/// the epoch (invalidating every entry at once), reads of entries from an
/// older epoch see infinity, and the storage is allocated once per shape.
#[derive(Clone, Debug, Default)]
struct StampedRow {
    values: Vec<f64>,
    stamps: Vec<u32>,
    epoch: u32,
}

impl StampedRow {
    /// Invalidates the whole row and (re)sizes it for `num_states`.
    fn begin(&mut self, num_states: usize) {
        if self.values.len() < num_states {
            self.values.resize(num_states, f64::INFINITY);
            self.stamps.resize(num_states, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrap (u32::MAX resets in one scratch lifetime): every
            // stale stamp could alias the new epoch, so pay one real clear.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// The entry's value this epoch, or infinity if unwritten.
    #[inline]
    fn get(&self, i: usize) -> f64 {
        if self.stamps[i] == self.epoch {
            self.values[i]
        } else {
            f64::INFINITY
        }
    }

    /// Writes an entry; returns whether it was unwritten this epoch.
    #[inline]
    fn set(&mut self, i: usize, v: f64) -> bool {
        let first = self.stamps[i] != self.epoch;
        self.stamps[i] = self.epoch;
        self.values[i] = v;
        first
    }
}

/// One layer's parent pointer: `(state, previous state, dense index of the
/// cell consumed)` — stored only for states that are live in that layer,
/// sorted by state for binary-searched reconstruction. Cells are decoded
/// to `Resource`s only along the winning path.
type CompactParent = (u32, u32, u32);

/// How many distinct fabric topologies one scratch keeps distance oracles
/// for. Mapping alternates over at most a handful of fabrics at a time
/// (fuzz differentials pit two, the scaling sweep walks one per size);
/// beyond that the oldest oracle is evicted instead of the cache growing
/// with every fabric a long-lived process ever touched.
const ORACLE_CACHE_CAP: usize = 4;

/// Reusable buffers for the router's layered dynamic program.
///
/// One route call needs an additive per-cell cost overlay, two DP value
/// rows, and one parent list per path layer. Allocating these per call put
/// `malloc` in the innermost loop of PF* negotiation, Rewire verification
/// and SA evaluation; a scratch instance keeps them alive across calls so
/// repeated routing does zero steady-state allocation.
///
/// [`Router::route`] keeps one instance per thread. Buffers grow to the
/// largest shape seen and are reused for any request of the same or
/// smaller shape; every call resets the overlay, so no call sees another's
/// state.
#[derive(Clone, Debug, Default)]
struct RouterScratch {
    /// Dense per-cell additive penalty (`Mrrg::index_of` indexed).
    overlay: Vec<f64>,
    /// Indices of nonzero overlay entries, for O(touched) clearing.
    overlay_touched: Vec<usize>,
    /// DP value row for the current layer (epoch-stamped: resets in O(1)).
    cur: StampedRow,
    /// DP value row being built for the next layer.
    next: StampedRow,
    /// Dense parent scratch for the layer being built; only entries whose
    /// state is live in `next` are meaningful. Compacted into `parents`
    /// at the end of each layer.
    parent_state: Vec<u32>,
    /// Dense parent-cell scratch (cell indices) paired with `parent_state`.
    parent_cell: Vec<u32>,
    /// Per-layer compacted parent pointers, one entry per *live* state
    /// sorted by state id. Replaces the old dense `num_states × len`
    /// parent matrix, whose resize-and-fill per layer was both the top
    /// allocation and ~240 MB of traffic on a 64×64 fabric.
    parents: Vec<Vec<CompactParent>>,
    /// Live (finite-value) states of the current layer, for the pruned
    /// sparse sweep. Sorted ascending at the end of the producing layer so
    /// relaxation order — and therefore every tie-break — matches the
    /// dense scan.
    frontier: Vec<u32>,
    /// Live states being collected for the next layer.
    next_frontier: Vec<u32>,
    /// Register-move template for the last `(regs, ii)` shape routed.
    reg_moves: RegMoves,
    /// Cells seen while scanning a candidate route for duplicates.
    seen_cells: CellBitset,
    /// Cells seen at least twice in the candidate route.
    dup_cells: CellBitset,
    /// Hop-distance oracles for recently routed fabrics, most recently
    /// used first, keyed by `Cgra::topology_fingerprint` and bounded at
    /// [`ORACLE_CACHE_CAP`] entries. A caller that already holds a
    /// fabric's oracle seeds it via [`install_thread_distance_table`], so
    /// the rows it builds are the caller's too.
    oracles: Vec<Arc<DistanceOracle>>,
    /// Cached `router.*` metric handles, re-resolved when the thread's
    /// metric scope changes (`rewire_obs::scope_epoch`). Keeping handles
    /// here turns the per-call metrics flush into a few atomic adds.
    metrics: Option<RouteMetricHandles>,
}

/// Resolved handles for the router's global metrics, valid for one metric
/// scope on one thread (see [`RouterScratch::metrics`]).
#[derive(Clone, Debug)]
struct RouteMetricHandles {
    epoch: u64,
    route_calls: obs::Counter,
    route_ok: obs::Counter,
    route_failed: obs::Counter,
    route_ns: obs::Counter,
    expansions: obs::Counter,
    pruned_states: obs::Counter,
    retries: obs::Counter,
    retry_expansions: obs::Counter,
    route_len: obs::Histogram,
    frontier_size: obs::Histogram,
}

impl RouteMetricHandles {
    fn resolve() -> Self {
        Self {
            epoch: obs::scope_epoch(),
            route_calls: obs::counter("router.route_calls"),
            route_ok: obs::counter("router.route_ok"),
            route_failed: obs::counter("router.route_failed"),
            route_ns: obs::counter("router.route_ns"),
            expansions: obs::counter("router.expansions"),
            pruned_states: obs::counter("router.pruned_states"),
            retries: obs::counter("router.retries"),
            retry_expansions: obs::counter("router.retry_expansions"),
            route_len: obs::histogram("router.route_len"),
            frontier_size: obs::histogram("router.frontier_size"),
        }
    }
}

impl RouterScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    fn new() -> Self {
        Self::default()
    }

    /// Zeroes the overlay for a new route call, resizing to `num_cells`.
    fn reset_overlay(&mut self, num_cells: usize) {
        if self.overlay.len() == num_cells {
            for &idx in &self.overlay_touched {
                self.overlay[idx] = 0.0;
            }
        } else {
            self.overlay.clear();
            self.overlay.resize(num_cells, 0.0);
        }
        self.overlay_touched.clear();
    }

    /// Adds `penalty` to a cell's overlay entry, tracking it for clearing.
    fn penalise(&mut self, idx: usize, penalty: f64) {
        if self.overlay[idx] == 0.0 {
            self.overlay_touched.push(idx);
        }
        self.overlay[idx] += penalty;
    }

    /// The hop-distance oracle for `cgra`, served from the bounded MRU
    /// cache (keyed by [`Cgra::topology_fingerprint`]) or created on miss.
    /// The cache holds at most [`ORACLE_CACHE_CAP`] fabrics: a process
    /// that maps many distinct fabrics (fuzzing, the scaling sweep)
    /// evicts the least recently used oracle instead of accreting one
    /// per fabric it ever saw.
    fn distances_for(&mut self, cgra: &Cgra) -> Arc<DistanceOracle> {
        if let Some(pos) = self.oracles.iter().position(|o| o.matches(cgra)) {
            // MRU order: move the hit to the front.
            let hit = self.oracles.remove(pos);
            self.oracles.insert(0, Arc::clone(&hit));
            return hit;
        }
        let oracle = DistanceOracle::shared(cgra);
        self.install_distances(Arc::clone(&oracle));
        oracle
    }

    /// Installs a distance oracle at the front of the cache, so this
    /// scratch reuses the rows it already holds. An oracle for a fabric
    /// never routed is simply evicted like any other cache entry.
    fn install_distances(&mut self, oracle: Arc<DistanceOracle>) {
        self.oracles
            .retain(|o| o.fingerprint() != oracle.fingerprint());
        self.oracles.insert(0, oracle);
        self.oracles.truncate(ORACLE_CACHE_CAP);
    }

    /// Cells appearing more than once in `resources`, each reported once,
    /// ordered by first occurrence — exactly what the quadratic
    /// `Vec::contains` scan used to produce, in O(len) via two bitset
    /// passes (mark cells seen twice, then emit marked cells in first-
    /// occurrence order, un-marking as they are emitted).
    fn duplicate_cells(&mut self, mrrg: &Mrrg, resources: &[Resource]) -> Vec<Resource> {
        self.seen_cells.reset(mrrg.num_cells());
        self.dup_cells.reset(mrrg.num_cells());
        let mut any = false;
        for res in resources {
            let idx = mrrg.index_of(*res);
            if self.seen_cells.test_and_set(idx) && !self.dup_cells.test_and_set(idx) {
                any = true;
            }
        }
        if !any {
            return Vec::new();
        }
        let mut duplicates = Vec::new();
        for res in resources {
            let idx = mrrg.index_of(*res);
            if self.dup_cells.test(idx) {
                self.dup_cells.clear(idx);
                duplicates.push(*res);
            }
        }
        duplicates
    }

    /// The `router.*` metric handles for the calling thread's current
    /// scope, re-resolving when the scope has changed since they were
    /// cached. Scratch instances are intended to stay on one thread (the
    /// [`Router::route`] fast path keeps one per thread); a scratch moved
    /// across threads still counts correctly, it only attributes to the
    /// scope that was current when its handles were resolved.
    fn metrics(&mut self) -> &RouteMetricHandles {
        let epoch = obs::scope_epoch();
        if self.metrics.as_ref().is_none_or(|m| m.epoch != epoch) {
            self.metrics = Some(RouteMetricHandles::resolve());
        }
        self.metrics.as_ref().expect("handles were just resolved")
    }
}

thread_local! {
    /// Per-thread scratch backing [`Router::route`], so every existing
    /// call site gets allocation reuse without signature changes.
    static ROUTE_SCRATCH: RefCell<RouterScratch> = RefCell::new(RouterScratch::new());
}

/// Runs `f` on the calling thread's router scratch.
fn with_thread_scratch<R>(f: impl FnOnce(&mut RouterScratch) -> R) -> R {
    ROUTE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Re-entrant call (a cost model routing from inside `cell_cost`):
        // fall back to a fresh scratch.
        Err(_) => f(&mut RouterScratch::new()),
    })
}

/// Seeds the calling thread's router scratch with a distance oracle, so
/// [`Router::route`] on this thread reads that fabric's rows from it
/// (building any it lacks there) instead of starting an oracle of its own.
pub fn install_thread_distance_table(oracle: Arc<DistanceOracle>) {
    ROUTE_SCRATCH.with(|cell| {
        if let Ok(mut scratch) = cell.try_borrow_mut() {
            scratch.install_distances(oracle);
        }
    });
}

/// The layered-DAG router.
///
/// See the crate docs for the timing contract. One `Router` borrows the
/// architecture and MRRG shape and can serve any number of requests.
#[derive(Clone, Copy, Debug)]
pub struct Router<'a> {
    cgra: &'a Cgra,
    mrrg: &'a Mrrg,
    mode: RouterMode,
}

impl<'a> Router<'a> {
    /// Creates a pruned router over `cgra` time-extended as `mrrg`.
    pub fn new(cgra: &'a Cgra, mrrg: &'a Mrrg) -> Self {
        Self::with_mode(cgra, mrrg, RouterMode::Pruned)
    }

    /// Creates a router with an explicit sweep mode, for differential
    /// harnesses that check the pruned sweep against
    /// [`RouterMode::Dense`].
    pub fn with_mode(cgra: &'a Cgra, mrrg: &'a Mrrg, mode: RouterMode) -> Self {
        Self { cgra, mrrg, mode }
    }

    /// The MRRG shape in use.
    pub fn mrrg(&self) -> &Mrrg {
        self.mrrg
    }

    /// Finds a minimum-cost path satisfying `req` under `cost`.
    ///
    /// A path may never use the same cell twice (a same-slot revisit would
    /// carry the value at two different ages on one physical resource), so
    /// a returned path containing duplicates is retried with those cells
    /// penalised (8.0 per looped cell); after ten attempts the request is
    /// declared unroutable. A request with more steps than the MRRG has
    /// link and register cells would have to repeat one, so it is declared
    /// unroutable before the first attempt.
    ///
    /// # Errors
    ///
    /// * [`RouteError::NegativeLength`] — arrival before departure,
    /// * [`RouteError::NoPath`] — no admissible path of the exact length.
    pub fn route(
        &self,
        occ: &Occupancy,
        req: &RouteRequest,
        cost: &impl CostModel,
    ) -> Result<Route, RouteError> {
        with_thread_scratch(|scratch| self.route_counted(occ, req, cost, scratch, None))
    }

    /// [`route`](Router::route) under [`UnitCost`] that also returns the
    /// outcome's [`RouteCertificate`]: while the certificate
    /// [`holds`](RouteCertificate::holds) on an occupancy that only adds
    /// claims to `occ`, routing `req` there returns this same outcome, so
    /// a caller may reuse it instead of routing again.
    ///
    /// The route, the error and the `router.*` counts are exactly
    /// [`route`](Router::route)'s; collecting the certificate is the only
    /// extra work.
    pub fn route_certified(
        &self,
        occ: &Occupancy,
        req: &RouteRequest,
    ) -> (Result<Route, RouteError>, RouteCertificate) {
        let mut cells = Vec::new();
        let result = with_thread_scratch(|scratch| {
            self.route_counted(occ, req, &UnitCost, scratch, Some(&mut cells))
        });
        cells.sort_unstable();
        cells.dedup();
        (result, RouteCertificate { cells })
    }

    /// One route call with its `router.*` accounting, adding every DP
    /// attempt's path to `certificate` when one is asked for.
    fn route_counted(
        &self,
        occ: &Occupancy,
        req: &RouteRequest,
        cost: &impl CostModel,
        scratch: &mut RouterScratch,
        certificate: Option<&mut Vec<(u32, u32)>>,
    ) -> Result<Route, RouteError> {
        let start = Instant::now();
        let mut tally = RouteTally::default();
        let result = self.route_inner(occ, req, cost, scratch, &mut tally, certificate);
        let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Observe-only accounting: never feeds back into routing decisions.
        let m = scratch.metrics();
        m.route_calls.incr();
        m.expansions.add(tally.expansions);
        m.retry_expansions.add(tally.retry_expansions);
        m.pruned_states.add(tally.pruned);
        if self.mode == RouterMode::Pruned {
            m.frontier_size.record(tally.frontier_peak);
        }
        m.retries.add(tally.retries);
        m.route_ns.add(elapsed_ns);
        match &result {
            Ok(route) => {
                m.route_ok.incr();
                m.route_len.record(route.resources().len() as u64);
            }
            Err(_) => m.route_failed.incr(),
        }
        result
    }

    /// Routes one signal's whole fan-out as a shared route tree.
    ///
    /// All requests must share `(signal, src_pe, depart_cycle)` — they are
    /// the adjacent edges of one producer. Branches are routed longest
    /// first (ties broken by destination PE, then request order) under a
    /// [`TreeCost`] wrapper around `cost`, and each branch is claimed into
    /// `occ` before the next one routes, so later branches both *see* and
    /// *prefer* the growing trunk. Every claim is released before
    /// returning — `occ` is left exactly as found — and the routes come
    /// back in request order, ready to be committed one by one.
    ///
    /// The number of cells a branch reused from its already-routed
    /// siblings (or from the signal's pre-existing commitments in `occ`)
    /// is published on the `router.tree_reuse` counter.
    ///
    /// # Panics
    ///
    /// Panics if the requests do not share one `(signal, src_pe,
    /// depart_cycle)` root — a caller bug, not a routing failure.
    ///
    /// # Errors
    ///
    /// The first branch failure aborts the call with that branch's
    /// [`RouteError`]; no claims are left behind.
    pub fn route_fanout(
        &self,
        occ: &mut Occupancy,
        reqs: &[RouteRequest],
        cost: &impl CostModel,
    ) -> Result<Vec<Route>, RouteError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let root = (reqs[0].signal, reqs[0].src_pe, reqs[0].depart_cycle);
        assert!(
            reqs.iter()
                .all(|r| (r.signal, r.src_pe, r.depart_cycle) == root),
            "route_fanout requests must share one producer"
        );
        // Longest branch first: the longest path lays down the trunk the
        // shorter siblings then peel off of. Ties break by destination PE
        // and then request order, so the result is deterministic.
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        order.sort_by_key(|&i| {
            (
                std::cmp::Reverse(reqs[i].arrive_cycle.saturating_sub(reqs[i].depart_cycle)),
                reqs[i].dst_pe.index(),
                i,
            )
        });
        let tree_cost = TreeCost::new(cost);
        let mut routed: Vec<(usize, Route)> = Vec::with_capacity(reqs.len());
        let mut reused = 0u64;
        let mut failure = None;
        for &i in &order {
            match self.route(occ, &reqs[i], &tree_cost) {
                Ok(route) => {
                    for (k, &cell) in route.resources().iter().enumerate() {
                        let key = (root.0, k as u32);
                        if occ.owners(cell).iter().any(|(owner, _)| *owner == key) {
                            reused += 1;
                        }
                    }
                    occ.claim_route(&route);
                    routed.push((i, route));
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        for (_, route) in &routed {
            occ.release_route(route);
        }
        obs::counter("router.tree_reuse").add(reused);
        if let Some(e) = failure {
            return Err(e);
        }
        routed.sort_by_key(|&(i, _)| i);
        Ok(routed.into_iter().map(|(_, r)| r).collect())
    }

    fn route_inner(
        &self,
        occ: &Occupancy,
        req: &RouteRequest,
        cost: &impl CostModel,
        scratch: &mut RouterScratch,
        tally: &mut RouteTally,
        mut certificate: Option<&mut Vec<(u32, u32)>>,
    ) -> Result<Route, RouteError> {
        // Each step holds one link or register cell and a returned path
        // never repeats a cell, so a request with more steps than the MRRG
        // has such cells has no path under any occupancy.
        let m = self.mrrg;
        let routing_cells =
            (m.num_links() + m.num_pes() * m.regs_per_pe() as usize) * m.ii() as usize;
        if req
            .num_steps()
            .is_some_and(|len| len as usize > routing_cells)
        {
            return Err(RouteError::NoPath { request: *req });
        }
        scratch.reset_overlay(self.mrrg.num_cells());
        for attempt in 0..MAX_ATTEMPTS {
            let before = tally.expansions;
            let route = self.route_attempt(occ, req, cost, scratch, tally);
            if attempt > 0 {
                tally.retry_expansions += tally.expansions - before;
            }
            let route = route?;
            if let Some(cells) = certificate.as_deref_mut() {
                // Step `k` of a path holds its cell at phase `k`; the
                // delivery cell is step `len`.
                cells.extend(
                    route
                        .resources()
                        .iter()
                        .enumerate()
                        .map(|(k, &res)| (self.mrrg.index_of(res) as u32, k as u32)),
                );
            }
            let duplicates = scratch.duplicate_cells(self.mrrg, route.resources());
            if duplicates.is_empty() {
                return Ok(route);
            }
            tally.retries += 1;
            // Steer the next attempt away from every looped cell.
            for cell in duplicates {
                scratch.penalise(self.mrrg.index_of(cell), 8.0);
            }
        }
        Err(RouteError::NoPath { request: *req })
    }

    /// One DP attempt with the scratch's additive cost overlay.
    ///
    /// # Why pruning is exact
    ///
    /// A state at layer `k` (i.e. after `k` of the `len` steps) on PE `p`
    /// can only contribute to an arrival candidate if `dist(p, dst) <=
    /// (len - k) + 1`: a local arrival needs `dist` link hops within the
    /// remaining `len - k` steps, and a delivery arrival needs to reach a
    /// predecessor of `dst` (at distance `>= dist - 1`) before the final
    /// combinational hop. Register steps never change the PE, so the hop
    /// distance lower-bounds the link steps, which lower-bound the total
    /// steps. Every DP predecessor of a feasible state is itself feasible
    /// (one transition moves at most one hop), so skipping infeasible
    /// states can never change the value, nor the parent, of any state the
    /// arrival scan reads — and sweeping the live frontier in ascending
    /// state order preserves the dense scan's strict-`<` tie-breaks.
    /// Routes are therefore byte-identical across [`RouterMode`]s.
    ///
    /// # Why index keying is route-identical
    ///
    /// Each transition names its cell by the dense index
    /// [`Mrrg::index_of`] would return for it ([`Transitions`]; pinned by
    /// the `transition_indices_match_index_of` unit test), the moves come
    /// in the same order, and the cost sum is the same `base + c + overlay`
    /// expression, so every value, parent and tie-break is unchanged.
    fn route_attempt(
        &self,
        occ: &Occupancy,
        req: &RouteRequest,
        cost: &impl CostModel,
        scratch: &mut RouterScratch,
        tally: &mut RouteTally,
    ) -> Result<Route, RouteError> {
        let len = req
            .num_steps()
            .ok_or(RouteError::NegativeLength { request: *req })? as usize;
        scratch
            .reg_moves
            .prepare(self.mrrg.regs_per_pe() as usize, self.mrrg.ii() as usize);

        const INF: f64 = f64::INFINITY;
        // The hop oracle is resolved before the scratch is split into
        // field borrows; the `Arc` keeps the destination's row alive for
        // the sweep.
        let oracle = match self.mode {
            RouterMode::Pruned => Some(scratch.distances_for(self.cgra)),
            RouterMode::Dense => None,
        };
        let hops: Option<&[u32]> = oracle.as_deref().map(|o| o.hops_to(self.cgra, req.dst_pe));
        // Split the scratch into disjoint field borrows so the DP can hold
        // the overlay and move template immutably while writing the
        // value/parent rows.
        let RouterScratch {
            overlay,
            cur,
            next,
            parent_state,
            parent_cell,
            parents,
            frontier,
            next_frontier,
            reg_moves,
            ..
        } = scratch;
        let moves = Transitions::new(self.cgra, self.mrrg, reg_moves);
        let stride = moves.stride;
        let num_states = self.cgra.num_pes() * stride;
        cur.begin(num_states);
        let src_state = req.src_pe.index() * stride + Carrier::Wire.offset(moves.ii);
        cur.set(src_state, 0.0);
        frontier.clear();
        frontier.push(src_state as u32);
        tally.frontier_peak = tally.frontier_peak.max(1);
        // Dense parent scratch grows to the largest shape seen; entries
        // are only read for states live in `next`, so no per-layer fill.
        if parent_state.len() < num_states {
            parent_state.resize(num_states, u32::MAX);
            parent_cell.resize(num_states, u32::MAX);
        }
        if parents.len() < len {
            parents.resize(len, Vec::new());
        }

        // Work counts stay in locals for the whole attempt and are added
        // to the tally once, after the arrival scan.
        let mut expansions = 0u64;
        let mut pruned = 0u64;
        for (k, parent) in parents.iter_mut().enumerate().take(len) {
            let cycle = req.depart_cycle + k as u32;
            let slot = self.mrrg.slot_of(cycle) as usize;
            let phase = k as u32;
            next.begin(num_states);
            next_frontier.clear();
            // A state expanded here still has `len - k` steps (this move
            // included) plus the optional delivery hop to reach `dst`.
            let hop_budget = (len - k) as u32 + 1;

            // Pruned mode sweeps the live frontier (sorted ascending by
            // the previous layer's compaction); dense mode scans every
            // state id. Ascending order either way keeps every strict-`<`
            // tie-break identical across modes.
            let sweep_len = match hops {
                Some(_) => frontier.len(),
                None => num_states,
            };
            // An index loop, not a frontier iterator: in dense mode `i`
            // IS the state id and the frontier is untouched.
            #[allow(clippy::needless_range_loop)]
            for i in 0..sweep_len {
                let state = match hops {
                    Some(_) => frontier[i] as usize,
                    None => i,
                };
                let base = cur.get(state);
                if base == INF {
                    continue; // dense mode only: frontier states are live
                }
                let (pe, carrier) = (state / stride, state % stride);
                if let Some(hops) = hops {
                    if hops[pe] > hop_budget {
                        pruned += 1;
                        continue;
                    }
                }
                moves.for_each(pe, carrier, slot, |next_state, cell| {
                    expansions += 1;
                    if let Some(c) = cost.cell_cost(occ, cell, req.signal, phase) {
                        let cand = base + c + overlay[cell];
                        if cand < next.get(next_state) {
                            if next.set(next_state, cand) {
                                next_frontier.push(next_state as u32);
                            }
                            parent_state[next_state] = state as u32;
                            parent_cell[next_state] = cell as u32;
                        }
                    }
                });
            }

            tally.frontier_peak = tally.frontier_peak.max(next_frontier.len() as u64);
            // Compact this layer's parents: one entry per live state,
            // sorted by state id. The sort doubles as the pre-ordering the
            // next layer's pruned sweep needs for dense-identical
            // tie-breaks.
            next_frontier.sort_unstable();
            parent.clear();
            parent.extend(
                next_frontier
                    .iter()
                    .map(|&s| (s, parent_state[s as usize], parent_cell[s as usize])),
            );
            std::mem::swap(cur, next);
            std::mem::swap(frontier, next_frontier);
        }

        // Arrival. Two ways for the consumer FU to read the value during
        // `arrive_cycle`:
        //  (a) locally — the value sits at the destination PE (on its wire
        //      or in one of its registers) after all `len` moves, or
        //  (b) delivered — after `len` moves the value sits at a
        //      *neighbour*, and the final link hop happens combinationally
        //      during the consumption cycle itself (the ADRES/HyCube
        //      register→link→FU-input path), occupying that link's cell at
        //      `slot(arrive_cycle)`.
        let dst = req.dst_pe.index();
        let arrive_slot = self.mrrg.slot_of(req.arrive_cycle) as usize;
        let mut best: Option<(f64, usize, Option<usize>)> = None;
        for c in 0..stride {
            let s = dst * stride + c;
            if cur.get(s) < best.map_or(f64::INFINITY, |(b, ..)| b) {
                best = Some((cur.get(s), s, None));
            }
        }
        for link in self.cgra.links_to(req.dst_pe) {
            let cell = moves.link_cell(link.id(), arrive_slot);
            expansions += 1;
            let Some(hop_cost) = cost.cell_cost(occ, cell, req.signal, len as u32) else {
                continue;
            };
            let hop_cost = hop_cost + overlay[cell];
            for c in 0..stride {
                let s = link.src().index() * stride + c;
                let total = cur.get(s) + hop_cost;
                if total < best.map_or(f64::INFINITY, |(b, ..)| b) {
                    best = Some((total, s, Some(cell)));
                }
            }
        }
        tally.expansions += expansions;
        tally.pruned += pruned;
        let Some((best_cost, best_state, delivery)) = best else {
            return Err(RouteError::NoPath { request: *req });
        };
        if best_cost == f64::INFINITY {
            return Err(RouteError::NoPath { request: *req });
        }

        // Reconstruct, decoding cell indices along the winning path only.
        let mut resources = Vec::with_capacity(len + 1);
        if let Some(cell) = delivery {
            resources.push(self.mrrg.resource_of(cell));
        }
        let mut state = best_state as u32;
        for k in (0..len).rev() {
            let layer = &parents[k];
            let idx = layer
                .binary_search_by_key(&state, |&(s, _, _)| s)
                .expect("the arrival state is live, so every ancestor is recorded");
            let (_, prev, cell) = layer[idx];
            resources.push(self.mrrg.resource_of(cell as usize));
            state = prev;
        }
        resources.reverse();
        debug_assert!(resources.len() == len || resources.len() == len + 1);
        Ok(Route::new(*req, resources, best_cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::{presets, Coord, PeId};

    fn setup(ii: u32) -> (rewire_arch::Cgra, Mrrg) {
        let cgra = presets::paper_4x4_r4();
        let mrrg = Mrrg::new(&cgra, ii);
        (cgra, mrrg)
    }

    fn pe(cgra: &rewire_arch::Cgra, row: u16, col: u16) -> PeId {
        cgra.pe_at(Coord::new(row, col)).unwrap().id()
    }

    fn req(signal: u32, src: PeId, depart: u32, dst: PeId, arrive: u32) -> RouteRequest {
        RouteRequest {
            signal: NodeId::new(signal),
            src_pe: src,
            depart_cycle: depart,
            dst_pe: dst,
            arrive_cycle: arrive,
        }
    }

    /// Runs `f` under the global registry scope `scope`, which no other
    /// call uses, and returns its result with what it recorded there.
    fn recorded<T>(scope: &str, f: impl FnOnce() -> T) -> (T, obs::ScopeSnapshot) {
        let out = {
            let _scope = obs::scope(scope);
            f()
        };
        let mut snap = obs::metrics().snapshot();
        (out, snap.scopes.remove(scope).unwrap_or_default())
    }

    /// Counter `name` of a recorded scope (0 if never incremented).
    fn count(scope: &obs::ScopeSnapshot, name: &str) -> u64 {
        scope.counters.get(name).copied().unwrap_or(0)
    }

    /// Distinct cells one signal's routes hold, as `consolidate_fanout`
    /// counts a footprint.
    fn footprint(routes: &[Route]) -> usize {
        let cells: std::collections::HashSet<_> =
            routes.iter().flat_map(Route::resources).collect();
        cells.len()
    }

    #[test]
    fn single_hop() {
        let (cgra, mrrg) = setup(2);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let r = router
            .route(
                &occ,
                &req(0, pe(&cgra, 0, 0), 1, pe(&cgra, 0, 1), 2),
                &UnitCost,
            )
            .unwrap();
        assert_eq!(r.hops(), 1);
        assert_eq!(r.reg_cycles(), 0);
    }

    #[test]
    fn manhattan_path_uses_only_links_when_timed_exactly() {
        let (cgra, mrrg) = setup(4);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        // (0,0) -> (2,3): manhattan 5, departure 1, arrival 6.
        let r = router
            .route(
                &occ,
                &req(0, pe(&cgra, 0, 0), 1, pe(&cgra, 2, 3), 6),
                &UnitCost,
            )
            .unwrap();
        assert_eq!(r.hops(), 5);
        assert_eq!(r.reg_cycles(), 0);
    }

    #[test]
    fn slack_is_absorbed_by_registers() {
        let (cgra, mrrg) = setup(4);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        // One hop needed but three cycles available: two register cells.
        let r = router
            .route(
                &occ,
                &req(0, pe(&cgra, 0, 0), 1, pe(&cgra, 0, 1), 4),
                &UnitCost,
            )
            .unwrap();
        assert_eq!(r.hops(), 1);
        assert_eq!(r.reg_cycles(), 2);
    }

    #[test]
    fn same_pe_forwarding_is_free() {
        let (cgra, mrrg) = setup(2);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let p = pe(&cgra, 1, 1);
        let r = router.route(&occ, &req(0, p, 3, p, 3), &UnitCost).unwrap();
        assert!(r.resources().is_empty());
        assert_eq!(r.cost(), 0.0);
    }

    #[test]
    fn zero_length_to_a_neighbour_uses_the_delivery_hop() {
        // Producer at t, consumer at t+1 on an adjacent PE: the latched
        // output crosses one link combinationally during the consumption
        // cycle (the ADRES/HyCube chaining path).
        let (cgra, mrrg) = setup(2);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let r = router
            .route(
                &occ,
                &req(0, pe(&cgra, 0, 0), 3, pe(&cgra, 0, 1), 3),
                &UnitCost,
            )
            .unwrap();
        assert_eq!(r.hops(), 1);
        assert_eq!(r.resources()[0].slot(), 1); // the consumption cycle's slot
    }

    #[test]
    fn zero_length_to_a_distant_pe_is_no_path() {
        let (cgra, mrrg) = setup(2);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let e = router
            .route(
                &occ,
                &req(0, pe(&cgra, 0, 0), 3, pe(&cgra, 2, 3), 3),
                &UnitCost,
            )
            .unwrap_err();
        assert!(matches!(e, RouteError::NoPath { .. }));
    }

    #[test]
    fn negative_length_is_an_error() {
        let (cgra, mrrg) = setup(2);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let e = router
            .route(
                &occ,
                &req(0, pe(&cgra, 0, 0), 3, pe(&cgra, 0, 1), 2),
                &UnitCost,
            )
            .unwrap_err();
        assert!(matches!(e, RouteError::NegativeLength { .. }));
    }

    #[test]
    fn too_far_for_the_deadline_is_no_path() {
        let (cgra, mrrg) = setup(4);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        // Manhattan distance 5 but only 2 cycles.
        let e = router
            .route(
                &occ,
                &req(0, pe(&cgra, 0, 0), 1, pe(&cgra, 2, 3), 3),
                &UnitCost,
            )
            .unwrap_err();
        assert!(matches!(e, RouteError::NoPath { .. }));
    }

    #[test]
    fn over_long_request_is_no_path_before_any_attempt() {
        // 4x4/r4 at II 1: 48 link and 16·4 register cells.
        let (cgra, mrrg) = setup(1);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let (src, dst) = (pe(&cgra, 0, 0), pe(&cgra, 3, 3));
        let (longest, too_long) = (req(0, src, 1, dst, 1 + 112), req(0, src, 1, dst, 2 + 112));
        let ((result, cert), run) =
            recorded("test/over_long", || router.route_certified(&occ, &too_long));
        assert_eq!(result, Err(RouteError::NoPath { request: too_long }));
        assert!(cert.is_empty());
        assert_eq!(count(&run, "router.expansions"), 0);
        let (_, run) = recorded("test/longest", || router.route(&occ, &longest, &UnitCost));
        assert!(
            count(&run, "router.expansions") > 0,
            "at the bound the DP runs"
        );
    }

    #[test]
    fn blocked_cells_are_respected_by_unit_cost() {
        let (cgra, mrrg) = setup(1);
        let mut occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        // Block both links out of (0,0) at slot 0 (II = 1, so every cycle).
        for link in cgra.links_from(pe(&cgra, 0, 0)) {
            occ.claim(
                Resource::Link {
                    link: link.id(),
                    slot: 0,
                },
                NodeId::new(99),
                0,
            );
        }
        // Also fill every register of (0,0) so the value cannot wait.
        for r in 0..cgra.regs_per_pe() {
            occ.claim(
                Resource::Reg {
                    pe: pe(&cgra, 0, 0),
                    reg: r,
                    slot: 0,
                },
                NodeId::new(99),
                0,
            );
        }
        let e = router
            .route(
                &occ,
                &req(0, pe(&cgra, 0, 0), 1, pe(&cgra, 0, 1), 2),
                &UnitCost,
            )
            .unwrap_err();
        assert!(matches!(e, RouteError::NoPath { .. }));
    }

    #[test]
    fn same_signal_may_share_blocked_cells() {
        let (cgra, mrrg) = setup(1);
        let mut occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        for link in cgra.links_from(pe(&cgra, 0, 0)) {
            occ.claim(
                Resource::Link {
                    link: link.id(),
                    slot: 0,
                },
                NodeId::new(7),
                0,
            );
        }
        // Signal 7 can reuse its own cells.
        let r = router
            .route(
                &occ,
                &req(7, pe(&cgra, 0, 0), 1, pe(&cgra, 0, 1), 2),
                &UnitCost,
            )
            .unwrap();
        assert_eq!(r.hops(), 1);
    }

    #[test]
    fn negotiated_cost_routes_through_congestion() {
        let (cgra, mrrg) = setup(1);
        let mut occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        for link in cgra.links_from(pe(&cgra, 0, 0)) {
            occ.claim(
                Resource::Link {
                    link: link.id(),
                    slot: 0,
                },
                NodeId::new(99),
                0,
            );
        }
        for r in 0..cgra.regs_per_pe() {
            occ.claim(
                Resource::Reg {
                    pe: pe(&cgra, 0, 0),
                    reg: r,
                    slot: 0,
                },
                NodeId::new(99),
                0,
            );
        }
        let nc = NegotiatedCost::new(&mrrg, 10.0, 1.0);
        let r = router
            .route(&occ, &req(0, pe(&cgra, 0, 0), 1, pe(&cgra, 0, 1), 2), &nc)
            .unwrap();
        assert_eq!(r.hops(), 1);
        assert!(r.cost() > 10.0, "congestion penalty applies: {}", r.cost());
    }

    #[test]
    fn history_cost_accumulates_on_overuse() {
        let (cgra, mrrg) = setup(1);
        let mut occ = Occupancy::new(&mrrg);
        let cell = Resource::Link {
            link: cgra.links_from(pe(&cgra, 0, 0)).next().unwrap().id(),
            slot: 0,
        };
        occ.claim(cell, NodeId::new(1), 0);
        occ.claim(cell, NodeId::new(2), 0);
        let mut nc = NegotiatedCost::new(&mrrg, 1.0, 0.5);
        nc.accumulate_history_everywhere(&occ);
        nc.accumulate_history_everywhere(&occ);
        assert_eq!(nc.history(&mrrg, cell), 1.0);
    }

    #[test]
    fn self_edge_round_trip_waits_in_registers() {
        // A node feeding itself next iteration at II 3: depart t+1, arrive
        // t+3 — two register cells on its own PE.
        let (cgra, mrrg) = setup(3);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let p = pe(&cgra, 2, 2);
        let r = router.route(&occ, &req(0, p, 1, p, 3), &UnitCost).unwrap();
        assert_eq!(r.hops(), 0);
        assert_eq!(r.reg_cycles(), 2);
        // Both cells in the same register at consecutive slots.
        let slots: Vec<u32> = r.resources().iter().map(|c| c.slot()).collect();
        assert_eq!(slots, vec![1, 2]);
    }

    #[test]
    fn register_residency_respects_modulo_wrap() {
        // II=2, single register per PE: a 5-cycle wait cannot fit (any
        // register can hold at most II=2 consecutive cycles, and chaining
        // needs a second register).
        let cgra = presets::paper_4x4_r1();
        let mrrg = Mrrg::new(&cgra, 2);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let p = cgra.pe_at(Coord::new(1, 1)).unwrap().id();
        let out = router.route(&occ, &req(0, p, 1, p, 6), &UnitCost);
        // With one register the value can sit at most 2 cycles, then must
        // move; it can bounce between neighbours, so a path may still exist
        // — but it must involve link hops, not a 5-cycle register stay.
        if let Ok(r) = out {
            assert!(r.hops() >= 2, "cannot idle in registers past II: {r}");
        }
    }

    #[test]
    fn router_metrics_accumulate_under_scope() {
        let (cgra, mrrg) = setup(2);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        // Unique scope so parallel tests sharing the global registry
        // cannot interfere with the assertions.
        let _scope = obs::scope("test/router_metrics_accumulate");
        router
            .route(
                &occ,
                &req(0, pe(&cgra, 0, 0), 1, pe(&cgra, 0, 1), 2),
                &UnitCost,
            )
            .unwrap();
        router
            .route(
                &occ,
                &req(0, pe(&cgra, 0, 0), 3, pe(&cgra, 0, 1), 2),
                &UnitCost,
            )
            .unwrap_err();
        let snap = obs::metrics().snapshot();
        let s = &snap.scopes["test/router_metrics_accumulate"];
        assert_eq!(s.counters["router.route_calls"], 2);
        assert_eq!(s.counters["router.route_ok"], 1);
        assert_eq!(s.counters["router.route_failed"], 1);
        assert!(s.counters["router.expansions"] > 0, "relax calls counted");
        assert_eq!(s.histograms["router.route_len"].count, 1);
        assert_eq!(s.histograms["router.route_len"].min, Some(1));
    }

    /// The quadratic scan `duplicate_cells` replaced, kept verbatim as the
    /// behavioural reference: every cell appearing at least twice, reported
    /// once, in first-occurrence order.
    fn quadratic_duplicates(resources: &[Resource]) -> Vec<Resource> {
        let mut duplicates = Vec::new();
        for (i, a) in resources.iter().enumerate() {
            if resources[i + 1..].contains(a) && !duplicates.contains(a) {
                duplicates.push(*a);
            }
        }
        duplicates
    }

    #[test]
    fn duplicate_scan_matches_the_quadratic_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (_cgra, mrrg) = setup(3);
        let mut scratch = RouterScratch::new();
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..200 {
            let len = rng.random_range(0..24usize);
            let cells: Vec<Resource> = (0..len)
                .map(|_| mrrg.resource_of(rng.random_range(0..mrrg.num_cells())))
                .collect();
            assert_eq!(
                scratch.duplicate_cells(&mrrg, &cells),
                quadratic_duplicates(&cells),
                "trial {trial}: {cells:?}"
            );
        }
        // Hand-picked interleaving where second-occurrence order would
        // differ from first-occurrence order: [A, B, B, A].
        let a = mrrg.resource_of(0);
        let b = mrrg.resource_of(1);
        let cells = vec![a, b, b, a];
        assert_eq!(scratch.duplicate_cells(&mrrg, &cells), vec![a, b]);
    }

    #[test]
    fn dense_and_pruned_routers_agree_and_prune() {
        // Mixed requests on the 4x4 fabric, all routable; then the 8x8
        // fabric's long-haul corner route (0,0) -> (7,7) at slack 0, 2 and
        // 6, where the two modes must agree on failures too.
        let corner = |slack: u32| ((0, 0), (7, 7), 1, 1 + 14 + slack);
        let cases = [
            (
                presets::paper_4x4_r4(),
                true,
                vec![
                    ((0, 0), (2, 3), 1, 6),
                    ((0, 0), (0, 1), 1, 4),
                    ((3, 3), (0, 0), 2, 9),
                    ((1, 1), (1, 1), 1, 3),
                ],
            ),
            (
                presets::paper_8x8_r4(),
                false,
                vec![corner(0), corner(2), corner(6)],
            ),
        ];
        for (cgra, must_route, requests) in &cases {
            let mrrg = Mrrg::new(cgra, 4);
            let occ = Occupancy::new(&mrrg);
            let dense = Router::with_mode(cgra, &mrrg, RouterMode::Dense);
            let pruned = Router::with_mode(cgra, &mrrg, RouterMode::Pruned);
            let (mut pruned_states, mut frontiers) = (0, 0);
            for &(src, dst, depart, arrive) in requests {
                let r = req(
                    0,
                    pe(cgra, src.0, src.1),
                    depart,
                    pe(cgra, dst.0, dst.1),
                    arrive,
                );
                let at = format!("test/dense_vs_pruned_unit/{}/{r:?}", cgra.label());
                let (a, dense_run) =
                    recorded(&format!("{at}/dense"), || dense.route(&occ, &r, &UnitCost));
                let (b, pruned_run) = recorded(&format!("{at}/pruned"), || {
                    pruned.route(&occ, &r, &UnitCost)
                });
                assert_eq!(a, b, "{r:?}");
                assert!(a.is_ok() || !must_route, "{r:?}: {a:?}");
                let (d, p) = (
                    count(&dense_run, "router.expansions"),
                    count(&pruned_run, "router.expansions"),
                );
                assert!(p <= d, "{r:?}: pruned {p} > dense {d} expansions");
                pruned_states += count(&pruned_run, "router.pruned_states");
                frontiers += pruned_run
                    .histograms
                    .get("router.frontier_size")
                    .map_or(0, |h| h.count);
            }
            let label = cgra.label();
            assert!(pruned_states > 0, "the oracle pruned something on {label}");
            assert!(frontiers > 0, "{label}");
        }
    }

    #[test]
    fn unreachable_destination_is_no_path_in_both_modes() {
        // A deliberately disconnected fabric: rows 0..1 and 1..3 are
        // separate islands, so cross-island requests must fail cleanly.
        let cgra = rewire_arch::CgraBuilder::new(3, 3)
            .cut_row(1)
            .build()
            .unwrap();
        let mrrg = Mrrg::new(&cgra, 2);
        let occ = Occupancy::new(&mrrg);
        let r = req(0, pe(&cgra, 0, 0), 1, pe(&cgra, 2, 2), 9);
        for mode in [RouterMode::Dense, RouterMode::Pruned] {
            let router = Router::with_mode(&cgra, &mrrg, mode);
            let e = router.route(&occ, &r, &UnitCost).unwrap_err();
            assert!(matches!(e, RouteError::NoPath { .. }), "{mode:?}");
        }
    }

    #[test]
    fn installed_distance_table_is_reused() {
        let (cgra, _mrrg) = setup(2);
        let oracle = DistanceOracle::shared(&cgra);
        let mut scratch = RouterScratch::new();
        scratch.install_distances(Arc::clone(&oracle));
        assert!(Arc::ptr_eq(&scratch.distances_for(&cgra), &oracle));
        // An oracle for another fabric coexists in the cache; the first
        // one is still served as the same `Arc`.
        let other = rewire_arch::CgraBuilder::new(2, 2).build().unwrap();
        let rebuilt = scratch.distances_for(&other);
        assert!(!Arc::ptr_eq(&rebuilt, &oracle));
        assert!(rebuilt.matches(&other));
        assert!(Arc::ptr_eq(&scratch.distances_for(&cgra), &oracle));
    }

    #[test]
    fn oracle_cache_is_bounded_with_mru_eviction() {
        // One distinct topology per grid shape: the cache must stop at its
        // cap instead of accreting an oracle per fabric ever routed.
        let mut scratch = RouterScratch::new();
        let fabrics: Vec<rewire_arch::Cgra> = (0..7)
            .map(|i| {
                rewire_arch::CgraBuilder::new(2, 2 + i as u16)
                    .build()
                    .unwrap()
            })
            .collect();
        for cgra in &fabrics {
            scratch.distances_for(cgra);
        }
        assert_eq!(scratch.oracles.len(), ORACLE_CACHE_CAP);
        // Most recently used fabrics survive; the earliest were evicted.
        let last = &fabrics[6];
        let first = &fabrics[0];
        let kept = Arc::clone(&scratch.distances_for(last));
        assert!(kept.matches(last));
        let rebuilt = scratch.distances_for(first);
        assert!(
            rebuilt.matches(first),
            "evicted fabric is rebuilt on demand"
        );
        assert_eq!(scratch.oracles.len(), ORACLE_CACHE_CAP);
        // Re-requesting the MRU entry returns the very same Arc.
        assert!(Arc::ptr_eq(&scratch.distances_for(first), &rebuilt));
    }

    #[test]
    fn tree_cost_discounts_owned_cells_only() {
        let (cgra, mrrg) = setup(2);
        let mut occ = Occupancy::new(&mrrg);
        let l0 = cgra.links().next().unwrap().id();
        let cell = Resource::Link { link: l0, slot: 1 };
        let signal = NodeId::new(5);
        occ.claim(cell, signal, 0);
        let tc = TreeCost::new(&UnitCost);
        let idx = mrrg.index_of(cell);
        // Owned at the queried phase: discounted.
        assert_eq!(
            tc.cell_cost(&occ, idx, signal, 0),
            Some(TREE_REUSE_DISCOUNT)
        );
        // Same signal at a different phase: the inner model forbids it,
        // and so must the wrapper.
        assert_eq!(tc.cell_cost(&occ, idx, signal, 1), None);
        // A free cell keeps the inner cost.
        let other = mrrg.index_of(Resource::Link {
            link: cgra.links().nth(1).unwrap().id(),
            slot: 1,
        });
        assert_eq!(tc.cell_cost(&occ, other, signal, 0), Some(1.0));
        // A foreign signal cannot take the owned cell.
        assert_eq!(tc.cell_cost(&occ, idx, NodeId::new(6), 0), None);
    }

    #[test]
    fn unit_cost_discounts_registers_by_index_class() {
        let (_cgra, mrrg) = setup(3);
        let occ = Occupancy::new(&mrrg);
        let signal = NodeId::new(0);
        for idx in 0..mrrg.num_cells() {
            let want = if mrrg.resource_of(idx).is_reg() {
                0.95
            } else {
                1.0
            };
            assert_eq!(UnitCost.cell_cost(&occ, idx, signal, 0), Some(want));
        }
    }

    /// The fabrics `crates/mrrg/tests/route_golden.rs` pins routes on: the
    /// four paper presets, the 32×32 mesh and eight random fabrics with
    /// torus, diagonal and cut links.
    fn golden_fabrics() -> Vec<Cgra> {
        use rewire_arch::random::{random_cgra_spec, RandomCgraParams};
        let params = RandomCgraParams {
            cut_prob: 0.25,
            torus_prob: 0.3,
            diagonal_prob: 0.3,
            ..RandomCgraParams::default()
        };
        let mut fabrics = vec![
            presets::paper_4x4_r4(),
            presets::paper_4x4_r2(),
            presets::paper_4x4_r1(),
            presets::paper_8x8_r4(),
            presets::mesh32(),
        ];
        fabrics.extend((0..8).map(|seed| random_cgra_spec(&params, seed).build().unwrap()));
        fabrics
    }

    #[test]
    fn transition_indices_match_index_of() {
        // Every (next state, cell) pair the DP relaxes — out-neighbour
        // slice, then register template — against the `Resource`-built
        // enumeration it replaced, named through `Mrrg::index_of`.
        let mut template = RegMoves::default();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for cgra in golden_fabrics() {
            for ii in 1..=8u32 {
                let mrrg = Mrrg::new(&cgra, ii);
                let (ii, regs) = (ii as usize, cgra.regs_per_pe());
                template.prepare(regs as usize, ii);
                let t = Transitions::new(&cgra, &mrrg, &template);
                assert_eq!(t.stride, 1 + regs as usize * ii);
                for pe in cgra.pes() {
                    let p = pe.id().index();
                    for c in 0..t.stride {
                        let carrier = Carrier::at(c, ii);
                        assert_eq!(carrier.offset(ii), c);
                        for slot in 0..ii {
                            got.clear();
                            t.for_each(p, c, slot, |ns, cell| got.push((ns, cell)));
                            want.clear();
                            let slot = slot as u32;
                            for link in cgra.links_from(pe.id()) {
                                let res = Resource::Link {
                                    link: link.id(),
                                    slot,
                                };
                                want.push((link.dst().index() * t.stride, mrrg.index_of(res)));
                                assert_eq!(
                                    t.link_cell(link.id(), slot as usize),
                                    mrrg.index_of(res)
                                );
                            }
                            let mut reg = |r: u8, to: Carrier| {
                                let res = Resource::Reg {
                                    pe: pe.id(),
                                    reg: r,
                                    slot,
                                };
                                want.push((p * t.stride + to.offset(ii), mrrg.index_of(res)));
                            };
                            match carrier {
                                Carrier::Wire => (0..regs).for_each(|r| reg(r, Carrier::Reg(r, 1))),
                                Carrier::Reg(r, run) => {
                                    if (run as usize) < ii {
                                        reg(r, Carrier::Reg(r, run + 1));
                                    }
                                    (0..regs)
                                        .filter(|&r2| r2 != r)
                                        .for_each(|r2| reg(r2, Carrier::Reg(r2, 1)));
                                }
                            }
                            assert_eq!(
                                got,
                                want,
                                "{} ii {ii} pe {p} {carrier:?} slot {slot}",
                                cgra.label()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn route_fanout_shares_a_trunk_and_restores_occupancy() {
        let (cgra, mrrg) = setup(4);
        let mut occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let _scope = obs::scope("test/route_fanout_trunk");
        // One producer at (0,0), two sinks far away in the same corner:
        // their shortest paths overlap for several hops.
        let src = pe(&cgra, 0, 0);
        let reqs = [
            req(9, src, 1, pe(&cgra, 2, 3), 6),
            req(9, src, 1, pe(&cgra, 3, 2), 6),
        ];
        let routes = router.route_fanout(&mut occ, &reqs, &UnitCost).unwrap();
        assert_eq!(routes.len(), 2);
        // Routes come back in request order.
        assert_eq!(routes[0].request(), &reqs[0]);
        assert_eq!(routes[1].request(), &reqs[1]);
        // The occupancy is exactly as found.
        assert_eq!(occ.used_cells(), 0);
        // The branches claim without overuse (no revisits, equal-phase
        // sharing only) and genuinely share a trunk.
        routes.iter().for_each(|r| occ.claim_route(r));
        assert_eq!(occ.total_overuse(), 0);
        let total: usize = routes.iter().map(|r| r.resources().len()).sum();
        assert!(
            footprint(&routes) < total,
            "sibling branches converge on a trunk: {routes:?}"
        );
        let snap = obs::metrics().snapshot();
        let s = &snap.scopes["test/route_fanout_trunk"];
        assert!(
            s.counters["router.tree_reuse"] > 0,
            "trunk reuse is published"
        );
    }

    #[test]
    fn route_fanout_footprint_never_exceeds_per_edge() {
        // A hub at (1,1) of the 4x4 fabric; then a corner hub at (0,0) of
        // the 8x8 fabric fanning out to 2, 4 and 8 sinks over its far half,
        // with per-sink slack so the branches differ in length.
        let small = presets::paper_4x4_r4();
        let hub = pe(&small, 1, 1);
        let mut cases = vec![(
            small.clone(),
            vec![
                req(2, hub, 1, pe(&small, 3, 3), 6),
                req(2, hub, 1, pe(&small, 3, 2), 5),
                req(2, hub, 1, pe(&small, 2, 3), 5),
            ],
        )];
        let big = presets::paper_8x8_r4();
        for n in [2u16, 4, 8] {
            let sinks = (0..n).map(|i| {
                let (row, col) = (3 + i % 5, 7 - i % 3);
                let arrive = 1 + u32::from(row + col + i % 3);
                req(0, pe(&big, 0, 0), 1, pe(&big, row, col), arrive)
            });
            cases.push((big.clone(), sinks.collect()));
        }
        for (cgra, reqs) in &cases {
            let mrrg = Mrrg::new(cgra, 4);
            let router = Router::new(cgra, &mrrg);
            let at = format!("test/fanout_vs_per_edge/{}/{}", cgra.label(), reqs.len());
            // Per-edge baseline: route each branch independently against
            // the accumulating occupancy (the mappers' sequential commit
            // order).
            let mut per_edge = Occupancy::new(&mrrg);
            let (baseline, edge_run) = recorded(&format!("{at}/per_edge"), || {
                let claim = |r| {
                    let route = router.route(&per_edge, r, &UnitCost).unwrap();
                    per_edge.claim_route(&route);
                    route
                };
                reqs.iter().map(claim).collect::<Vec<_>>()
            });
            let mut occ = Occupancy::new(&mrrg);
            let (routes, tree_run) = recorded(&format!("{at}/tree"), || {
                router.route_fanout(&mut occ, reqs, &UnitCost).unwrap()
            });
            routes.iter().for_each(|r| occ.claim_route(r));
            assert_eq!(per_edge.total_overuse() + occ.total_overuse(), 0, "{at}");
            let (tree, edge) = (footprint(&routes), footprint(&baseline));
            assert!(tree <= edge, "{at}: tree {tree} vs per-edge {edge}");
            // TreeCost re-prices cells but never widens the DP sweep.
            let (tree_exp, edge_exp) = (
                count(&tree_run, "router.expansions"),
                count(&edge_run, "router.expansions"),
            );
            assert!(tree_exp <= edge_exp, "{at}: {tree_exp} > {edge_exp}");
            if reqs.len() == 8 {
                assert!(
                    count(&tree_run, "router.tree_reuse") > 0,
                    "{at}: no trunk reuse"
                );
            }
        }
    }

    #[test]
    fn route_fanout_rejects_mixed_producers_and_propagates_failures() {
        let (cgra, mrrg) = setup(4);
        let mut occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        assert!(router
            .route_fanout(&mut occ, &[], &UnitCost)
            .unwrap()
            .is_empty());
        let bad = [
            req(1, pe(&cgra, 0, 0), 1, pe(&cgra, 1, 1), 3),
            req(1, pe(&cgra, 0, 1), 1, pe(&cgra, 1, 1), 3),
        ];
        assert!(std::panic::catch_unwind(|| {
            let mut occ = Occupancy::new(&mrrg);
            let _ = router.route_fanout(&mut occ, &bad, &UnitCost);
        })
        .is_err());
        // One feasible and one impossible branch: the call fails, and no
        // claims are left behind.
        let reqs = [
            req(1, pe(&cgra, 0, 0), 1, pe(&cgra, 0, 1), 2),
            req(1, pe(&cgra, 0, 0), 1, pe(&cgra, 2, 3), 0), // backwards
        ];
        let e = router.route_fanout(&mut occ, &reqs, &UnitCost).unwrap_err();
        assert!(matches!(e, RouteError::NegativeLength { .. }));
        assert_eq!(occ.used_cells(), 0);
    }

    #[test]
    fn route_claim_release_is_balanced() {
        let (cgra, mrrg) = setup(2);
        let mut occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let r = router
            .route(
                &occ,
                &req(0, pe(&cgra, 0, 0), 1, pe(&cgra, 1, 1), 3),
                &UnitCost,
            )
            .unwrap();
        occ.claim_route(&r);
        assert!(occ.used_cells() > 0);
        occ.release_route(&r);
        assert_eq!(occ.used_cells(), 0);
    }
}
