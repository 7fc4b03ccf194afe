//! Routing propagation (§IV-C of the paper).
//!
//! Values of the cluster's mapped parents are flooded forward through the
//! network; mapped children are flooded backward. Each wavefront visit
//! produces a *propagation tuple* — the paper's probe of network
//! utilisation: `(source node, direction, PE, cycle)`. Tuples are
//! deduplicated on exactly that key ("no existing tuple at that PE with the
//! identical combination of source node, routing cycle count, and
//! propagation direction"), and propagation continues through cells already
//! visited by *other* tuples, because the goal is exploring potential
//! routing paths, not final allocation. Cells used by the current (valid
//! part of the) mapping block propagation unless they already carry the
//! propagated signal (fan-out sharing).

use rewire_arch::{Cgra, PeId};
use rewire_dfg::NodeId;
use rewire_mrrg::{Occupancy, Resource};

/// Propagation direction of a tuple.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// From a mapped parent, following data flow.
    Forward,
    /// From a mapped child, against data flow.
    Backward,
}

impl Direction {
    /// Dense index (`Forward` = 0, `Backward` = 1) for flat side tables.
    const fn index(self) -> usize {
        match self {
            Direction::Forward => 0,
            Direction::Backward => 1,
        }
    }
}

/// One propagation source.
#[derive(Clone, Copy, Debug)]
pub struct PropagationSeed {
    /// The mapped DFG node the wave originates from.
    pub source: NodeId,
    /// Wave direction.
    pub direction: Direction,
    /// PE the wave starts from (the source's PE, or — for backward
    /// delivery seeds — an upstream neighbour of it).
    pub pe: PeId,
    /// Seed cycle: for forward waves, the cycle the source's value first
    /// appears on its output wire (`t + 1`); for backward waves, the cycle
    /// a value must *arrive* at the source to be consumed
    /// (`t + distance·II`).
    pub cycle: u32,
    /// Wave identity tag. Waves from the same source with different
    /// deadlines (e.g. two consuming edges with different iteration
    /// distances) must not share tuples, so the tag — by convention the
    /// principal seed cycle — separates them.
    pub wave: u32,
}

/// The tuple store: for every `(source, direction)` wave, the set of
/// `(PE, cycle)` positions reached.
///
/// A *position* `(pe, c)` means: forward — the source's value can be read
/// by an FU on `pe` during cycle `c`; backward — a value readable on `pe`
/// during cycle `c` can still reach the source in time.
#[derive(Clone, Debug, Default)]
pub struct TupleStore {
    /// Indexed by `node.index() * 2 + direction.index()` — NodeIds are
    /// contiguous, so the wave lookup is two array indexings instead of a
    /// hash. Each entry holds that `(node, direction)`'s tagged waves;
    /// distinct tags per pair are the node's distinct edge deadlines,
    /// almost always one or two, so a linear scan wins.
    waves: Vec<Vec<Wave>>,
    num_tuples: u64,
}

/// The positions one tagged wave reached: per PE, a row of `words` bitset
/// words over the cycle window `[lo, lo + 64·words)` (bit `k` of the row is
/// cycle `lo + k`). The window is sized from the tag's seeds before the
/// wave runs, so every position it can reach has a bit.
#[derive(Clone, Debug)]
pub(crate) struct Wave {
    tag: u32,
    lo: u32,
    words: usize,
    bits: Vec<u64>,
}

impl Wave {
    fn new(tag: u32, lo: u32, hi: u32, num_pes: usize) -> Self {
        let words = ((hi - lo) / 64 + 1) as usize;
        Self {
            tag,
            lo,
            words,
            bits: vec![0; num_pes * words],
        }
    }

    /// First cycle of the window.
    #[inline]
    pub(crate) fn lo(&self) -> u32 {
        self.lo
    }

    /// Last cycle of the window.
    #[inline]
    pub(crate) fn hi(&self) -> u32 {
        self.lo + 64 * self.words as u32 - 1
    }

    /// The bitset row of `pe` (bit `k` = cycle `lo + k`).
    #[inline]
    pub(crate) fn row(&self, pe: PeId) -> &[u64] {
        &self.bits[pe.index() * self.words..][..self.words]
    }

    /// Whether the wave reaches `pe` exactly at `cycle`.
    fn contains(&self, pe: PeId, cycle: u32) -> bool {
        let Some(k) = cycle.checked_sub(self.lo) else {
            return false;
        };
        let word = (k / 64) as usize;
        word < self.words && self.bits[pe.index() * self.words + word] >> (k % 64) & 1 == 1
    }

    /// The word within a row and the bit of `cycle`.
    #[inline]
    fn bit_of(&self, cycle: u32) -> (usize, u64) {
        let k = cycle - self.lo;
        ((k / 64) as usize, 1 << (k % 64))
    }

    /// Adds `pe` at the cycle of `(word, bit)` and pushes it onto `layer`,
    /// unless the wave already holds it or `usable` says the hop is
    /// blocked. The bit is tested first, so positions already reached
    /// cost no occupancy read.
    #[inline]
    fn reach(
        &mut self,
        layer: &mut Vec<PeId>,
        pe: PeId,
        (word, bit): (usize, u64),
        usable: impl FnOnce() -> bool,
    ) {
        let at = pe.index() * self.words + word;
        if self.bits[at] & bit == 0 && usable() {
            self.bits[at] |= bit;
            layer.push(pe);
        }
    }

    /// The cycles at which the wave reaches `pe`, ascending.
    fn cycles(&self, pe: PeId) -> impl Iterator<Item = u32> + '_ {
        let lo = self.lo;
        self.row(pe).iter().enumerate().flat_map(move |(w, &word)| {
            let base = lo + 64 * w as u32;
            SetBits(word).map(move |b| base + b)
        })
    }

    /// The earliest cycle at which the wave reaches `pe`.
    #[inline]
    pub(crate) fn first(&self, pe: PeId) -> Option<u32> {
        self.cycles(pe).next()
    }

    /// The latest cycle at which the wave reaches `pe`.
    #[inline]
    pub(crate) fn last(&self, pe: PeId) -> Option<u32> {
        let row = self.row(pe);
        let w = row.iter().rposition(|&word| word != 0)?;
        Some(self.lo + 64 * w as u32 + 63 - row[w].leading_zeros())
    }
}

/// The set bit positions of one word, ascending.
pub(crate) struct SetBits(pub(crate) u64);

impl Iterator for SetBits {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(b)
    }
}

impl TupleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn wave_slot(source: NodeId, direction: Direction) -> usize {
        source.index() * 2 + direction.index()
    }

    /// The tagged wave, if any seed started it.
    #[inline]
    pub(crate) fn wave(&self, source: NodeId, direction: Direction, wave: u32) -> Option<&Wave> {
        self.waves
            .get(Self::wave_slot(source, direction))?
            .iter()
            .find(|w| w.tag == wave)
    }

    /// The cycles at which the tagged wave reaches `pe`, ascending.
    pub fn cycles(
        &self,
        source: NodeId,
        direction: Direction,
        wave: u32,
        pe: PeId,
    ) -> impl Iterator<Item = u32> + '_ {
        self.wave(source, direction, wave)
            .into_iter()
            .flat_map(move |w| w.cycles(pe))
    }

    /// Whether the wave reaches `pe` exactly at `cycle`.
    pub fn contains(
        &self,
        source: NodeId,
        direction: Direction,
        wave: u32,
        pe: PeId,
        cycle: u32,
    ) -> bool {
        self.wave(source, direction, wave)
            .is_some_and(|w| w.contains(pe, cycle))
    }

    /// Whether the wave reaches `pe` at any cycle `≤ cycle` (forward
    /// transitive requirement).
    pub fn contains_at_or_before(
        &self,
        source: NodeId,
        direction: Direction,
        wave: u32,
        pe: PeId,
        cycle: u32,
    ) -> bool {
        self.wave(source, direction, wave)
            .and_then(|w| w.first(pe))
            .is_some_and(|first| first <= cycle)
    }

    /// Whether the wave reaches `pe` at any cycle `≥ cycle` (backward
    /// transitive requirement).
    pub fn contains_at_or_after(
        &self,
        source: NodeId,
        direction: Direction,
        wave: u32,
        pe: PeId,
        cycle: u32,
    ) -> bool {
        self.wave(source, direction, wave)
            .and_then(|w| w.last(pe))
            .is_some_and(|last| last >= cycle)
    }

    /// Total number of tuples generated.
    pub fn num_tuples(&self) -> u64 {
        self.num_tuples
    }

    fn wave_mut(&mut self, source: NodeId, direction: Direction, wave: u32) -> &mut Wave {
        self.waves[Self::wave_slot(source, direction)]
            .iter_mut()
            .find(|w| w.tag == wave)
            .expect("every seed's wave has a window")
    }
}

/// Runs the waves seed by seed, each for up to `rounds` wavefront steps
/// from its tag cycle, blocked only by cells the current mapping claims
/// for *other* signals, and returns the tuple store.
///
/// One round advances a wave by one cycle: a value either crosses a link
/// or waits in a register of its current PE. The consuming/producing
/// delivery hop (see the `rewire-mrrg` timing contract) is accounted for at
/// intersection time, not here.
pub fn propagate(
    cgra: &Cgra,
    occ: &Occupancy,
    seeds: &[PropagationSeed],
    rounds: u32,
) -> TupleStore {
    // A wave steps while its cycle is fewer than `rounds` away from the
    // tag, so a forward wave ends by `max(cycle, wave + rounds)` and a
    // backward one starts no earlier than `min(cycle, wave − rounds)`
    // (clipped at 0). Every seed of a tag widens the tag's window before
    // any wave runs, so no seed can step outside its rows.
    let mut windows: Vec<(NodeId, Direction, u32, u32, u32)> = Vec::new();
    for seed in seeds {
        let (lo, hi) = match seed.direction {
            Direction::Forward => (seed.cycle, seed.cycle.max(seed.wave.saturating_add(rounds))),
            Direction::Backward => (seed.cycle.min(seed.wave.saturating_sub(rounds)), seed.cycle),
        };
        let key = (seed.source, seed.direction, seed.wave);
        match windows.iter_mut().find(|(s, d, t, ..)| (*s, *d, *t) == key) {
            Some((.., wlo, whi)) => (*wlo, *whi) = ((*wlo).min(lo), (*whi).max(hi)),
            None => windows.push((seed.source, seed.direction, seed.wave, lo, hi)),
        }
    }
    let mut store = TupleStore::new();
    for (source, direction, tag, lo, hi) in windows {
        let slot = TupleStore::wave_slot(source, direction);
        if store.waves.len() <= slot {
            store.waves.resize_with(slot + 1, Vec::new);
        }
        store.waves[slot].push(Wave::new(tag, lo, hi, cgra.num_pes()));
    }

    let mrrg = occ.mrrg();
    let regs = cgra.regs_per_pe();
    let (mut layer, mut next) = (Vec::new(), Vec::new());
    let mut num_tuples = 0u64;
    for seed in seeds {
        let source = seed.source;
        let wave = store.wave_mut(source, seed.direction, seed.wave);
        // Each wave is an independent BFS over (pe, cycle) positions, one
        // cycle per layer, so the step bound, the modulo slot and the bit
        // of the next cycle are worked out once per layer. The
        // per-(source, dir, pe, cycle) dedup is the paper's redundancy
        // filter; a seed an earlier seed of its tag already reached adds
        // nothing.
        layer.clear();
        wave.reach(&mut layer, seed.pe, wave.bit_of(seed.cycle), || true);
        num_tuples += layer.len() as u64;
        let mut cycle = seed.cycle;
        while !layer.is_empty() && cycle.abs_diff(seed.wave) < rounds {
            let (move_cycle, next_cycle) = match seed.direction {
                // Forward: a move during `cycle` makes the value readable
                // at `cycle + 1`.
                Direction::Forward => (cycle, cycle + 1),
                // Backward: a value readable at `cycle - 1` can move
                // during `cycle - 1` to be readable here at `cycle`.
                Direction::Backward if cycle > 0 => (cycle - 1, cycle - 1),
                Direction::Backward => break,
            };
            let slot = mrrg.slot_of(move_cycle);
            let at = wave.bit_of(next_cycle);
            next.clear();
            for &pe in &layer {
                // Register wait on the same PE: usable if any register
                // cell is free or already carries this signal (any phase —
                // propagation is an optimistic probe, verification is
                // exact).
                wave.reach(&mut next, pe, at, || {
                    (0..regs)
                        .any(|reg| occ.usable_by_any_phase(Resource::Reg { pe, reg, slot }, source))
                });

                // Link hops.
                match seed.direction {
                    Direction::Forward => {
                        for &(dst, link) in cgra.out_neighbours(pe) {
                            wave.reach(&mut next, dst, at, || {
                                occ.usable_by_any_phase(Resource::Link { link, slot }, source)
                            });
                        }
                    }
                    Direction::Backward => {
                        for link in cgra.links_to(pe) {
                            wave.reach(&mut next, link.src(), at, || {
                                let cell = Resource::Link {
                                    link: link.id(),
                                    slot,
                                };
                                occ.usable_by_any_phase(cell, source)
                            });
                        }
                    }
                }
            }
            num_tuples += next.len() as u64;
            std::mem::swap(&mut layer, &mut next);
            cycle = next_cycle;
        }
    }
    store.num_tuples = num_tuples;
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::{presets, Coord};
    use rewire_mrrg::Mrrg;

    fn setup(ii: u32) -> (rewire_arch::Cgra, Occupancy) {
        let cgra = presets::paper_4x4_r4();
        let occ = Occupancy::new(&Mrrg::new(&cgra, ii));
        (cgra, occ)
    }

    fn pe(cgra: &rewire_arch::Cgra, r: u16, c: u16) -> PeId {
        cgra.pe_at(Coord::new(r, c)).unwrap().id()
    }

    #[test]
    fn forward_wave_reaches_manhattan_ball() {
        let (cgra, occ) = setup(2);
        let src = pe(&cgra, 0, 0);
        let seeds = [PropagationSeed {
            source: NodeId::new(0),
            direction: Direction::Forward,
            pe: src,
            cycle: 1,
            wave: 1,
        }];
        let store = propagate(&cgra, &occ, &seeds, 3);
        // After up to 3 moves the value reaches every PE within distance 3.
        for p in cgra.pes() {
            let d = cgra.distance(src, p.id());
            let first = store
                .cycles(NodeId::new(0), Direction::Forward, 1, p.id())
                .next();
            assert_eq!(first.is_some(), d <= 3, "{} at distance {d}", p.id());
            if d > 0 {
                if let Some(first) = first {
                    // Earliest arrival = seed cycle + Manhattan distance.
                    assert_eq!(first, 1 + d);
                }
            }
        }
    }

    #[test]
    fn backward_wave_runs_down_in_time() {
        let (cgra, occ) = setup(2);
        let dst = pe(&cgra, 1, 1);
        let seeds = [PropagationSeed {
            source: NodeId::new(7),
            direction: Direction::Backward,
            pe: dst,
            cycle: 6,
            wave: 6,
        }];
        let store = propagate(&cgra, &occ, &seeds, 2);
        // A PE at distance 2 can still make the 6-cycle deadline if the
        // value leaves by cycle 4.
        let far = pe(&cgra, 1, 3);
        assert!(store.contains(NodeId::new(7), Direction::Backward, 6, far, 4));
        // But not if it only becomes available at cycle 5.
        assert!(!store.contains(NodeId::new(7), Direction::Backward, 6, far, 5));
        // Waiting in registers is also possible: the destination itself at
        // earlier cycles.
        assert!(store.contains(NodeId::new(7), Direction::Backward, 6, dst, 4));
    }

    #[test]
    fn dedup_prevents_duplicate_tuples() {
        let (cgra, occ) = setup(2);
        let src = pe(&cgra, 0, 0);
        let seeds = [PropagationSeed {
            source: NodeId::new(0),
            direction: Direction::Forward,
            pe: src,
            cycle: 1,
            wave: 1,
        }];
        let store = propagate(&cgra, &occ, &seeds, 4);
        // Tuples are unique per (source, dir, pe, cycle); with 4 rounds on
        // a 4×4 mesh the count must stay well under pes × (rounds + 1).
        assert!(store.num_tuples() <= (cgra.num_pes() as u64) * 5);
    }

    #[test]
    fn occupied_cells_block_foreign_waves_but_not_own() {
        let (cgra, mut occ) = setup(1);
        let src = pe(&cgra, 0, 0);
        // Claim every outgoing link and register of the source PE for
        // signal 9 (II = 1: one slot).
        for l in cgra.links_from(src) {
            occ.claim(
                Resource::Link {
                    link: l.id(),
                    slot: 0,
                },
                NodeId::new(9),
                0,
            );
        }
        for r in 0..cgra.regs_per_pe() {
            occ.claim(
                Resource::Reg {
                    pe: src,
                    reg: r,
                    slot: 0,
                },
                NodeId::new(9),
                0,
            );
        }
        // A foreign wave is stuck at its seed.
        let foreign = [PropagationSeed {
            source: NodeId::new(1),
            direction: Direction::Forward,
            pe: src,
            cycle: 1,
            wave: 1,
        }];
        let store = propagate(&cgra, &occ, &foreign, 3);
        assert_eq!(store.num_tuples(), 1, "only the seed itself");

        // The owning signal shares its own cells and escapes.
        let own = [PropagationSeed {
            source: NodeId::new(9),
            direction: Direction::Forward,
            pe: src,
            cycle: 1,
            wave: 1,
        }];
        let store = propagate(&cgra, &occ, &own, 3);
        assert!(store.num_tuples() > 1);
    }

    #[test]
    fn rounds_bound_the_horizon() {
        let (cgra, occ) = setup(2);
        let seeds = [PropagationSeed {
            source: NodeId::new(0),
            direction: Direction::Forward,
            pe: pe(&cgra, 0, 0),
            cycle: 1,
            wave: 1,
        }];
        let store = propagate(&cgra, &occ, &seeds, 2);
        for p in cgra.pes() {
            for c in store.cycles(NodeId::new(0), Direction::Forward, 1, p.id()) {
                assert!(c <= 3, "cycle {c} beyond 2 rounds from seed 1");
            }
        }
    }

    #[test]
    fn waves_with_different_tags_stay_isolated() {
        // Regression: one source consumed by two edges with different
        // deadlines must produce two separate waves — merging them once let
        // candidates satisfy one edge's timing with the other edge's
        // tuples, producing structurally-valid but impossible requests.
        let (cgra, occ) = setup(2);
        let src = pe(&cgra, 1, 1);
        let seeds = [
            PropagationSeed {
                source: NodeId::new(3),
                direction: Direction::Backward,
                pe: src,
                cycle: 5,
                wave: 5,
            },
            PropagationSeed {
                source: NodeId::new(3),
                direction: Direction::Backward,
                pe: src,
                cycle: 9,
                wave: 9,
            },
        ];
        let store = propagate(&cgra, &occ, &seeds, 3);
        // The wave-5 tag never contains cycles from the wave-9 seed.
        for p in cgra.pes() {
            for c in store.cycles(NodeId::new(3), Direction::Backward, 5, p.id()) {
                assert!(c <= 5, "wave 5 leaked cycle {c}");
            }
            for c in store.cycles(NodeId::new(3), Direction::Backward, 9, p.id()) {
                assert!((6..=9).contains(&c), "wave 9 has cycle {c}");
            }
        }
    }

    #[test]
    fn backward_waves_stop_at_cycle_zero() {
        let (cgra, occ) = setup(2);
        let dst = pe(&cgra, 1, 1);
        // Five rounds back from tag 2 would reach cycle -3; the wave stops
        // at 0, and a seed already at 0 does not move at all.
        let seeds = [
            PropagationSeed {
                source: NodeId::new(4),
                direction: Direction::Backward,
                pe: dst,
                cycle: 2,
                wave: 2,
            },
            PropagationSeed {
                source: NodeId::new(5),
                direction: Direction::Backward,
                pe: dst,
                cycle: 0,
                wave: 0,
            },
        ];
        let store = propagate(&cgra, &occ, &seeds, 5);
        // On a free fabric `(p, c)` is reached iff `p` is within `2 - c`
        // hops of the destination, for every c in 0..=2.
        let mut expected = 0;
        for p in cgra.pes() {
            let d = cgra.distance(p.id(), dst);
            let cycles: Vec<u32> = store
                .cycles(NodeId::new(4), Direction::Backward, 2, p.id())
                .collect();
            let want: Vec<u32> = (0..=2).filter(|&c| d <= 2 - c).collect();
            assert_eq!(cycles, want, "{} at distance {d}", p.id());
            expected += want.len() as u64;
        }
        let stuck: Vec<u32> = store
            .cycles(NodeId::new(5), Direction::Backward, 0, dst)
            .collect();
        assert_eq!(stuck, [0]);
        assert_eq!(store.num_tuples(), expected + 1);
    }

    #[test]
    fn long_horizons_span_several_words() {
        let (cgra, occ) = setup(3);
        let src = pe(&cgra, 0, 0);
        let seeds = [PropagationSeed {
            source: NodeId::new(0),
            direction: Direction::Forward,
            pe: src,
            cycle: 1,
            wave: 1,
        }];
        // 100 rounds: cycles 1..=101, two 64-bit words per PE.
        let store = propagate(&cgra, &occ, &seeds, 100);
        let cycles: Vec<u32> = store
            .cycles(NodeId::new(0), Direction::Forward, 1, src)
            .collect();
        assert_eq!(cycles, (1..=101).collect::<Vec<_>>());
        let far = pe(&cgra, 3, 3);
        assert!(store.contains(NodeId::new(0), Direction::Forward, 1, far, 101));
        assert!(!store.contains(NodeId::new(0), Direction::Forward, 1, far, 102));
        assert!(store.contains_at_or_after(NodeId::new(0), Direction::Forward, 1, far, 100));
        assert!(store.contains_at_or_before(NodeId::new(0), Direction::Forward, 1, far, 7));
        assert!(!store.contains_at_or_before(NodeId::new(0), Direction::Forward, 1, far, 6));
    }

    #[test]
    fn range_queries() {
        let (cgra, occ) = setup(2);
        let src = pe(&cgra, 0, 0);
        let seeds = [PropagationSeed {
            source: NodeId::new(0),
            direction: Direction::Forward,
            pe: src,
            cycle: 1,
            wave: 1,
        }];
        let store = propagate(&cgra, &occ, &seeds, 3);
        let nb = pe(&cgra, 0, 1);
        assert!(store.contains_at_or_before(NodeId::new(0), Direction::Forward, 1, nb, 5));
        assert!(!store.contains_at_or_before(NodeId::new(0), Direction::Forward, 1, nb, 1));
        assert!(store.contains_at_or_after(NodeId::new(0), Direction::Forward, 1, nb, 2));
        assert!(!store.contains_at_or_after(NodeId::new(0), Direction::Forward, 1, nb, 9));
    }
}
