//! The CGRA fabric: PEs, links and lookup tables.

use crate::{Coord, Link, LinkId, OpKind, Pe, PeId};
use std::fmt;

/// An immutable CGRA architecture instance.
///
/// Construct one with [`CgraBuilder`](crate::CgraBuilder) or a
/// [`presets`](crate::presets) function. All queries are O(1) or iterator
/// adapters over precomputed tables, because the mappers call them in hot
/// loops.
///
/// # Examples
///
/// ```
/// use rewire_arch::{presets, OpKind};
/// let cgra = presets::paper_4x4_r4();
/// let mem_pes: Vec<_> = cgra.pes_supporting(OpKind::Load).collect();
/// assert_eq!(mem_pes.len(), 4);
/// for pe in cgra.pes() {
///     assert!(cgra.links_from(pe.id()).count() <= 4);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Cgra {
    rows: u16,
    cols: u16,
    regs_per_pe: u8,
    memory_banks: u16,
    pes: Vec<Pe>,
    links: Vec<Link>,
    /// Out-neighbours of every PE as one flat `(destination PE, link)`
    /// list, grouped by source PE in link-id order.
    out_edges: Vec<(PeId, LinkId)>,
    /// PE `p`'s out-neighbours are `out_edges[out_start[p]..out_start[p + 1]]`.
    out_start: Vec<u32>,
    /// Incoming link ids per PE.
    in_links: Vec<Vec<LinkId>>,
    /// Whether any diagonal links exist (changes the hop-distance metric).
    has_diagonals: bool,
    /// Hash of the link topology (see [`Cgra::topology_fingerprint`]).
    topology_fingerprint: u64,
}

impl Cgra {
    pub(crate) fn from_parts(
        rows: u16,
        cols: u16,
        regs_per_pe: u8,
        memory_banks: u16,
        pes: Vec<Pe>,
        links: Vec<Link>,
    ) -> Self {
        let mut in_links = vec![Vec::new(); pes.len()];
        let mut out_start = vec![0u32; pes.len() + 1];
        for link in &links {
            in_links[link.dst().index()].push(link.id());
            out_start[link.src().index() + 1] += 1;
        }
        for p in 0..pes.len() {
            out_start[p + 1] += out_start[p];
        }
        // Counting sort by source PE; links are visited in id order, so each
        // PE's range stays in link-id order.
        let mut fill = out_start.clone();
        let mut out_edges = vec![(PeId::new(0), LinkId::new(0)); links.len()];
        for link in &links {
            let at = &mut fill[link.src().index()];
            out_edges[*at as usize] = (link.dst(), link.id());
            *at += 1;
        }
        let has_diagonals = links.iter().any(|l| {
            matches!(
                l.direction(),
                crate::Direction::NorthEast
                    | crate::Direction::NorthWest
                    | crate::Direction::SouthEast
                    | crate::Direction::SouthWest
            )
        });
        // FNV-1a over the directed link list: cheap, stable across runs,
        // and sensitive to any topology difference that matters to routing.
        let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            fp ^= v;
            fp = fp.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(pes.len() as u64);
        for link in &links {
            mix(link.src().index() as u64);
            mix(link.dst().index() as u64);
        }
        Self {
            rows,
            cols,
            regs_per_pe,
            memory_banks,
            pes,
            links,
            out_edges,
            out_start,
            in_links,
            has_diagonals,
            topology_fingerprint: fp,
        }
    }

    /// Number of rows in the mesh.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Number of columns in the mesh.
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// Register cells per PE.
    pub fn regs_per_pe(&self) -> u8 {
        self.regs_per_pe
    }

    /// Number of on-chip memory banks.
    pub fn memory_banks(&self) -> u16 {
        self.memory_banks
    }

    /// Total number of PEs.
    pub fn num_pes(&self) -> usize {
        self.pes.len()
    }

    /// Total number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Looks up a PE by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this architecture.
    pub fn pe(&self, id: PeId) -> &Pe {
        &self.pes[id.index()]
    }

    /// Looks up a link by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this architecture.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Looks up the PE at a grid coordinate, if it exists.
    pub fn pe_at(&self, coord: Coord) -> Option<&Pe> {
        if coord.row < self.rows && coord.col < self.cols {
            let idx = coord.row as usize * self.cols as usize + coord.col as usize;
            Some(&self.pes[idx])
        } else {
            None
        }
    }

    /// Iterates over all PEs in id order.
    pub fn pes(&self) -> impl ExactSizeIterator<Item = &Pe> + '_ {
        self.pes.iter()
    }

    /// Iterates over all links in id order.
    pub fn links(&self) -> impl ExactSizeIterator<Item = &Link> + '_ {
        self.links.iter()
    }

    /// Iterates over the outgoing links of `pe`.
    pub fn links_from(&self, pe: PeId) -> impl ExactSizeIterator<Item = &Link> + '_ {
        self.out_neighbours(pe).iter().map(|&(_, l)| self.link(l))
    }

    /// The out-neighbours of `pe` as `(destination PE, link)` pairs, in the
    /// order of [`links_from`](Cgra::links_from): one contiguous slice, so
    /// the router's inner loop reads both ends of a hop without touching
    /// the link table.
    #[inline]
    pub fn out_neighbours(&self, pe: PeId) -> &[(PeId, LinkId)] {
        let p = pe.index();
        &self.out_edges[self.out_start[p] as usize..self.out_start[p + 1] as usize]
    }

    /// Iterates over the incoming links of `pe`.
    pub fn links_to(&self, pe: PeId) -> impl ExactSizeIterator<Item = &Link> + '_ {
        self.in_links[pe.index()].iter().map(|&l| self.link(l))
    }

    /// Iterates over the memory-capable PEs.
    pub fn memory_pes(&self) -> impl Iterator<Item = &Pe> + '_ {
        self.pes.iter().filter(|p| p.memory_capable())
    }

    /// Iterates over the PEs that can execute `op`.
    pub fn pes_supporting(&self, op: OpKind) -> impl Iterator<Item = &Pe> + '_ {
        self.pes.iter().filter(move |p| p.supports(op))
    }

    /// Hop-distance lower bound between two PEs: Manhattan on orthogonal
    /// meshes, Chebyshev when diagonal links exist.
    pub fn distance(&self, a: PeId, b: PeId) -> u32 {
        let (ca, cb) = (self.pe(a).coord(), self.pe(b).coord());
        if self.has_diagonals {
            ca.chebyshev(cb)
        } else {
            ca.manhattan(cb)
        }
    }

    /// Whether the fabric has diagonal links.
    pub fn has_diagonals(&self) -> bool {
        self.has_diagonals
    }

    /// A hash of the link topology (PE count plus every directed link's
    /// endpoints). Two fabrics with equal fingerprints route identically,
    /// so per-topology caches (e.g. the router's hop-distance table) use
    /// this as their validity key instead of holding a fabric reference.
    pub fn topology_fingerprint(&self) -> u64 {
        self.topology_fingerprint
    }

    /// A short human-readable architecture label, e.g. `4x4/r4`.
    pub fn label(&self) -> String {
        format!("{}x{}/r{}", self.rows, self.cols, self.regs_per_pe)
    }
}

impl fmt::Display for Cgra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CGRA {}x{} ({} regs/PE, {} banks, {} mem PEs)",
            self.rows,
            self.cols,
            self.regs_per_pe,
            self.memory_banks,
            self.memory_pes().count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CgraBuilder;

    fn cgra() -> Cgra {
        CgraBuilder::new(3, 4)
            .memory_banks(2)
            .memory_columns([0])
            .build()
            .unwrap()
    }

    #[test]
    fn pe_at_round_trips_coords() {
        let c = cgra();
        for pe in c.pes() {
            assert_eq!(c.pe_at(pe.coord()).unwrap().id(), pe.id());
        }
        assert!(c.pe_at(Coord::new(3, 0)).is_none());
        assert!(c.pe_at(Coord::new(0, 4)).is_none());
    }

    #[test]
    fn in_and_out_links_are_symmetric_on_mesh() {
        let c = cgra();
        for pe in c.pes() {
            assert_eq!(
                c.links_from(pe.id()).count(),
                c.links_to(pe.id()).count(),
                "mesh links are bidirectional pairs"
            );
        }
    }

    #[test]
    fn out_neighbours_list_each_link_under_its_source_in_id_order() {
        let fabrics = [
            cgra(),
            CgraBuilder::new(4, 5)
                .torus(true)
                .diagonals(true)
                .build()
                .unwrap(),
            CgraBuilder::new(5, 3).cut_row(2).build().unwrap(),
        ];
        for c in &fabrics {
            for pe in c.pes() {
                let want: Vec<(PeId, LinkId)> = c
                    .links()
                    .filter(|l| l.src() == pe.id())
                    .map(|l| (l.dst(), l.id()))
                    .collect();
                assert_eq!(c.out_neighbours(pe.id()), want.as_slice(), "{c}");
            }
        }
    }

    #[test]
    fn corner_pes_have_two_neighbours() {
        let c = cgra();
        let corner = c.pe_at(Coord::new(0, 0)).unwrap().id();
        assert_eq!(c.links_from(corner).count(), 2);
    }

    #[test]
    fn capacity_counts_memory_ops() {
        let c = cgra();
        assert_eq!(c.pes_supporting(OpKind::Load).count(), 3); // one column of 3 rows
        assert_eq!(c.pes_supporting(OpKind::Add).count(), 12);
    }

    #[test]
    fn distance_is_symmetric() {
        let c = cgra();
        let a = c.pe_at(Coord::new(0, 0)).unwrap().id();
        let b = c.pe_at(Coord::new(2, 3)).unwrap().id();
        assert_eq!(c.distance(a, b), 5);
        assert_eq!(c.distance(b, a), 5);
    }

    #[test]
    fn diagonal_distance_metric() {
        let d = crate::CgraBuilder::new(4, 4)
            .diagonals(true)
            .build()
            .unwrap();
        let a = d.pe_at(Coord::new(0, 0)).unwrap().id();
        let b = d.pe_at(Coord::new(2, 3)).unwrap().id();
        assert!(d.has_diagonals());
        assert_eq!(d.distance(a, b), 3, "Chebyshev on diagonal fabrics");
    }

    #[test]
    fn topology_fingerprint_tracks_links() {
        let a = cgra();
        let b = cgra();
        assert_eq!(a.topology_fingerprint(), b.topology_fingerprint());
        // Same grid, different interconnect ⇒ different fingerprint.
        let torus = CgraBuilder::new(3, 4)
            .memory_banks(2)
            .memory_columns([0])
            .torus(true)
            .build()
            .unwrap();
        assert_ne!(a.topology_fingerprint(), torus.topology_fingerprint());
        // Attributes that do not change routing leave it untouched.
        let more_regs = CgraBuilder::new(3, 4)
            .regs_per_pe(1)
            .memory_banks(2)
            .memory_columns([0])
            .build()
            .unwrap();
        assert_eq!(a.topology_fingerprint(), more_regs.topology_fingerprint());
    }

    #[test]
    fn label_and_display() {
        let c = cgra();
        assert_eq!(c.label(), "3x4/r4");
        let s = format!("{c}");
        assert!(s.contains("3x4"));
        assert!(s.contains("2 banks"));
    }
}
