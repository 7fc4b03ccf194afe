//! Golden digest of Rewire's amendment layer: propagation tuples,
//! intersection candidates, Algorithm 2 outcomes and capped end-to-end
//! runs.
//!
//! The unit tests of `propagate`, `intersect` and `placement` check
//! properties (a wave reaches a Manhattan ball, candidates are sorted and
//! capped). A reimplementation that keeps those properties but moves one
//! tuple, reorders two equal-cycle candidates or prunes one combination
//! more would pass them. This file pins the outputs themselves:
//!
//! * one `prop` line per (fabric, II): the tuple count and an FNV-1a
//!   digest of every `(wave, PE, cycle)` plus a sample of range queries;
//! * one `cand` line per (fabric, II): candidate lists of random
//!   requirement sets at `max_candidates_per_node` ∈ {0, 1, 7, 256};
//! * one `place` line per (fabric, II): `ClusterPlacer::place`
//!   verifications, pruned combinations and the committed placements;
//! * one `map` line per (kernel, fabric): capped Rewire's `RewireStats`,
//!   II and used cells.
//!
//! Fabrics are the four paper presets, the 32×32 mesh and random fabrics
//! with torus, diagonal and cut links; II runs 1..=6 and the propagation
//! horizon over {0, 1, 4, 24, 48, 100} rounds (100 needs more than one
//! 64-cycle word). Occupancies are partial: foreign FU and route claims,
//! and the propagated signals themselves at other phases. Seeds cover
//! forward and backward waves, backward delivery-neighbour seeds, two tags
//! per source and seeds whose cycle differs from their tag. Intentional
//! changes are re-pinned with:
//!
//! ```text
//! REWIRE_BLESS=1 cargo test -p rewire-core --test amend_golden
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rewire_arch::random::{random_cgra_spec, RandomCgraParams};
use rewire_arch::{presets, Cgra, OpKind, PeId};
use rewire_core::{
    pcandidates, propagate, ClusterPlacer, Direction, PlacementCandidates, PropagationSeed,
    Requirement, RewireConfig, RewireMapper, TupleStore,
};
use rewire_dfg::{kernels, Dfg, NodeId};
use rewire_mappers::{MapLimits, Mapping};
use rewire_mrrg::{Mrrg, Resource, Route, RouteRequest};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/amend_digest.txt")
}

/// The random-fabric shape the router golden uses: a quarter cut into two
/// islands, torus and diagonal links at 30% each.
fn random_params() -> RandomCgraParams {
    RandomCgraParams {
        cut_prob: 0.25,
        torus_prob: 0.3,
        diagonal_prob: 0.3,
        ..RandomCgraParams::default()
    }
}

const RANDOM_FABRICS: u64 = 6;

fn fabrics() -> Vec<(String, Cgra)> {
    let mut out: Vec<(String, Cgra)> = vec![
        ("paper_4x4_r4".into(), presets::paper_4x4_r4()),
        ("paper_4x4_r2".into(), presets::paper_4x4_r2()),
        ("paper_4x4_r1".into(), presets::paper_4x4_r1()),
        ("paper_8x8_r4".into(), presets::paper_8x8_r4()),
        ("mesh32".into(), presets::mesh32()),
    ];
    for seed in 0..RANDOM_FABRICS {
        let spec = random_cgra_spec(&random_params(), seed);
        let cgra = spec.build().expect("random specs build");
        out.push((
            format!("random{seed}:{}", spec.to_string().replace(' ', ",")),
            cgra,
        ));
    }
    out
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Propagation horizons: 100 rounds spans more than one 64-cycle word.
const ROUNDS: [u32; 6] = [0, 1, 4, 24, 48, 100];
/// Candidate caps: none, one, a few, and the default.
const CAPS: [usize; 4] = [0, 1, 7, 256];
const SOURCES: u32 = 4;
const MEMBERS: u32 = 4;
const FOREIGN: u32 = 4;
const REQUIREMENT_SETS: usize = 12;

/// One seeded amendment scenario on one fabric at one II.
struct Scenario {
    dfg: Dfg,
    mapping: Mapping,
    seeds: Vec<PropagationSeed>,
    /// The cluster members, in topological order.
    members: Vec<NodeId>,
}

fn source(i: u32) -> NodeId {
    NodeId::new(i)
}

fn member(i: u32) -> NodeId {
    NodeId::new(SOURCES + i)
}

fn is_member(n: NodeId) -> bool {
    (SOURCES..SOURCES + MEMBERS).contains(&(n.index() as u32))
}

fn foreign(i: u32) -> NodeId {
    NodeId::new(SOURCES + MEMBERS + i)
}

/// A PE reached from `from` by a random walk of `hops` link steps.
fn walk(rng: &mut StdRng, cgra: &Cgra, from: PeId, hops: u32) -> PeId {
    let mut pe = from;
    for _ in 0..hops {
        let outs = cgra.out_neighbours(pe);
        if outs.is_empty() {
            break;
        }
        pe = outs[rng.random_range(0..outs.len())].0;
    }
    pe
}

/// A random link or register cell near `near`.
fn routing_cell(rng: &mut StdRng, cgra: &Cgra, near: PeId, ii: u32) -> Resource {
    let hops = rng.random_range(0..=3u32);
    let pe = walk(rng, cgra, near, hops);
    let slot = rng.random_range(0..ii);
    let outs = cgra.out_neighbours(pe);
    if outs.is_empty() || rng.random_range(0..3u32) == 0 {
        Resource::Reg {
            pe,
            reg: rng.random_range(0..cgra.regs_per_pe()),
            slot,
        }
    } else {
        Resource::Link {
            link: outs[rng.random_range(0..outs.len())].1,
            slot,
        }
    }
}

/// The cluster DFG: sources s0, s1 feed members m0..m3, which feed
/// sources s2, s3; m2 is a load when the fabric has memory PEs. Each
/// source and foreign node also drives a foreign node, so the scenario can
/// claim routing cells for them.
fn cluster_dfg(cgra: &Cgra) -> Dfg {
    let mut dfg = Dfg::new("amend-golden");
    for i in 0..SOURCES {
        dfg.add_node(format!("s{i}"), OpKind::Add);
    }
    let m2_op = if cgra.memory_pes().next().is_some() {
        OpKind::Load
    } else {
        OpKind::Mul
    };
    for (i, op) in [OpKind::Add, OpKind::Add, m2_op, OpKind::Add]
        .into_iter()
        .enumerate()
    {
        dfg.add_node(format!("m{i}"), op);
    }
    for i in 0..FOREIGN {
        dfg.add_node(format!("f{i}"), OpKind::Add);
    }
    for (src, dst, distance) in [
        (source(0), member(0), 0),
        (source(1), member(0), 0),
        (member(0), member(1), 0),
        (member(1), source(2), 0),
        (member(1), member(2), 0),
        (member(2), source(3), 1),
        (source(1), member(3), 0),
        (member(3), member(2), 0),
    ] {
        dfg.add_edge(src, dst, distance).unwrap();
    }
    for i in 0..SOURCES {
        dfg.add_edge(source(i), foreign(i), 0).unwrap();
    }
    for i in 0..FOREIGN {
        dfg.add_edge(foreign(i), foreign((i + 1) % FOREIGN), 1)
            .unwrap();
    }
    dfg
}

fn scenario(rng: &mut StdRng, cgra: &Cgra, ii: u32) -> Scenario {
    let dfg = cluster_dfg(cgra);
    let mrrg = Mrrg::new(cgra, ii);
    let mut mapping = Mapping::new(&dfg, &mrrg);
    let n = cgra.num_pes() as u32;
    let anchor = PeId::new(rng.random_range(0..n));
    // Parents early, children late, all within a few hops of one anchor
    // so the waves meet.
    for i in 0..SOURCES {
        let hops = rng.random_range(0..=4u32);
        let pe = walk(rng, cgra, anchor, hops);
        let t = if i < 2 {
            rng.random_range(0..=ii + 1)
        } else {
            rng.random_range(2 * ii + 4..=3 * ii + 8)
        };
        mapping.place(source(i), pe, t);
    }
    for i in 0..FOREIGN {
        let hops = rng.random_range(0..=3u32);
        let pe = walk(rng, cgra, anchor, hops);
        mapping.place(foreign(i), pe, rng.random_range(0..4 * ii + 8));
    }
    // Routing-cell claims: foreign signals, and the sources themselves at
    // arbitrary phases (a cell index k is claimed at phase k).
    let edges: Vec<_> = dfg
        .edges()
        .filter(|e| !is_member(e.src()) && !is_member(e.dst()))
        .map(|e| (e.id(), e.src()))
        .collect();
    for (edge, signal) in edges {
        let len = rng.random_range(1..=6usize);
        let near = mapping.placement(signal).expect("placed").0;
        let cells: Vec<Resource> = (0..len)
            .map(|_| routing_cell(rng, cgra, near, ii))
            .collect();
        let request = RouteRequest {
            signal,
            src_pe: near,
            depart_cycle: 0,
            dst_pe: near,
            arrive_cycle: len as u32,
        };
        mapping.set_route(edge, Route::from_parts(request, cells, len as f64));
    }

    let mut seeds = Vec::new();
    for i in 0..SOURCES {
        let s = source(i);
        let (pe, t) = mapping.placement(s).expect("placed");
        // Two forward tags, the second also seeded one cycle off its tag.
        for (k, wave) in [t + 1, t + 1 + ii].into_iter().enumerate() {
            seeds.push(PropagationSeed {
                source: s,
                direction: Direction::Forward,
                pe,
                cycle: wave,
                wave,
            });
            if k == 1 {
                seeds.push(PropagationSeed {
                    source: s,
                    direction: Direction::Forward,
                    pe: walk(rng, cgra, pe, 1),
                    cycle: wave + rng.random_range(1..=2u32),
                    wave,
                });
            }
        }
        // Two backward tags (distance 0 and 1), each with its delivery
        // neighbours where the delivering link cell is free.
        for distance in 0..2u32 {
            let wave = t + distance * ii;
            seeds.push(PropagationSeed {
                source: s,
                direction: Direction::Backward,
                pe,
                cycle: wave,
                wave,
            });
            let slot = mapping.mrrg().slot_of(wave);
            for link in cgra.links_to(pe) {
                let cell = Resource::Link {
                    link: link.id(),
                    slot,
                };
                if mapping.occupancy().is_free(cell) {
                    seeds.push(PropagationSeed {
                        source: s,
                        direction: Direction::Backward,
                        pe: link.src(),
                        cycle: wave,
                        wave,
                    });
                }
            }
        }
        // A backward seed below its tag (and possibly at cycle 0).
        let wave = t + 2 * ii;
        seeds.push(PropagationSeed {
            source: s,
            direction: Direction::Backward,
            pe,
            cycle: wave.saturating_sub(rng.random_range(1..=ii + 1)),
            wave,
        });
    }
    Scenario {
        dfg,
        mapping,
        seeds,
        members: (0..MEMBERS).map(member).collect(),
    }
}

/// Every distinct wave tag, in order of first appearance.
fn tags(seeds: &[PropagationSeed]) -> Vec<(NodeId, Direction, u32)> {
    let mut out = Vec::new();
    for s in seeds {
        let tag = (s.source, s.direction, s.wave);
        if !out.contains(&tag) {
            out.push(tag);
        }
    }
    out
}

fn dir_code(direction: Direction) -> u64 {
    match direction {
        Direction::Forward => 0,
        Direction::Backward => 1,
    }
}

fn prop_line(
    out: &mut String,
    (name, ii, rounds): (&str, u32, u32),
    cgra: &Cgra,
    seeds: &[PropagationSeed],
    store: &TupleStore,
    rng: &mut StdRng,
) {
    let mut digest = Fnv::new();
    let mut queries = 0u64;
    for (source, direction, wave) in tags(seeds) {
        digest.mix(source.index() as u64);
        digest.mix(dir_code(direction));
        digest.mix(u64::from(wave));
        for pe in cgra.pes().map(|p| p.id()) {
            let cycles: Vec<u32> = store.cycles(source, direction, wave, pe).collect();
            if cycles.is_empty() {
                continue;
            }
            digest.mix(pe.index() as u64);
            digest.mix(cycles.len() as u64);
            for c in cycles {
                digest.mix(u64::from(c));
            }
        }
        // Point and range queries around the tag, hits and misses alike.
        for _ in 0..8 {
            let pe = PeId::new(rng.random_range(0..cgra.num_pes() as u32));
            let c = wave.saturating_sub(rounds + 2) + rng.random_range(0..=2 * rounds + 4);
            let bits = [
                store.contains(source, direction, wave, pe, c),
                store.contains_at_or_before(source, direction, wave, pe, c),
                store.contains_at_or_after(source, direction, wave, pe, c),
            ];
            for b in bits {
                digest.mix(u64::from(b));
                queries += u64::from(b);
            }
        }
    }
    writeln!(
        out,
        "prop {name} ii={ii} rounds={rounds} seeds={} tags={} tuples={} hits={queries} digest={:016x}",
        seeds.len(),
        tags(seeds).len(),
        store.num_tuples(),
        digest.0
    )
    .unwrap();
}

/// A random requirement on one of the scenario's waves (or, rarely, on a
/// tag nobody propagated).
fn random_requirement(rng: &mut StdRng, mapping: &Mapping) -> Requirement {
    let ii = mapping.ii();
    let s = source(rng.random_range(0..SOURCES));
    let (_, t) = mapping.placement(s).expect("placed");
    let stray = rng.random_range(0..10u32) == 0;
    let forward = rng.random_range(0..2u32) == 0;
    let distance = rng.random_range(0..2u32);
    let wave = match (stray, forward) {
        (true, _) => t + 3 * ii + 7,
        (false, true) => t + 1 + rng.random_range(0..2u32) * ii,
        (false, false) => t + distance * ii,
    };
    let direction = if forward {
        Direction::Forward
    } else {
        Direction::Backward
    };
    if rng.random_range(0..3u32) == 0 {
        Requirement::Transitive {
            source: s,
            direction,
            separation: rng.random_range(2..=4u32),
            distance_sum: distance,
            wave,
        }
    } else {
        Requirement::Direct {
            source: s,
            direction,
            distance,
            wave,
        }
    }
}

fn horizon(mapping: &Mapping, dfg: &Dfg) -> u32 {
    let latest = dfg
        .node_ids()
        .filter_map(|n| mapping.placement(n).map(|(_, t)| t))
        .max()
        .unwrap_or(0);
    latest + 2 * mapping.ii() + 4
}

fn mix_candidates(digest: &mut Fnv, cands: &PlacementCandidates) {
    digest.mix(cands.node.index() as u64);
    digest.mix(cands.options.len() as u64);
    for &(pe, c) in &cands.options {
        digest.mix(pe.index() as u64);
        digest.mix(u64::from(c));
    }
}

fn cand_line(
    out: &mut String,
    name: &str,
    ii: u32,
    cgra: &Cgra,
    sc: &Scenario,
    store: &TupleStore,
    rng: &mut StdRng,
) {
    let horizon = horizon(&sc.mapping, &sc.dfg);
    let mut digest = Fnv::new();
    let mut total = [0usize; CAPS.len()];
    for set in 0..REQUIREMENT_SETS {
        // Set 0 has no requirements (the full-window fallback).
        let n = if set == 0 {
            0
        } else {
            rng.random_range(1..=3usize)
        };
        let reqs: Vec<Requirement> = (0..n)
            .map(|_| random_requirement(rng, &sc.mapping))
            .collect();
        let v = sc.members[set % sc.members.len()];
        for (k, &cap) in CAPS.iter().enumerate() {
            let config = RewireConfig {
                max_candidates_per_node: cap,
                ..RewireConfig::default()
            };
            let cands = pcandidates(
                &sc.dfg,
                cgra,
                &sc.mapping,
                store,
                v,
                &reqs,
                &config,
                horizon,
            );
            assert!(cands.options.len() <= cap);
            total[k] += cands.options.len();
            mix_candidates(&mut digest, &cands);
        }
    }
    writeln!(
        out,
        "cand {name} ii={ii} horizon={horizon} options={total:?} digest={:016x}",
        digest.0
    )
    .unwrap();
}

/// The direct requirements of a member: its placed parents and children.
fn direct_requirements(sc: &Scenario, v: NodeId) -> Vec<Requirement> {
    let ii = sc.mapping.ii();
    let mut out = Vec::new();
    for e in sc.dfg.in_edges(v) {
        if let Some((_, t)) = sc.mapping.placement(e.src()) {
            out.push(Requirement::Direct {
                source: e.src(),
                direction: Direction::Forward,
                distance: e.distance(),
                wave: t + 1,
            });
        }
    }
    for e in sc.dfg.out_edges(v) {
        if let Some((_, t)) = sc.mapping.placement(e.dst()) {
            out.push(Requirement::Direct {
                source: e.dst(),
                direction: Direction::Backward,
                distance: e.distance(),
                wave: t + e.distance() * ii,
            });
        }
    }
    out
}

fn place_line(
    out: &mut String,
    name: &str,
    ii: u32,
    cgra: &Cgra,
    sc: &Scenario,
    store: &TupleStore,
) {
    let config = RewireConfig {
        max_verifications: 24,
        max_search_steps: 4_000,
        max_candidates_per_node: 48,
        ..RewireConfig::default()
    };
    let horizon = horizon(&sc.mapping, &sc.dfg);
    let candidates: Vec<PlacementCandidates> = sc
        .members
        .iter()
        .map(|&v| {
            let reqs = direct_requirements(sc, v);
            pcandidates(
                &sc.dfg,
                cgra,
                &sc.mapping,
                store,
                v,
                &reqs,
                &config,
                horizon,
            )
        })
        .collect();
    let sizes: Vec<usize> = candidates.iter().map(|c| c.options.len()).collect();
    let mut mapping = sc.mapping.clone();
    let mut stats = rewire_core::RewireStats::default();
    let deadline = Instant::now() + Duration::from_secs(600);
    let placer = ClusterPlacer::new(&sc.dfg, cgra, &config);
    let ok = placer.place(&mut mapping, &candidates, deadline, &mut stats);
    let mut digest = Fnv::new();
    for &v in &sc.members {
        match mapping.placement(v) {
            Some((pe, t)) => {
                digest.mix(pe.index() as u64);
                digest.mix(u64::from(t));
            }
            None => digest.mix(u64::MAX),
        }
    }
    writeln!(
        out,
        "place {name} ii={ii} candidates={sizes:?} ok={ok} verifications={} successes={} pruned={} cells={} digest={:016x}",
        stats.verifications,
        stats.verification_successes,
        stats.combinations_pruned,
        mapping.occupancy().used_cells(),
        digest.0
    )
    .unwrap();
}

/// Capped Rewire: one restart per II and small cluster and enumeration
/// caps, so the caps (never the generous per-II clock) end every search.
fn capped_rewire() -> RewireMapper {
    RewireMapper::with_config(RewireConfig {
        max_restarts_per_ii: 1,
        max_cluster_attempts: 40,
        max_verifications: 60,
        max_search_steps: 20_000,
        ..RewireConfig::default()
    })
}

fn map_line(out: &mut String, kernel: &str, fabric: &str, cgra: &Cgra, ii_slack: u32) {
    let dfg = kernels::by_name(kernel).expect("known kernel");
    let mii = dfg.mii(cgra).expect("kernel fits the fabric");
    let limits = MapLimits::fast()
        .with_seed(0xFACADE)
        .with_ii_time_budget(Duration::from_secs(600))
        .with_max_ii(mii + ii_slack);
    let (outcome, s) = capped_rewire().map_with_stats(&dfg, cgra, &limits);
    let cells = outcome
        .mapping
        .as_ref()
        .map_or(0, |m| m.occupancy().used_cells());
    writeln!(
        out,
        "map {kernel}@{fabric} mii={mii} ii={:?} iis={} cells={cells} clusters={} growths={} tuples={} verifications={} successes={} pruned={}",
        outcome.stats.achieved_ii,
        outcome.stats.iis_explored,
        s.clusters_attempted,
        s.cluster_growths,
        s.tuples_generated,
        s.verifications,
        s.verification_successes,
        s.combinations_pruned,
    )
    .unwrap();
}

const KERNELS_4X4: [&str; 12] = [
    "gramschmidt",
    "ludcmp",
    "lu",
    "gemver",
    "cholesky",
    "gesummv",
    "atax",
    "bicg",
    "mvt",
    "fir",
    "jacobi2d",
    "viterbi",
];

fn render_current() -> String {
    let mut out = String::new();
    out.push_str(
        "# Amendment golden digest: propagation, intersection, Algorithm 2, capped runs.\n",
    );
    out.push_str(
        "# prop <fabric> ii rounds seeds tags tuples=<num_tuples> hits=<true range queries> digest=<FNV-1a of (wave, PE, cycle)>\n",
    );
    out.push_str("# cand <fabric> ii horizon options=<total per cap 0/1/7/256> digest=<FNV-1a of candidate lists>\n");
    out.push_str("# place <fabric> ii candidates ok verifications successes pruned cells digest=<placements>\n");
    out.push_str("# map <kernel>@<fabric> mii ii iis cells + RewireStats\n");
    out.push_str(
        "# Regenerate with: REWIRE_BLESS=1 cargo test -p rewire-core --test amend_golden\n",
    );
    for (f, (name, cgra)) in fabrics().iter().enumerate() {
        for ii in 1..=6u32 {
            let mut rng = StdRng::seed_from_u64(((f as u64) << 8) | u64::from(ii));
            let rounds = ROUNDS[(f + ii as usize) % ROUNDS.len()];
            let sc = scenario(&mut rng, cgra, ii);
            let store = propagate(cgra, sc.mapping.occupancy(), &sc.seeds, rounds);
            let key = (name.as_str(), ii, rounds);
            prop_line(&mut out, key, cgra, &sc.seeds, &store, &mut rng);
            cand_line(&mut out, name, ii, cgra, &sc, &store, &mut rng);
            place_line(&mut out, name, ii, cgra, &sc, &store);
        }
    }
    let r2 = presets::paper_4x4_r2();
    for kernel in KERNELS_4X4 {
        map_line(&mut out, kernel, "4x4r2", &r2, 2);
    }
    let mesh = presets::mesh32();
    for kernel in ["bicg", "viterbi"] {
        map_line(&mut out, kernel, "mesh32", &mesh, 2);
    }
    out
}

#[test]
fn random_fabrics_cover_torus_diagonal_and_cut_links() {
    let specs: Vec<_> = (0..RANDOM_FABRICS)
        .map(|seed| random_cgra_spec(&random_params(), seed))
        .collect();
    assert!(specs.iter().any(|s| s.torus), "a torus fabric");
    assert!(specs.iter().any(|s| s.diagonals), "a diagonal fabric");
    assert!(specs.iter().any(|s| s.cut_row.is_some()), "a cut fabric");
}

#[test]
fn amendment_matches_the_golden_digest() {
    let current = render_current();
    let path = digest_path();
    if std::env::var_os("REWIRE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &current).unwrap();
        eprintln!(
            "blessed {} ({} lines)",
            path.display(),
            current.lines().count()
        );
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden digest {} ({e}); run REWIRE_BLESS=1 cargo test -p rewire-core --test amend_golden",
            path.display()
        )
    });
    if golden == current {
        return;
    }
    let mut drifted = String::new();
    for (g, c) in golden.lines().zip(current.lines()) {
        if g != c {
            writeln!(drifted, "  -{g}\n  +{c}").unwrap();
        }
    }
    let (gn, cn) = (golden.lines().count(), current.lines().count());
    if gn != cn {
        writeln!(drifted, "  (line count {gn} -> {cn})").unwrap();
    }
    panic!(
        "amendment output drifted from {}:\n{drifted}\
         if intentional, re-bless with REWIRE_BLESS=1 cargo test -p rewire-core --test amend_golden",
        path.display()
    );
}
