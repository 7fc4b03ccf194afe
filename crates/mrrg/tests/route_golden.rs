//! Golden digest of the router's output: every route, every cost and the
//! router's work counters over a fixed, seeded request stream.
//!
//! `route_pruning.rs` checks the pruned sweep against the dense one, but
//! both sweeps share one relaxation, so a change to that relaxation (a
//! reordered move, a re-associated cost sum, a different tie-break) moves
//! both sides together and passes there. This file pins the relaxation
//! itself: one line per (fabric, II, cost model) with the `Ok` / `NoPath`
//! counts, the `router.expansions` and `router.pruned_states` deltas, and
//! an FNV-1a digest of every route's cells and `cost().to_bits()`.
//!
//! The stream covers zero-length requests (same-PE forwarding and the
//! delivery hop), walks with 0..=6 cycles of slack and unreachable
//! destinations, on the four paper presets, the 32×32 mesh and random
//! fabrics with torus, diagonal and cut links. Occupancies are partial:
//! foreign claims, the routed signal at another phase, and overused
//! cells. Intentional changes are re-pinned with:
//!
//! ```text
//! REWIRE_BLESS=1 cargo test -p rewire-mrrg --test route_golden
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rewire_arch::random::{random_cgra_spec, RandomCgraParams};
use rewire_arch::{presets, Cgra, PeId};
use rewire_dfg::NodeId;
use rewire_mrrg::{
    CostModel, Mrrg, NegotiatedCost, Occupancy, Resource, Route, RouteError, RouteRequest, Router,
    UnitCost,
};
use rewire_obs as obs;
use std::fmt::Write as _;
use std::path::PathBuf;

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/route_digest.txt")
}

/// The same shape of random fabric `route_pruning.rs` sweeps: a quarter
/// cut into two islands, torus and diagonal links at 30% each.
fn random_params() -> RandomCgraParams {
    RandomCgraParams {
        cut_prob: 0.25,
        torus_prob: 0.3,
        diagonal_prob: 0.3,
        ..RandomCgraParams::default()
    }
}

fn fabrics() -> Vec<(String, Cgra)> {
    let mut out: Vec<(String, Cgra)> = vec![
        ("paper_4x4_r4".into(), presets::paper_4x4_r4()),
        ("paper_4x4_r2".into(), presets::paper_4x4_r2()),
        ("paper_4x4_r1".into(), presets::paper_4x4_r1()),
        ("paper_8x8_r4".into(), presets::paper_8x8_r4()),
        ("mesh32".into(), presets::mesh32()),
    ];
    for seed in 0..8 {
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

    fn route(&mut self, outcome: &Result<Route, RouteError>) {
        match outcome {
            Ok(route) => {
                self.mix(route.resources().len() as u64);
                for &cell in route.resources() {
                    match cell {
                        Resource::Fu { pe, slot } => {
                            self.mix(0);
                            self.mix(pe.index() as u64);
                            self.mix(u64::from(slot));
                        }
                        Resource::Link { link, slot } => {
                            self.mix(1);
                            self.mix(link.index() as u64);
                            self.mix(u64::from(slot));
                        }
                        Resource::Reg { pe, reg, slot } => {
                            self.mix(2);
                            self.mix(pe.index() as u64);
                            self.mix(u64::from(reg));
                            self.mix(u64::from(slot));
                        }
                    }
                }
                self.mix(route.cost().to_bits());
            }
            Err(_) => self.mix(u64::MAX),
        }
    }
}

/// The signals requests route; everything else in the occupancy is
/// foreign.
const ROUTED_SIGNALS: u32 = 4;

/// A PE reached from `from` by a random walk of `hops` link steps (fewer
/// if the walk reaches a PE without out-links).
fn walk(rng: &mut StdRng, cgra: &Cgra, from: PeId, hops: u32) -> PeId {
    let mut pe = from;
    for _ in 0..hops {
        let outs: Vec<PeId> = cgra.links_from(pe).map(|l| l.dst()).collect();
        if outs.is_empty() {
            break;
        }
        pe = outs[rng.random_range(0..outs.len())];
    }
    pe
}

/// One seeded request of a mixed stream: same-PE and delivery-hop
/// zero-length requests, walks of 0..=5 hops with 0..=6 cycles of slack
/// (one cycle short of the walk, too, so the delivery hop competes), and
/// uniformly random destinations that are often out of reach.
fn request(rng: &mut StdRng, cgra: &Cgra, src: PeId, signal: NodeId, depart: u32) -> RouteRequest {
    let n = cgra.num_pes() as u32;
    let (dst, steps) = match rng.random_range(0..10u32) {
        0 => (src, 0),
        1 => (walk(rng, cgra, src, 1), 0),
        2 => (
            PeId::new(rng.random_range(0..n)),
            rng.random_range(0..=6u32),
        ),
        _ => {
            let hops = rng.random_range(0..=5u32);
            let dst = walk(rng, cgra, src, hops);
            (dst, (hops + rng.random_range(0..=6u32)).saturating_sub(1))
        }
    };
    RouteRequest {
        signal,
        src_pe: src,
        depart_cycle: depart,
        dst_pe: dst,
        arrive_cycle: depart + steps,
    }
}

/// A partial occupancy near `sources`: foreign claims, routed signals at
/// arbitrary phases (so only the exact phase may share), and overused
/// cells holding two foreign signals.
fn seeded_occupancy(rng: &mut StdRng, cgra: &Cgra, mrrg: &Mrrg, sources: &[PeId]) -> Occupancy {
    let mut occ = Occupancy::new(mrrg);
    let ii = mrrg.ii();
    let claims = 6 * sources.len();
    for _ in 0..claims {
        let near = sources[rng.random_range(0..sources.len())];
        let hops = rng.random_range(0..=3u32);
        let pe = walk(rng, cgra, near, hops);
        let slot = rng.random_range(0..ii);
        let cell = match rng.random_range(0..4u32) {
            0 => Resource::Fu { pe, slot },
            1 => Resource::Reg {
                pe,
                reg: rng.random_range(0..cgra.regs_per_pe()),
                slot,
            },
            _ => match cgra.links_from(pe).count() {
                0 => Resource::Fu { pe, slot },
                outs => Resource::Link {
                    link: cgra
                        .links_from(pe)
                        .nth(rng.random_range(0..outs))
                        .unwrap()
                        .id(),
                    slot,
                },
            },
        };
        let phase = rng.random_range(0..8u32);
        match rng.random_range(0..4u32) {
            0 => occ.claim(
                cell,
                NodeId::new(rng.random_range(0..ROUTED_SIGNALS)),
                phase,
            ),
            1 => {
                occ.claim(cell, NodeId::new(100 + rng.random_range(0..4u32)), phase);
                occ.claim(cell, NodeId::new(104 + rng.random_range(0..4u32)), phase);
            }
            _ => occ.claim(cell, NodeId::new(100 + rng.random_range(0..8u32)), phase),
        }
    }
    occ
}

/// Work counters of the calling thread's current scope.
fn counters() -> (u64, u64) {
    (
        obs::counter("router.expansions").get(),
        obs::counter("router.pruned_states").get(),
    )
}

/// Tallies of one (fabric, II, model) line.
struct Line {
    ok: u64,
    no_path: u64,
    digest: Fnv,
    before: (u64, u64),
}

impl Line {
    fn start() -> Self {
        Self {
            ok: 0,
            no_path: 0,
            digest: Fnv::new(),
            before: counters(),
        }
    }

    fn record(&mut self, outcome: &Result<Route, RouteError>) {
        match outcome {
            Ok(_) => self.ok += 1,
            Err(RouteError::NoPath { .. }) => self.no_path += 1,
            Err(e) => panic!("the stream never asks for a negative length: {e}"),
        }
        self.digest.route(outcome);
    }

    fn finish(self, out: &mut String, fabric: &str, ii: u32, model: &str) {
        let after = counters();
        writeln!(
            out,
            "{fabric} ii={ii} {model} ok={} nopath={} expansions={} pruned={} digest={:016x}",
            self.ok,
            self.no_path,
            after.0 - self.before.0,
            after.1 - self.before.1,
            self.digest.0
        )
        .unwrap();
    }
}

const SINGLE_REQUESTS: usize = 40;
const FANOUT_BATCHES: usize = 10;

fn single_routes(
    out: &mut String,
    (fabric, ii, model): (&str, u32, &str),
    router: &Router<'_>,
    occ: &Occupancy,
    reqs: &[RouteRequest],
    cost: &impl CostModel,
) {
    let mut line = Line::start();
    for req in reqs {
        line.record(&router.route(occ, req, cost));
    }
    line.finish(out, fabric, ii, model);
}

fn fanout_batches(
    out: &mut String,
    (fabric, ii, model): (&str, u32, &str),
    router: &Router<'_>,
    occ: &mut Occupancy,
    batches: &[Vec<RouteRequest>],
    cost: &impl CostModel,
) {
    let mut line = Line::start();
    for batch in batches {
        match router.route_fanout(occ, batch, cost) {
            Ok(routes) => {
                for route in routes {
                    line.record(&Ok(route));
                }
            }
            Err(e) => line.record(&Err(e)),
        }
    }
    line.finish(out, fabric, ii, model);
}

fn render_current() -> String {
    let _scope = obs::scope("test/route_golden");
    let mut out = String::new();
    out.push_str("# Router golden digest: seeded request streams on partial occupancies.\n");
    out.push_str(
        "# <fabric> ii=<II> <model> ok=<routes> nopath=<failures> expansions=<router.expansions> \
         pruned=<router.pruned_states> digest=<FNV-1a of cells and cost bits>\n",
    );
    out.push_str(
        "# Regenerate with: REWIRE_BLESS=1 cargo test -p rewire-mrrg --test route_golden\n",
    );
    for (f, (fabric, cgra)) in fabrics().iter().enumerate() {
        for ii in 1..=6u32 {
            let mrrg = Mrrg::new(cgra, ii);
            let router = Router::new(cgra, &mrrg);
            let mut rng = StdRng::seed_from_u64(((f as u64) << 8) | u64::from(ii));
            let n = cgra.num_pes() as u32;
            let sources: Vec<PeId> = (0..SINGLE_REQUESTS / 4)
                .map(|_| PeId::new(rng.random_range(0..n)))
                .collect();
            let reqs: Vec<RouteRequest> = (0..SINGLE_REQUESTS)
                .map(|i| {
                    let src = sources[i % sources.len()];
                    let signal = NodeId::new(rng.random_range(0..ROUTED_SIGNALS));
                    let depart = rng.random_range(1..=8u32);
                    request(&mut rng, cgra, src, signal, depart)
                })
                .collect();
            let batches: Vec<Vec<RouteRequest>> = (0..FANOUT_BATCHES)
                .map(|b| {
                    let src = sources[b % sources.len()];
                    let signal = NodeId::new(rng.random_range(0..ROUTED_SIGNALS));
                    let depart = rng.random_range(1..=8u32);
                    let branches = rng.random_range(2..=4usize);
                    (0..branches)
                        .map(|_| request(&mut rng, cgra, src, signal, depart))
                        .collect()
                })
                .collect();
            let mut occ = seeded_occupancy(&mut rng, cgra, &mrrg, &sources);
            let mut negotiated = NegotiatedCost::new(&mrrg, 4.0, 0.75);
            negotiated.accumulate_history_everywhere(&occ);
            negotiated.accumulate_history_everywhere(&occ);

            let key = |model| (fabric.as_str(), ii, model);
            single_routes(&mut out, key("unit"), &router, &occ, &reqs, &UnitCost);
            single_routes(
                &mut out,
                key("negotiated"),
                &router,
                &occ,
                &reqs,
                &negotiated,
            );
            fanout_batches(
                &mut out,
                key("fanout-unit"),
                &router,
                &mut occ,
                &batches,
                &UnitCost,
            );
            fanout_batches(
                &mut out,
                key("fanout-negotiated"),
                &router,
                &mut occ,
                &batches,
                &negotiated,
            );
        }
    }
    out
}

#[test]
fn random_fabrics_cover_torus_diagonal_and_cut_links() {
    let specs: Vec<_> = (0..8)
        .map(|seed| random_cgra_spec(&random_params(), seed))
        .collect();
    assert!(specs.iter().any(|s| s.torus), "a torus fabric");
    assert!(specs.iter().any(|s| s.diagonals), "a diagonal fabric");
    assert!(specs.iter().any(|s| s.cut_row.is_some()), "a cut fabric");
}

#[test]
fn routes_match_the_golden_digest() {
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
            "missing golden digest {} ({e}); run REWIRE_BLESS=1 cargo test -p rewire-mrrg --test route_golden",
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
        "router output drifted from {}:\n{drifted}\
         if intentional, re-bless with REWIRE_BLESS=1 cargo test -p rewire-mrrg --test route_golden",
        path.display()
    );
}
