//! The reuse lemma behind [`Router::route_certified`], checked on seeded
//! request streams.
//!
//! Rewire's Algorithm 2 reuses an exclusive-cost route computed on its base
//! occupancy whenever the route's [`RouteCertificate`] still holds on a
//! later occupancy that only adds claims. This file checks, on the
//! thirteen fabrics `route_golden.rs` pins (the four paper presets, the
//! 32×32 mesh and eight random fabrics) at II 1..=6, on partial foreign
//! occupancies and with requests up to 4·II steps long so that the
//! duplicate-cell retry loop runs, that:
//!
//! * (a) a certificate holds on the occupancy it was computed on, and the
//!   certified call returns exactly what [`Router::route`] returns;
//! * (b) after random extra claims that leave every certified pair usable,
//!   routing again returns the certified outcome (route and cost, or the
//!   error);
//! * (c) a foreign claim on any certified pair breaks the certificate;
//! * (d) a request whose first DP attempt finds no path has an empty
//!   certificate and stays `NoPath` under any extra claims.
//!
//! Minimum counts of retried requests and of requests that end in the
//! ten-attempt `NoPath` keep the stream exercising the retry loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rewire_arch::random::{random_cgra_spec, RandomCgraParams};
use rewire_arch::{presets, Cgra, PeId};
use rewire_dfg::NodeId;
use rewire_mrrg::{Mrrg, Occupancy, Resource, RouteError, RouteRequest, Router, UnitCost};
use rewire_obs as obs;
use std::collections::HashMap;

/// The fabrics `route_golden.rs` pins: the four paper presets, the 32×32
/// mesh and eight random fabrics with torus, diagonal and cut links.
fn fabrics() -> Vec<Cgra> {
    let params = RandomCgraParams {
        cut_prob: 0.25,
        torus_prob: 0.3,
        diagonal_prob: 0.3,
        ..RandomCgraParams::default()
    };
    let mut out = vec![
        presets::paper_4x4_r4(),
        presets::paper_4x4_r2(),
        presets::paper_4x4_r1(),
        presets::paper_8x8_r4(),
        presets::mesh32(),
    ];
    out.extend((0..8).map(|seed| random_cgra_spec(&params, seed).build().unwrap()));
    out
}

/// A PE reached from `from` by a random walk of `hops` link steps.
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

/// A random cell within three hops of `near`.
fn cell_near(rng: &mut StdRng, cgra: &Cgra, ii: u32, near: PeId) -> Resource {
    let hops = rng.random_range(0..=3u32);
    let pe = walk(rng, cgra, near, hops);
    let slot = rng.random_range(0..ii);
    let outs: Vec<_> = cgra.links_from(pe).map(|l| l.id()).collect();
    match rng.random_range(0..4u32) {
        0 => Resource::Fu { pe, slot },
        1 => Resource::Reg {
            pe,
            reg: rng.random_range(0..cgra.regs_per_pe()),
            slot,
        },
        _ if outs.is_empty() => Resource::Fu { pe, slot },
        _ => Resource::Link {
            link: outs[rng.random_range(0..outs.len())],
            slot,
        },
    }
}

/// The signals requests route; signals from 100 up are foreign.
const ROUTED_SIGNALS: u32 = 4;

/// A random claim key: a routed signal at any phase (so only that exact
/// phase may share the cell), or a foreign signal.
fn any_key(rng: &mut StdRng) -> (NodeId, u32) {
    let signal = if rng.random_bool(0.25) {
        rng.random_range(0..ROUTED_SIGNALS)
    } else {
        100 + rng.random_range(0..8u32)
    };
    (NodeId::new(signal), rng.random_range(0..8u32))
}

/// A request of 0..=4·II steps from `src`: to a PE a short walk away, or
/// anywhere on the fabric (often out of reach).
fn request(rng: &mut StdRng, cgra: &Cgra, ii: u32, src: PeId) -> RouteRequest {
    let steps = rng.random_range(0..=4 * ii);
    let dst = if rng.random_range(0..5u32) == 0 {
        PeId::new(rng.random_range(0..cgra.num_pes() as u32))
    } else {
        let hops = rng.random_range(0..=steps + 1);
        walk(rng, cgra, src, hops)
    };
    let depart = rng.random_range(1..=8u32);
    RouteRequest {
        signal: NodeId::new(rng.random_range(0..ROUTED_SIGNALS)),
        src_pe: src,
        depart_cycle: depart,
        dst_pe: dst,
        arrive_cycle: depart + steps,
    }
}

const REQUESTS_PER_II: usize = 16;

#[derive(Default, Debug)]
struct Tally {
    requests: u64,
    routed: u64,
    retried: u64,
    ten_attempt_no_path: u64,
    dp_infeasible: u64,
}

#[test]
fn certified_outcomes_survive_claims_that_keep_the_certificate() {
    let _scope = obs::scope("test/route_certificate");
    let retries = obs::counter("router.retries");
    let mut tally = Tally::default();
    for (f, cgra) in fabrics().iter().enumerate() {
        for ii in 1..=6u32 {
            let mrrg = Mrrg::new(cgra, ii);
            let router = Router::new(cgra, &mrrg);
            let mut rng = StdRng::seed_from_u64(0xCE47 ^ ((f as u64) << 8) ^ u64::from(ii));
            let n = cgra.num_pes() as u32;
            let sources: Vec<PeId> = (0..6).map(|_| PeId::new(rng.random_range(0..n))).collect();
            let mut occ = Occupancy::new(&mrrg);
            for _ in 0..8 * sources.len() {
                let near = sources[rng.random_range(0..sources.len())];
                let cell = cell_near(&mut rng, cgra, ii, near);
                let (signal, phase) = any_key(&mut rng);
                occ.claim(cell, signal, phase);
            }
            for i in 0..REQUESTS_PER_II {
                let req = request(&mut rng, cgra, ii, sources[i % sources.len()]);
                let context = format!("{} ii={ii} {req}", cgra.label());
                tally.requests += 1;
                let before = retries.get();
                let (result, cert) = router.route_certified(&occ, &req);
                let retried = retries.get() - before;
                // (a) The certified call is the plain call plus a
                // certificate, which holds where it was computed.
                assert_eq!(
                    result,
                    router.route(&occ, &req, &UnitCost),
                    "{context}: same outcome"
                );
                assert!(cert.holds(&occ, req.signal), "{context}: (a)");
                match &result {
                    Ok(_) => tally.routed += 1,
                    Err(RouteError::NoPath { .. }) if retried == 0 => {
                        tally.dp_infeasible += 1;
                        // (d) No attempt found a path: nothing to certify.
                        assert!(cert.is_empty(), "{context}: (d) empty certificate");
                    }
                    Err(RouteError::NoPath { .. }) => {
                        assert_eq!(retried, 10, "{context}: only the loop gives up");
                        tally.ten_attempt_no_path += 1;
                    }
                    Err(e) => panic!("{context}: the stream is never backwards: {e}"),
                }
                if retried > 0 {
                    tally.retried += 1;
                }

                // (b) Extra claims that keep every certified pair usable:
                // any key on uncertified cells, and the routed key on
                // certified cells whose only certified phase is that key's.
                let mut phases: HashMap<Resource, Vec<u32>> = HashMap::new();
                for (cell, phase) in cert.pairs(&mrrg) {
                    phases.entry(cell).or_default().push(phase);
                }
                let mut extra = Vec::new();
                for _ in 0..12 {
                    let cell = cell_near(&mut rng, cgra, ii, req.src_pe);
                    let key = match phases.get(&cell) {
                        Some(ps) if ps.len() == 1 => (req.signal, ps[0]),
                        Some(_) => continue,
                        None => any_key(&mut rng),
                    };
                    occ.claim(cell, key.0, key.1);
                    extra.push((cell, key));
                }
                assert!(cert.holds(&occ, req.signal), "{context}: (b) still holds");
                assert_eq!(
                    router.route(&occ, &req, &UnitCost),
                    result,
                    "{context}: (b) the certified outcome after {} extra claims",
                    extra.len()
                );
                if cert.is_empty() && result.is_err() {
                    // (d) Stays NoPath under claims anywhere near, on top.
                    let near: Vec<_> = (0..12)
                        .map(|_| cell_near(&mut rng, cgra, ii, req.dst_pe))
                        .collect();
                    for &cell in &near {
                        occ.claim(cell, NodeId::new(200), 0);
                    }
                    assert!(
                        matches!(
                            router.route(&occ, &req, &UnitCost),
                            Err(RouteError::NoPath { .. })
                        ),
                        "{context}: (d) stays NoPath"
                    );
                    for &cell in &near {
                        occ.release(cell, NodeId::new(200), 0);
                    }
                }
                for (cell, (signal, phase)) in extra {
                    occ.release(cell, signal, phase);
                }

                // (c) A foreign claim on any certified pair breaks it.
                for (cell, _) in cert.pairs(&mrrg) {
                    occ.claim(cell, NodeId::new(200), 0);
                    assert!(!cert.holds(&occ, req.signal), "{context}: (c) {cell}");
                    occ.release(cell, NodeId::new(200), 0);
                }
            }
        }
    }
    eprintln!("{tally:?}");
    assert_eq!(tally.requests, 13 * 6 * REQUESTS_PER_II as u64);
    assert!(tally.routed >= tally.requests / 3, "{tally:?}");
    // The stream gives 152 first-attempt failures, 332 retried requests
    // and 155 ten-attempt failures; the floors sit near half of that.
    assert!(tally.dp_infeasible >= 75, "{tally:?}");
    assert!(tally.retried >= 150, "{tally:?}");
    assert!(tally.ten_attempt_no_path >= 75, "{tally:?}");
}
