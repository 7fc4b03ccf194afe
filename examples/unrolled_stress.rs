//! Stress the compilers with unroll-by-2 kernels on the 8×8 fabric — the
//! paper's scalability setup ("unrolled versions ... specially on 8×8
//! CGRA").
//!
//! Run with: `cargo run --release --example unrolled_stress`

use rewire::prelude::*;
use std::time::Duration;

fn main() {
    let cgra = presets::paper_8x8_r4();
    println!("architecture: {cgra}");
    // Keep the demo snappy: short budgets and a tight II ceiling (the
    // full-scale sweep is `repro fig5` in rewire-bench).
    let limits = MapLimits::fast().with_ii_time_budget(Duration::from_secs(2));

    let names = ["fir", "atax", "mvt"];
    println!(
        "{:<12} {:>5} {:>4} {:>7} {:>9}",
        "kernel", "nodes", "MII", "Rewire", "elapsed"
    );
    for base in names {
        let dfg = kernels::by_name(base).expect("kernel exists").unroll(2);
        let Some(mii) = dfg.mii(&cgra) else { continue };
        let limits = limits.with_max_ii(mii + 6);
        let outcome = RewireMapper::new().map(&dfg, &cgra, &limits);
        println!(
            "{:<12} {:>5} {:>4} {:>7} {:>8.1?}",
            dfg.name(),
            dfg.num_nodes(),
            mii,
            outcome
                .stats
                .achieved_ii
                .map_or("-".into(), |ii| ii.to_string()),
            outcome.stats.elapsed,
        );
        if let Some(m) = &outcome.mapping {
            assert!(m.is_valid(&dfg, &cgra), "{}", dfg.name());
        }
    }
}
