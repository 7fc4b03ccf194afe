//! Golden-snapshot gate for the MII-tightness study (EXPERIMENTS.md §
//! "MII tightness"): the exact SAT backend's verdict table — proven
//! minimal II, refuted IIs, capped-heuristic IIs — over the 30-kernel
//! suite on the fig5 4×4 fabrics, pinned as a checked-in text snapshot.
//!
//! Any change to the CNF encoding, the CDCL core, or the heuristics
//! that shifts a verdict or an II fails this test with a line-level
//! diff. Intentional changes are blessed with:
//!
//! ```text
//! REWIRE_BLESS=1 cargo test --release --test mii_tightness
//! ```
//!
//! and the regenerated `tests/golden/mii_tightness.txt` is reviewed
//! like code (a flipped `*`/`?` marker is a change in what the backend
//! claims to have *proven*). Release-only: a triple-fabric SAT sweep is
//! impractical under the debug profile, like the mapping-heavy release
//! suites recorded in EXPERIMENTS.md.

use rewire_bench::{render_snapshot, run_workloads, tightness_rows, EXPERIMENTS};
use std::fmt::Write as _;
use std::path::PathBuf;

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/mii_tightness.txt")
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: the SAT sweep over three fabrics is impractical under the debug profile"
)]
fn study_matches_the_golden_snapshot() {
    // The `repro mii_tightness` experiment on two threads: its caps bind,
    // never the wall clock, so the rows do not depend on the job count.
    let study = EXPERIMENTS
        .iter()
        .find(|e| e.name == "mii_tightness")
        .expect("the study is an experiment");
    let rows = tightness_rows(&run_workloads(
        &(study.workloads)(),
        &(study.mappers)(),
        study.budget,
        2,
        |_| {},
    ));

    // Invariants the snapshot's shape must always satisfy, bless or not:
    // an optimality claim means every II from MII up to the achieved II
    // was refuted, and no heuristic may beat a proven floor.
    for r in &rows {
        assert!(
            r.exact_ii.is_none() || r.exact_ii >= Some(r.mii),
            "{}/{}: exact below MII",
            r.fabric,
            r.kernel
        );
        if r.exact_optimal {
            let ii = r.exact_ii.unwrap();
            let expected: Vec<u32> = (r.mii..ii).collect();
            assert_eq!(
                r.refuted, expected,
                "{}/{}: optimality without a contiguous refutation trail",
                r.fabric, r.kernel
            );
        }
        for (label, ii) in &r.heuristics {
            if let (Some(h), Some(floor)) = (ii, r.exact_ii) {
                if r.exact_optimal {
                    assert!(
                        *h >= floor,
                        "{}/{}: {label} beats the proven minimal II",
                        r.fabric,
                        r.kernel
                    );
                }
            }
        }
    }
    // The acceptance bar: on the paper's 4x4 fabric the backend decides
    // (model or refutation trail) at least 20 of the 30 kernels.
    let decided = rows
        .iter()
        .filter(|r| r.fabric == "4x4 4reg")
        .filter(|r| r.exact_ii.is_some() || !r.refuted.is_empty())
        .count();
    assert!(
        decided >= 20,
        "exact backend decided only {decided} kernels on 4x4 4reg"
    );

    let current = render_snapshot(&rows);
    let path = snapshot_path();
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
            "missing golden snapshot {} ({e}); run REWIRE_BLESS=1 cargo test --release --test mii_tightness",
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
        "the MII-tightness study drifted from {}:\n{drifted}\
         if intentional, re-bless with REWIRE_BLESS=1 cargo test --release --test mii_tightness",
        snapshot_path().display()
    );
}
