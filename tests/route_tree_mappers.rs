//! Mapper-level checks of fan-out routing: every mapper routes multi-sink
//! signals as shared route trees (Steiner-style trees from the engine's
//! consolidation pass, plus PF*'s subtree-delta repair). The returned
//! mappings must stay golden-model correct and must visibly share trunk
//! cells on the fan-out-heavy kernels the tree router exists for. The
//! router-level counterpart (randomized fan-out trees) lives in
//! `crates/mrrg/tests/tree_properties.rs`.

use rewire::prelude::*;
use rewire_mappers::PathFinderConfig;
use rewire_sim::{verify_semantics, Inputs};
use std::collections::HashSet;
use std::time::Duration;

/// Cells the shared route trees of `mapping` save over per-branch
/// counting: Σ over multi-sink signals of the branches' summed lengths
/// minus their distinct cells (the footprint `consolidate_fanout` counts).
fn trunk_cells_shared(dfg: &Dfg, mapping: &Mapping) -> usize {
    dfg.node_ids()
        .filter_map(|node| {
            let routes: Vec<_> = dfg
                .out_edges(node)
                .filter_map(|e| mapping.route(e.id()).cloned())
                .collect();
            if routes.len() < 2 {
                return None;
            }
            let total: usize = routes.iter().map(|r| r.resources().len()).sum();
            let distinct: HashSet<_> = routes.iter().flat_map(|r| r.resources()).collect();
            Some(total - distinct.len())
        })
        .sum()
}

/// Deterministic caps bind, the wall clock never does.
fn limits_for(dfg: &Dfg, cgra: &Cgra) -> Option<MapLimits> {
    let mii = dfg.mii(cgra)?;
    Some(
        MapLimits::fast()
            .with_seed(0xFACADE)
            .with_ii_time_budget(Duration::from_secs(600))
            .with_max_ii(mii + 1),
    )
}

/// Deterministically-capped mappers with enough search budget to actually
/// map the routable subset of the suite. Caps still bind before the wall
/// clock, so runs stay byte-deterministic.
fn routable_mappers() -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(RewireMapper::with_config(RewireConfig {
            max_restarts_per_ii: 2,
            ..Default::default()
        })),
        Box::new(PathFinderMapper::with_config(PathFinderConfig {
            max_full_evals: 40,
            ..Default::default()
        })),
    ]
}

/// Kernels at least one mapping-capable config reliably maps on
/// `paper_4x4_r4` at `mii + 1` (measured: Rewire maps all six, PF* three).
const ROUTABLE_KERNELS: [&str; 6] = [
    "gramschmidt",
    "jacobi2d",
    "stencil3d",
    "fir",
    "sobel",
    "kmeans",
];

/// Kernels whose broadcast hubs (taps, shared pixel loads, stencil
/// centers) the tree router must visibly consolidate.
const FANOUT_HEAVY: [&str; 2] = ["fir", "stencil3d"];

/// On the kernels the deterministic full-budget configs reliably map,
/// every mapping passes the golden model, and the fan-out-heavy kernels'
/// route trees share trunk cells.
#[test]
fn routable_kernels_tree_mode_strictly_saves() {
    let cgra = presets::paper_4x4_r4();
    let mut mapped = 0usize;
    let mut heavy_shared = 0usize;
    for mapper in routable_mappers() {
        for (i, name) in ROUTABLE_KERNELS.iter().enumerate() {
            let dfg = kernels::by_name(name).expect("known kernel");
            let limits = limits_for(&dfg, &cgra).expect("routable kernels are feasible");
            let Some(m) = mapper.map(&dfg, &cgra, &limits).mapping else {
                continue;
            };
            // Valid means overuse-free: no branch revisits a cell and a
            // signal's branches share cells only at equal phase.
            assert!(m.is_valid(&dfg, &cgra), "{} on {name}", mapper.name());
            verify_semantics(&dfg, &cgra, &m, &Inputs::new(0x5EED ^ i as u64), 4)
                .unwrap_or_else(|e| panic!("{} on {name}: {e}", mapper.name()));
            mapped += 1;
            if FANOUT_HEAVY.contains(name) {
                heavy_shared += trunk_cells_shared(&dfg, &m);
            }
        }
    }
    // Vacuity guards: enough runs must genuinely have mapped, and the
    // sharing must show up on the fan-out-heavy kernels.
    assert!(mapped >= 8, "only {mapped} mappings");
    assert!(
        heavy_shared > 0,
        "no trunk cell shared on the fan-out-heavy kernels"
    );
}

/// The divergence artifacts (note tagged `subtree-delta`) pin the class
/// of scenarios the tree router exists for: the capped PF* maps each at
/// its recorded II (per-edge routing gave up there), the mapping passes
/// the golden model, and the SAT oracle certifies that II is feasible.
#[test]
fn corpus_divergence_artifacts_need_tree_routing() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("fuzz/corpus exists")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dfg"))
        .collect();
    paths.sort();
    let pf = PathFinderMapper::with_config(PathFinderConfig {
        max_iterations_per_ii: 60,
        max_full_evals: 6,
        ..Default::default()
    });
    let mut found = 0;
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        let artifact = rewire_fuzz::Artifact::from_text(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if !artifact.note.contains("subtree-delta") {
            continue;
        }
        found += 1;
        let label = path.file_name().unwrap().to_string_lossy().to_string();
        let s = rewire_fuzz::Scenario::from_parts(
            artifact.seed,
            artifact.dfg.clone(),
            artifact.spec.clone(),
        );
        let mii = s
            .dfg
            .mii(&s.cgra)
            .expect("divergence artifacts are feasible");
        let limits = MapLimits::fast()
            .with_seed(s.mapper_seed())
            .with_ii_time_budget(Duration::from_secs(600))
            .with_max_ii(mii + 1);
        let out = pf.map(&s.dfg, &s.cgra, &limits);
        assert_eq!(
            out.stats.achieved_ii,
            Some(artifact.max_ii),
            "{label}: PF* must map at the recorded II"
        );
        verify_semantics(
            &s.dfg,
            &s.cgra,
            out.mapping.as_ref().unwrap(),
            &Inputs::new(s.input_seed()),
            8,
        )
        .unwrap_or_else(|e| panic!("{label}: mapping fails the golden model: {e}"));
        let exact =
            ExactSatMapper::new().map(&s.dfg, &s.cgra, &limits.with_max_ii(artifact.max_ii));
        assert_eq!(
            exact.stats.achieved_ii,
            Some(artifact.max_ii),
            "{label}: SAT backend must confirm feasibility at the recorded II"
        );
    }
    assert!(
        found >= 3,
        "only {found} divergence artifacts in the corpus"
    );
}
