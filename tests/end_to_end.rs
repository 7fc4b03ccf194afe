//! Cross-crate integration tests: the full compile flow through the public
//! facade, exactly as a downstream user drives it.

use rewire::prelude::*;
use std::time::Duration;

fn limits(ms: u64) -> MapLimits {
    MapLimits::fast().with_ii_time_budget(Duration::from_millis(ms))
}

#[test]
fn rewire_maps_the_core_suite_on_the_baseline_cgra() {
    let cgra = presets::paper_4x4_r4();
    for name in ["atax", "bicg", "fir", "jacobi2d", "viterbi"] {
        let dfg = kernels::by_name(name).unwrap();
        let outcome = RewireMapper::new().map(&dfg, &cgra, &limits(2000));
        let mapping = outcome
            .mapping
            .unwrap_or_else(|| panic!("{name} must map on 4x4/r4"));
        assert!(mapping.is_valid(&dfg, &cgra), "{name}");
        assert!(mapping.ii() >= outcome.stats.mii, "{name}");
    }
}

#[test]
fn all_three_mappers_agree_on_validity() {
    let cgra = presets::paper_4x4_r4();
    let dfg = kernels::atax();
    let mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(RewireMapper::new()),
        Box::new(PathFinderMapper::new()),
        Box::new(SaMapper::new()),
    ];
    for mapper in mappers {
        let outcome = mapper.map(&dfg, &cgra, &limits(2000));
        if let Some(m) = outcome.mapping {
            assert!(m.is_valid(&dfg, &cgra), "{}", mapper.name());
            assert_eq!(Some(m.ii()), outcome.stats.achieved_ii, "{}", mapper.name());
        }
    }
}

#[test]
fn mapping_respects_memory_columns() {
    let cgra = presets::paper_4x4_r4();
    let dfg = kernels::spmv();
    let outcome = RewireMapper::new().map(&dfg, &cgra, &limits(2500));
    let mapping = outcome.mapping.expect("spmv maps");
    for node in dfg.nodes() {
        if node.op().is_memory() {
            let (pe, _) = mapping.placement(node.id()).unwrap();
            assert!(
                cgra.pe(pe).memory_capable(),
                "{} placed on non-memory {pe}",
                node.name()
            );
        }
    }
}

#[test]
fn routes_arrive_exactly_when_consumers_read() {
    let cgra = presets::paper_4x4_r4();
    let dfg = kernels::fir();
    let outcome = RewireMapper::new().map(&dfg, &cgra, &limits(2000));
    let mapping = outcome.mapping.expect("fir maps");
    let ii = mapping.ii();
    for e in dfg.edges() {
        let (_, t_src) = mapping.placement(e.src()).unwrap();
        let (_, t_dst) = mapping.placement(e.dst()).unwrap();
        let route = mapping.route(e.id()).unwrap();
        let req = route.request();
        assert_eq!(req.depart_cycle, t_src + 1);
        assert_eq!(req.arrive_cycle, t_dst + e.distance() * ii);
        // One resource cell per cycle of the path (plus at most the
        // delivery hop).
        let steps = (req.arrive_cycle - req.depart_cycle) as usize;
        assert!(route.resources().len() == steps || route.resources().len() == steps + 1);
    }
}

#[test]
fn unrolled_kernel_maps_on_the_8x8_fabric() {
    let cgra = presets::paper_8x8_r4();
    let dfg = kernels::by_name("fir(u)").unwrap();
    assert_eq!(dfg.num_nodes(), 2 * kernels::fir().num_nodes());
    // One restart per II bounds the search deterministically; the budget
    // is a safety net that never binds, so the outcome cannot depend on
    // machine load.
    let rewire = RewireMapper::with_config(RewireConfig {
        max_restarts_per_ii: 1,
        ..Default::default()
    });
    let outcome = rewire.map(&dfg, &cgra, &limits(600_000));
    let mapping = outcome.mapping.expect("fir(u) maps on 8x8");
    assert!(mapping.is_valid(&dfg, &cgra));
}

#[test]
fn rewire_amends_a_partial_mapping_from_any_producer() {
    // Rewire is orthogonal to the initial-mapping producer: feed it a
    // partially built mapping directly.
    use rand::SeedableRng;
    use rewire::mrrg::Mrrg;
    let cgra = presets::paper_4x4_r4();
    let dfg = kernels::fir();
    let ii = 4;
    let mrrg = Mrrg::new(&cgra, ii);
    let mapping = Mapping::new(&dfg, &mrrg); // nothing placed at all
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut stats = RewireStats::default();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let amended = RewireMapper::new().amend(&dfg, &cgra, mapping, deadline, &mut rng, &mut stats);
    if let Some(m) = amended {
        assert!(m.is_valid(&dfg, &cgra));
        assert_eq!(m.ii(), ii);
    }
}

#[test]
fn serialization_round_trip_through_text_and_remap() {
    // The parsed copy must be mappable just like the original. (Exact II
    // equality is not asserted: the mapper's wall-clock restart budget
    // makes the achieved II load-sensitive.)
    let cgra = presets::paper_4x4_r4();
    let original = kernels::atax();
    let parsed = Dfg::from_text(&original.to_text()).unwrap();
    assert_eq!(parsed.mii(&cgra), original.mii(&cgra));
    let a = RewireMapper::new().map(&original, &cgra, &limits(1500));
    let b = RewireMapper::new().map(&parsed, &cgra, &limits(1500));
    let (ma, mb) = (
        a.mapping.expect("original maps"),
        b.mapping.expect("parsed maps"),
    );
    assert!(ma.is_valid(&original, &cgra));
    assert!(mb.is_valid(&parsed, &cgra));
}
