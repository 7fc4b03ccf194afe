//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit, direction and regression bound. The
//! root `BENCHMARK.json` declares the same table; a unit test keeps the two
//! in step.

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, II).
    Lower,
    /// Larger values are better (shares of mapped tasks).
    Higher,
}

/// One end-to-end metric: what a user of the mapper sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload by untraced runs.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "map_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "map_ms_geomean",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ii_sum",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.005,
    },
    EndToEnd {
        name: "mapped_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// The per-layer metrics `(name, unit)`, reported by traced runs. Names are
/// prefixed with the crate that does the work. Counts repeat exactly from
/// run to run; times and time ratios come from the traced passes.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("mrrg.route_calls", "count"),
    ("mrrg.expansions", "count"),
    ("mrrg.route_s", "s"),
    ("mrrg.ns_per_expansion", "ns"),
    ("mrrg.route_share", "ratio"),
    ("mrrg.route_fail_ratio", "ratio"),
    ("mrrg.retries", "count"),
    ("mrrg.pruned_states", "count"),
    ("mrrg.tree_reuse", "count"),
    ("mrrg.oracle_build_ms", "ms"),
    ("mrrg.oracle_bytes", "bytes"),
    ("core.clusters", "count"),
    ("core.cluster_growths", "count"),
    ("core.tuples", "count"),
    ("core.combinations_pruned", "count"),
    ("core.restarts", "count"),
    ("core.verifications", "count"),
    ("core.verify_success_ratio", "ratio"),
    ("mappers.attempts", "count"),
    ("mappers.iis_explored", "count"),
    ("mappers.mapped_per_attempt", "ratio"),
    ("mappers.search_s", "s"),
    ("mappers.pf_rip_ups", "count"),
    ("mappers.pf_evictions", "count"),
    ("mappers.consolidate_s", "s"),
    ("mappers.fanout_cells_saved", "count"),
    ("mappers.exact_vars", "count"),
    ("mappers.exact_clauses", "count"),
    ("mappers.used_cells", "count"),
    ("mappers.proven_optimal", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("dfg.build_ms", "ms"),
    ("dfg.mii_ms", "ms"),
    ("arch.build_ms", "ms"),
    ("mappers.validate_ms", "ms"),
    ("sim.verify_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("obs.unattributed_share", "ratio"),
];

/// Looks an end-to-end metric up by name.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire::obs::json::{self, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perf/");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_declares_this_catalogue() {
        let root = benchmark_json();
        let e2e = root.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(field(entry, "better"), better, "{}", m.name);
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
            assert_eq!(bound, m.bound, "{}", m.name);
        }
        let layers = root.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit)) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(field(entry, "name"), *name);
            assert_eq!(field(entry, "unit"), *unit, "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_workload() {
        let root = benchmark_json();
        let listed: Vec<&str> = root
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let known: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, known);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _)| *n));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        for name in names {
            assert!(crate::workloads::is_valid_name(name), "{name}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert_eq!(end_to_end("setup_s").map(|m| m.unit), Some("s"));
    }
}
