//! The oracle stack: everything a mapping outcome is checked against.
//!
//! Five independent checks, in increasing strength:
//!
//! 1. **Structural** — a returned mapping must validate against the DFG
//!    and fabric, be complete, and agree with its own reported stats.
//! 2. **Semantic** — the mapped machine must compute exactly what the DFG
//!    computes ([`rewire_sim::verify_semantics`] golden-model run).
//! 3. **MII bound** — no mapper may claim an II below the theoretical
//!    minimum `max(ResMII, RecMII)`, nor map an instance whose MII is
//!    undefined.
//! 4. **Cross-mapper** — no mapper may claim infeasibility without
//!    sweeping the full II range.
//! 5. **Exact verdict** — the SAT backend's (the `"Exact"` run's)
//!    machine-checked per-II verdicts must agree with every other mapper:
//!    a heuristic mapping at an II the SAT solver *proved* infeasible
//!    means one of the two is wrong, and the heuristic's validated mapping
//!    is the feasibility certificate that convicts the encoder. UNSAT is a
//!    proof, not a search give-up, so the layer needs no trust policy, but
//!    it is horizon-guarded: the proof only covers schedules within
//!    [`ExactSatMapper::proof_horizon`], so a heuristic mapping scheduled
//!    beyond it is out of scope rather than a contradiction.
//!
//! Every check is a standalone function returning violations rather than
//! panicking, so the shrinker can re-run the stack cheaply and unit tests
//! can demonstrate seeded violations being caught.

use rewire_arch::Cgra;
use rewire_dfg::Dfg;
use rewire_mappers::{AttemptVerdict, ExactSatMapper, MapOutcome, Mapping};
use rewire_sim::{verify_semantics, Inputs};
use std::fmt;

/// Which oracle check fired.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CheckKind {
    /// Structural mapping invariants.
    Structural,
    /// Golden-model equivalence.
    Semantic,
    /// `achieved II ≥ MII` lower-bound sanity.
    MiiBound,
    /// Sweep contract: no infeasibility claim without a full II sweep.
    CrossMapper,
    /// SAT-proof-vs-heuristic agreement: nobody maps at a proven-UNSAT II.
    ExactVerdict,
}

impl CheckKind {
    /// Stable snake_case label (metrics scopes, artifact files).
    pub fn label(self) -> &'static str {
        match self {
            CheckKind::Structural => "structural",
            CheckKind::Semantic => "semantic",
            CheckKind::MiiBound => "mii_bound",
            CheckKind::CrossMapper => "cross_mapper",
            CheckKind::ExactVerdict => "exact_verdict",
        }
    }

    /// Parses a [`label`](CheckKind::label) back.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "structural" => Some(CheckKind::Structural),
            "semantic" => Some(CheckKind::Semantic),
            "mii_bound" => Some(CheckKind::MiiBound),
            "cross_mapper" => Some(CheckKind::CrossMapper),
            "exact_verdict" => Some(CheckKind::ExactVerdict),
            _ => None,
        }
    }

    /// All checks, in evaluation order.
    pub fn all() -> [CheckKind; 5] {
        [
            CheckKind::Structural,
            CheckKind::Semantic,
            CheckKind::MiiBound,
            CheckKind::CrossMapper,
            CheckKind::ExactVerdict,
        ]
    }
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One oracle violation: which check fired, on whose outcome, and why.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// The check that fired.
    pub check: CheckKind,
    /// The mapper whose outcome violated it.
    pub mapper: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.check, self.mapper, self.detail)
    }
}

/// One mapper's outcome on a scenario, as the oracle consumes it.
#[derive(Clone, Debug)]
pub struct MapperRun {
    /// Mapper display name (`"Rewire"`, `"PF*"`, `"SA"`, `"Exact"`).
    pub name: String,
    /// What it produced.
    pub outcome: MapOutcome,
}

/// Context the full stack needs beyond the outcomes themselves.
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Theoretical minimum II of the scenario (`None` = unmappable).
    pub mii: Option<u32>,
    /// The `max_ii` every mapper swept to (for truncation detection).
    pub max_ii: u32,
    /// Seed for the golden-model input streams.
    pub input_seed: u64,
    /// Iterations simulated by the semantic check.
    pub sim_iterations: u32,
}

/// Check 1: structural invariants of a returned mapping, plus
/// outcome-internal consistency.
pub fn check_structural(
    dfg: &Dfg,
    cgra: &Cgra,
    name: &str,
    outcome: &MapOutcome,
) -> Option<Violation> {
    let fail = |detail: String| {
        Some(Violation {
            check: CheckKind::Structural,
            mapper: name.to_string(),
            detail,
        })
    };
    let Some(mapping) = &outcome.mapping else {
        // No mapping: stats must agree.
        if outcome.stats.achieved_ii.is_some() {
            return fail("no mapping returned but stats claim an achieved II".into());
        }
        return None;
    };
    if let Err(issues) = mapping.validate(dfg, cgra) {
        let mut detail = format!("{} validation issues:", issues.len());
        for i in issues.iter().take(3) {
            detail.push_str(&format!(" {i};"));
        }
        return fail(detail);
    }
    if !mapping.is_complete(dfg) {
        return fail("mapping validates but is incomplete".into());
    }
    match outcome.stats.achieved_ii {
        Some(ii) if ii != mapping.ii() => fail(format!(
            "stats claim II {ii} but the mapping's II is {}",
            mapping.ii()
        )),
        None => fail("mapping returned but stats claim failure".into()),
        _ => None,
    }
}

/// Check 2: golden-model equivalence of a returned mapping.
pub fn check_semantics(
    dfg: &Dfg,
    cgra: &Cgra,
    name: &str,
    mapping: &Mapping,
    input_seed: u64,
    iterations: u32,
) -> Option<Violation> {
    let inputs = Inputs::new(input_seed);
    verify_semantics(dfg, cgra, mapping, &inputs, iterations)
        .err()
        .map(|e| Violation {
            check: CheckKind::Semantic,
            mapper: name.to_string(),
            detail: e.to_string(),
        })
}

/// Check 3: `achieved II ≥ MII`, and nothing maps when MII is undefined.
pub fn check_mii_bound(name: &str, mii: Option<u32>, outcome: &MapOutcome) -> Option<Violation> {
    let achieved = outcome.stats.achieved_ii?;
    let fail = |detail: String| {
        Some(Violation {
            check: CheckKind::MiiBound,
            mapper: name.to_string(),
            detail,
        })
    };
    match mii {
        None => fail(format!(
            "achieved II {achieved} on an instance whose MII is undefined"
        )),
        Some(mii) if achieved < mii => {
            fail(format!("achieved II {achieved} is below the MII {mii}"))
        }
        Some(_) => None,
    }
}

/// Check 4: the sweep contract.
///
/// A mapper that claims infeasibility must have swept the entire
/// `mii..=max_ii` range. The engine never skips an II (per-II budgets
/// truncate *within* an II, never the sweep itself), so
/// `iis_explored < full span` on a failed run means the
/// mapper bailed below its budget — the "infeasibility claimed below the
/// time budget" class. This is sound for incomplete heuristics: failing a
/// full sweep where another mapper succeeds is incompleteness, not a bug.
/// The exact backend's up-front refusal of oversized instances
/// (`iis_explored == 0`) is exempt.
pub fn check_cross_mapper(runs: &[MapperRun], mii: Option<u32>, max_ii: u32) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(mii) = mii else {
        return out;
    };
    let full_span = max_ii.saturating_sub(mii) + 1;

    for r in runs {
        // The exact backend refuses oversized instances up front (0 IIs
        // explored) rather than sweeping; that is not an early bail.
        let refused = r.name == "Exact" && r.outcome.stats.iis_explored == 0;
        if r.outcome.stats.achieved_ii.is_none()
            && r.outcome.stats.iis_explored < full_span
            && !refused
        {
            out.push(Violation {
                check: CheckKind::CrossMapper,
                mapper: r.name.clone(),
                detail: format!(
                    "claims infeasibility after exploring only {} of the {full_span} IIs \
                     in {mii}..={max_ii}",
                    r.outcome.stats.iis_explored
                ),
            });
        }
    }
    out
}

/// Check 5: SAT-verdict agreement.
///
/// For every II the `"Exact"` run *proved* infeasible
/// ([`AttemptVerdict::InfeasibleAtII`]), no other mapper may have produced
/// a mapping at exactly that II — a validated mapping is a feasibility
/// certificate, so such a pair convicts the CNF encoder (or the heuristic
/// whose mapping slipped past validation). Two deliberate scope limits
/// keep the check sound:
///
/// * **Horizon guard** — the encoder only quantifies over schedules whose
///   latest operation is at or below
///   [`ExactSatMapper::proof_horizon`]`(dfg, ii)`. Rewire's execution
///   horizon can ratchet past that bound across amendment rounds, so a
///   heuristic mapping scheduled beyond it contradicts nothing.
/// * `Unknown` verdicts (budget truncation) and the mapped II's own
///   `Optimal` verdict constrain nobody.
///
/// The converse direction needs no code: the exact backend's *successes*
/// flow through the structural, semantic, and MII layers like any other
/// mapper's, so a SAT model that decodes into a broken mapping is caught
/// there.
pub fn check_exact_verdicts(dfg: &Dfg, runs: &[MapperRun]) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(exact) = runs.iter().find(|r| r.name == "Exact") else {
        return out;
    };
    for &(ii, verdict) in &exact.outcome.stats.verdicts {
        if verdict != AttemptVerdict::InfeasibleAtII {
            continue;
        }
        let horizon = ExactSatMapper::proof_horizon(dfg, ii);
        for r in runs.iter().filter(|r| r.name != "Exact") {
            let Some(mapping) = &r.outcome.mapping else {
                continue;
            };
            if r.outcome.stats.achieved_ii != Some(ii) {
                continue;
            }
            // `schedule_length` is the latest placed time plus one, so a
            // mapping is inside the proof's scope iff it stays ≤ H + 1.
            let fill = mapping.schedule_length();
            if fill > horizon + 1 {
                continue;
            }
            out.push(Violation {
                check: CheckKind::ExactVerdict,
                mapper: r.name.clone(),
                detail: format!(
                    "maps at II {ii} (schedule length {fill}) but the SAT backend proved \
                     II {ii} infeasible within horizon {horizon}"
                ),
            });
        }
    }
    out
}

/// Runs the whole stack over every outcome and returns all violations, in
/// deterministic (run, check) order.
pub fn run_oracle(
    dfg: &Dfg,
    cgra: &Cgra,
    runs: &[MapperRun],
    cfg: &OracleConfig,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for r in runs {
        if let Some(v) = check_structural(dfg, cgra, &r.name, &r.outcome) {
            out.push(v);
            // A structurally broken mapping is not worth simulating.
            continue;
        }
        if let Some(m) = &r.outcome.mapping {
            if let Some(v) =
                check_semantics(dfg, cgra, &r.name, m, cfg.input_seed, cfg.sim_iterations)
            {
                out.push(v);
            }
        }
        if let Some(v) = check_mii_bound(&r.name, cfg.mii, &r.outcome) {
            out.push(v);
        }
    }
    out.extend(check_cross_mapper(runs, cfg.mii, cfg.max_ii));
    out.extend(check_exact_verdicts(dfg, runs));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::{presets, Coord, OpKind, PeId};
    use rewire_dfg::EdgeId;
    use rewire_mappers::{MapLimits, MapStats, Mapper, PathFinderMapper};
    use rewire_mrrg::{Mrrg, Resource, Route, Router, UnitCost};

    fn pe(cgra: &Cgra, r: u16, c: u16) -> PeId {
        cgra.pe_at(Coord::new(r, c)).unwrap().id()
    }

    /// A two-node kernel mapped by hand on the paper fabric at II 2.
    fn mapped_pair() -> (Dfg, Cgra, Mapping) {
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("pair");
        let a = dfg.add_node("a", OpKind::Const);
        let b = dfg.add_node("b", OpKind::Add);
        dfg.add_edge(a, b, 0).unwrap();
        dfg.add_edge(a, b, 0).unwrap();
        let mrrg = Mrrg::new(&cgra, 2);
        let router = Router::new(&cgra, &mrrg);
        let mut m = Mapping::new(&dfg, &mrrg);
        m.place(a, pe(&cgra, 0, 0), 0);
        m.place(b, pe(&cgra, 0, 2), 3);
        for e in [0u32, 1] {
            let id = EdgeId::new(e);
            let req = m.request_for(&dfg, id).unwrap();
            let route = router.route(m.occupancy(), &req, &UnitCost).unwrap();
            m.set_route(id, route);
        }
        assert!(m.is_valid(&dfg, &cgra));
        (dfg, cgra, m)
    }

    fn stats(ii: Option<u32>, mii: u32, iis_explored: u32) -> MapStats {
        MapStats {
            mapper: "X".into(),
            kernel: "k".into(),
            mii,
            achieved_ii: ii,
            iis_explored,
            ..MapStats::default()
        }
    }

    #[test]
    fn structural_accepts_a_real_mapping() {
        let (dfg, cgra, m) = mapped_pair();
        let outcome = MapOutcome {
            stats: stats(Some(m.ii()), 1, 2),
            mapping: Some(m),
        };
        assert_eq!(check_structural(&dfg, &cgra, "PF*", &outcome), None);
    }

    #[test]
    fn structural_catches_seeded_corruption() {
        // Unplacing a node after the fact leaves an incomplete mapping —
        // exactly the kind of inconsistent outcome a buggy mapper could
        // return.
        let (dfg, cgra, mut m) = mapped_pair();
        m.unplace(&dfg, dfg.node_by_name("b").unwrap().id());
        let ii = m.ii();
        let outcome = MapOutcome {
            mapping: Some(m),
            stats: stats(Some(ii), 1, 2),
        };
        let v = check_structural(&dfg, &cgra, "PF*", &outcome).expect("must fire");
        assert_eq!(v.check, CheckKind::Structural);
        assert_eq!(v.mapper, "PF*");
    }

    #[test]
    fn structural_catches_stats_mapping_disagreement() {
        let (dfg, cgra, m) = mapped_pair();
        let outcome = MapOutcome {
            stats: stats(Some(m.ii() + 1), 1, 2), // lies about the II
            mapping: Some(m),
        };
        let v = check_structural(&dfg, &cgra, "PF*", &outcome).expect("must fire");
        assert!(v.detail.contains("mapping's II"), "{v}");
    }

    #[test]
    fn semantic_accepts_a_correct_mapping() {
        let (dfg, cgra, m) = mapped_pair();
        assert_eq!(check_semantics(&dfg, &cgra, "PF*", &m, 1, 4), None);
    }

    #[test]
    fn semantic_catches_a_seeded_wrong_slot_route() {
        // Swap in a hand-built route whose cells sit in the wrong modulo
        // slot. Structural validation does not inspect slots (the request
        // endpoints still match), so only the golden-model run can catch
        // it — which is exactly why the stack needs both checks.
        let (dfg, cgra, mut m) = mapped_pair();
        let edge = EdgeId::new(0);
        let good = m.route(edge).unwrap().clone();
        let corrupted: Vec<Resource> = good
            .resources()
            .iter()
            .map(|r| match *r {
                Resource::Reg { pe, reg, slot } => Resource::Reg {
                    pe,
                    reg,
                    slot: (slot + 1) % 2,
                },
                Resource::Link { link, slot } => Resource::Link {
                    link,
                    slot: (slot + 1) % 2,
                },
                Resource::Fu { pe, slot } => Resource::Fu {
                    pe,
                    slot: (slot + 1) % 2,
                },
            })
            .collect();
        m.clear_route(edge);
        m.set_route(
            edge,
            Route::from_parts(*good.request(), corrupted, good.cost()),
        );
        assert!(
            m.is_valid(&dfg, &cgra),
            "corruption must slip past structural validation for this test to bite"
        );
        let v = check_semantics(&dfg, &cgra, "PF*", &m, 1, 4).expect("must fire");
        assert_eq!(v.check, CheckKind::Semantic);
        assert!(v.detail.contains("slot"), "{v}");
    }

    #[test]
    fn mii_bound_accepts_and_catches() {
        let ok = MapOutcome {
            mapping: None,
            stats: stats(Some(3), 3, 1),
        };
        assert_eq!(check_mii_bound("SA", Some(3), &ok), None);

        let below = MapOutcome {
            mapping: None,
            stats: stats(Some(2), 3, 1),
        };
        let v = check_mii_bound("SA", Some(3), &below).expect("must fire");
        assert_eq!(v.check, CheckKind::MiiBound);
        assert!(v.detail.contains("below the MII"), "{v}");

        let impossible = MapOutcome {
            mapping: None,
            stats: stats(Some(4), 0, 1),
        };
        let v = check_mii_bound("SA", None, &impossible).expect("must fire");
        assert!(v.detail.contains("undefined"), "{v}");
    }

    fn run(name: &str, ii: Option<u32>, iis_explored: u32) -> MapperRun {
        MapperRun {
            name: name.into(),
            outcome: MapOutcome {
                mapping: None,
                stats: stats(ii, 2, iis_explored),
            },
        }
    }

    #[test]
    fn cross_mapper_catches_an_early_bail() {
        // SA claims infeasibility after exploring only 2 of the 4 IIs in
        // 2..=5 — it bailed out of the sweep below its budget, a seeded
        // engine-contract violation.
        let runs = [run("Exact", Some(2), 1), run("SA", None, 2)];
        let v = check_cross_mapper(&runs, Some(2), 5);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, CheckKind::CrossMapper);
        assert_eq!(v[0].mapper, "SA");
        assert!(v[0].detail.contains("only 2 of the 4 IIs"), "{}", v[0]);
    }

    #[test]
    fn cross_mapper_exempts_only_the_exact_refusal() {
        // The SAT backend's size guard declines an instance up front (0
        // IIs explored): not an early bail. A heuristic exploring nothing
        // is one.
        assert!(check_cross_mapper(&[run("Exact", None, 0)], Some(2), 5).is_empty());
        let v = check_cross_mapper(&[run("Rewire", None, 0)], Some(2), 5);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].mapper, "Rewire");
        // Failing a full sweep is incompleteness, not a contract breach.
        assert!(check_cross_mapper(&[run("SA", None, 4)], Some(2), 5).is_empty());
    }

    #[test]
    fn full_stack_is_clean_on_a_real_mapper_run() {
        let cgra = presets::paper_4x4_r4();
        let dfg = rewire_dfg::kernels::fir();
        let limits = MapLimits::fast();
        let outcome = PathFinderMapper::new().map(&dfg, &cgra, &limits);
        let runs = [MapperRun {
            name: "PF*".into(),
            outcome,
        }];
        let cfg = OracleConfig {
            mii: dfg.mii(&cgra),
            max_ii: limits.max_ii,
            input_seed: 1,
            sim_iterations: 6,
        };
        assert_eq!(run_oracle(&dfg, &cgra, &runs, &cfg), vec![]);
    }

    #[test]
    fn labels_round_trip() {
        for c in CheckKind::all() {
            assert_eq!(CheckKind::from_label(c.label()), Some(c));
        }
        assert_eq!(CheckKind::from_label("nope"), None);
    }

    /// A synthetic `"Exact"` run with the given per-II verdicts and no
    /// mapping of its own.
    fn exact_run(verdicts: Vec<(u32, rewire_mappers::AttemptVerdict)>) -> MapperRun {
        let mut st = stats(None, 2, verdicts.len() as u32);
        st.verdicts = verdicts;
        MapperRun {
            name: "Exact".into(),
            outcome: MapOutcome {
                mapping: None,
                stats: st,
            },
        }
    }

    #[test]
    fn exact_verdict_catches_a_mapping_at_a_proven_unsat_ii() {
        use rewire_mappers::AttemptVerdict;
        let (dfg, _cgra, m) = mapped_pair();
        let ii = m.ii();
        let heuristic = MapperRun {
            name: "PF*".into(),
            outcome: MapOutcome {
                stats: stats(Some(ii), 1, 2),
                mapping: Some(m),
            },
        };
        // The SAT backend "proved" the II the heuristic mapped at
        // infeasible — a seeded encoder bug the layer must convict.
        let exact = exact_run(vec![(ii, AttemptVerdict::InfeasibleAtII)]);
        let v = check_exact_verdicts(&dfg, &[heuristic, exact]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, CheckKind::ExactVerdict);
        assert_eq!(v[0].mapper, "PF*");
        assert!(v[0].detail.contains("proved"), "{}", v[0]);
    }

    #[test]
    fn exact_verdict_tolerates_agreement_unknowns_and_other_iis() {
        use rewire_mappers::AttemptVerdict;
        let (dfg, _cgra, m) = mapped_pair();
        let ii = m.ii();
        let heuristic = MapperRun {
            name: "PF*".into(),
            outcome: MapOutcome {
                stats: stats(Some(ii), 1, 2),
                mapping: Some(m),
            },
        };
        // Infeasibility proven strictly below the achieved II, an Unknown
        // at the achieved II, and an Optimal all constrain nothing.
        let exact = exact_run(vec![
            (ii - 1, AttemptVerdict::InfeasibleAtII),
            (ii, AttemptVerdict::Unknown { conflicts: 9 }),
            (ii + 1, AttemptVerdict::Optimal),
        ]);
        assert!(check_exact_verdicts(&dfg, &[heuristic, exact]).is_empty());
        // No Exact run at all: the layer is inert.
        let lone = [run("SA", Some(2), 1)];
        assert!(check_exact_verdicts(&dfg, &lone).is_empty());
    }

    #[test]
    fn exact_verdict_is_horizon_guarded() {
        use rewire_mappers::AttemptVerdict;
        // A mapping whose pipeline fill exceeds the proof horizon sits
        // outside the UNSAT proof's quantifier, so nothing may fire even
        // though the achieved IIs coincide.
        let (dfg, cgra, m) = mapped_pair();
        let ii = m.ii();
        let horizon = rewire_mappers::ExactSatMapper::proof_horizon(&dfg, ii);
        assert!(
            m.schedule_length() <= horizon + 1,
            "the honest mapping must sit inside the horizon"
        );
        let mrrg = Mrrg::new(&cgra, ii);
        let router = Router::new(&cgra, &mrrg);
        let mut late = Mapping::new(&dfg, &mrrg);
        let a = dfg.node_by_name("a").unwrap().id();
        let b = dfg.node_by_name("b").unwrap().id();
        late.place(a, pe(&cgra, 0, 0), horizon);
        late.place(b, pe(&cgra, 0, 1), horizon + 1);
        for e in [0u32, 1] {
            let id = EdgeId::new(e);
            let req = late.request_for(&dfg, id).unwrap();
            let route = router.route(late.occupancy(), &req, &UnitCost).unwrap();
            late.set_route(id, route);
        }
        assert!(late.schedule_length() > horizon + 1);
        let heuristic = MapperRun {
            name: "Rewire".into(),
            outcome: MapOutcome {
                stats: stats(Some(ii), 1, 2),
                mapping: Some(late),
            },
        };
        let exact = exact_run(vec![(ii, AttemptVerdict::InfeasibleAtII)]);
        assert!(check_exact_verdicts(&dfg, &[heuristic, exact]).is_empty());
    }

    #[test]
    fn full_stack_is_clean_with_the_real_exact_backend() {
        // PF* and the real SAT backend on the same small kernel: the
        // exact run's verdicts must never convict an honest mapping, and
        // its own mapping must clear the structural/semantic/MII layers.
        let cgra = presets::paper_4x4_r4();
        let mut dfg = Dfg::new("tri");
        let a = dfg.add_node("a", OpKind::Const);
        let b = dfg.add_node("b", OpKind::Add);
        let c = dfg.add_node("c", OpKind::Add);
        dfg.add_edge(a, b, 0).unwrap();
        dfg.add_edge(a, c, 0).unwrap();
        dfg.add_edge(b, c, 0).unwrap();
        let limits = MapLimits::fast();
        let runs = [
            MapperRun {
                name: "PF*".into(),
                outcome: PathFinderMapper::new().map(&dfg, &cgra, &limits),
            },
            MapperRun {
                name: "Exact".into(),
                outcome: rewire_mappers::ExactSatMapper::new().map(&dfg, &cgra, &limits),
            },
        ];
        assert!(runs[1].outcome.stats.proven_optimal());
        let cfg = OracleConfig {
            mii: dfg.mii(&cgra),
            max_ii: limits.max_ii,
            input_seed: 3,
            sim_iterations: 6,
        };
        assert_eq!(run_oracle(&dfg, &cgra, &runs, &cfg), vec![]);
    }
}
