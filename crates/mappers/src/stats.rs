//! The run record: one [`MapStats`] per mapping run — the quantities
//! Table I and Fig 6 report, the run's identity, and its one-line JSON
//! form (an observe directory's `runs.jsonl` holds one record per run).

use crate::engine::AttemptVerdict;
use rewire_obs::json::{self, Json};
use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

/// Why a run ended without a mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GiveUpReason {
    /// The DFG can never map on this fabric (MII undefined).
    NoMii,
    /// Every II up to [`crate::MapLimits::max_ii`] failed.
    MaxIiReached,
    /// The mapper declined the instance outright (the exact SAT backend's
    /// size guard).
    Refused,
}

impl GiveUpReason {
    const ALL: [GiveUpReason; 3] = [
        GiveUpReason::NoMii,
        GiveUpReason::MaxIiReached,
        GiveUpReason::Refused,
    ];

    /// Stable snake_case label used in run records and diagnoses.
    pub fn label(self) -> &'static str {
        match self {
            GiveUpReason::NoMii => "no_mii",
            GiveUpReason::MaxIiReached => "max_ii_reached",
            GiveUpReason::Refused => "refused",
        }
    }

    /// The reason whose [`label`](GiveUpReason::label) is `label`.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|r| r.label() == label)
    }
}

/// The record of one mapping run (across all IIs explored).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Mapper name (`"Rewire"`, `"PF*"`, `"SA"`, `"Exact"`).
    pub mapper: String,
    /// Kernel name.
    pub kernel: String,
    /// Fabric label ([`Cgra::label`](rewire_arch::Cgra::label), e.g.
    /// `4x4/r4`).
    pub fabric: String,
    /// Base RNG seed of the run ([`crate::MapLimits::seed`]).
    pub seed: u64,
    /// The theoretical minimum II the attempt started from.
    pub mii: u32,
    /// The II of the returned mapping (`None` on failure).
    pub achieved_ii: Option<u32>,
    /// Why the run ended without a mapping (`None` when it mapped).
    pub gave_up: Option<GiveUpReason>,
    /// Number of II values explored (success or exhaustion).
    pub iis_explored: u32,
    /// Total single-node remapping iterations across all IIs (the paper's
    /// Table I counter: one iteration = one node unmapped and retried).
    pub remap_iterations: u64,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Machine-checked per-II verdicts, in exploration order. Only exact
    /// backends produce them ([`AttemptOutcome::verdict`]); heuristic
    /// mappers leave this empty.
    ///
    /// [`AttemptOutcome::verdict`]: crate::engine::AttemptOutcome::verdict
    pub verdicts: Vec<(u32, AttemptVerdict)>,
}

impl MapStats {
    /// The run's identity, `mapper/kernel@fabric` — also the metric scope
    /// the engine records the run's counters, histograms, spans and flight
    /// events under.
    pub fn scope(&self) -> String {
        format!("{}/{}@{}", self.mapper, self.kernel, self.fabric)
    }

    /// Average remapping iterations per explored II — exactly the
    /// "average number of remapping iterations from the start II to the
    /// final mapped II" of Table I.
    pub fn remap_iterations_per_ii(&self) -> f64 {
        if self.iis_explored == 0 {
            0.0
        } else {
            self.remap_iterations as f64 / self.iis_explored as f64
        }
    }

    /// Whether a valid mapping was produced.
    pub fn success(&self) -> bool {
        self.achieved_ii.is_some()
    }

    /// Distance from the theoretical optimum: `achieved − MII`.
    /// `Some(0)` is optimal, `Some(1)` near-optimal (the paper's terms).
    pub fn gap_to_mii(&self) -> Option<u32> {
        self.achieved_ii.map(|ii| ii.saturating_sub(self.mii))
    }

    /// The exact verdict recorded at `ii`, if any.
    pub fn verdict_at(&self, ii: u32) -> Option<AttemptVerdict> {
        self.verdicts
            .iter()
            .find(|(v_ii, _)| *v_ii == ii)
            .map(|(_, v)| *v)
    }

    /// IIs this run *proved* infeasible
    /// ([`AttemptVerdict::InfeasibleAtII`]), in ascending order.
    pub fn proven_infeasible_iis(&self) -> Vec<u32> {
        self.verdicts
            .iter()
            .filter(|(_, v)| *v == AttemptVerdict::InfeasibleAtII)
            .map(|(ii, _)| *ii)
            .collect()
    }

    /// `true` when the achieved II carries a machine-checked optimality
    /// proof: the mapped attempt reported [`AttemptVerdict::Optimal`]
    /// (every lower II since MII was UNSAT in the same sweep).
    pub fn proven_optimal(&self) -> bool {
        match self.achieved_ii {
            Some(ii) => self.verdict_at(ii) == Some(AttemptVerdict::Optimal),
            None => false,
        }
    }

    /// The record as one JSON object (no trailing newline), elapsed time
    /// in whole microseconds:
    ///
    /// ```text
    /// {"mapper":"PF*","kernel":"fir","fabric":"4x4/r4","seed":7,"mii":3,
    ///  "achieved_ii":4,"gave_up":null,"iis_explored":2,
    ///  "remap_iterations":123,"elapsed_us":12300,"verdicts":[]}
    /// ```
    ///
    /// Verdicts are `{"ii":2,"verdict":"infeasible"}` objects; `unknown`
    /// ones also carry their `"conflicts"`. [`MapStats::from_json`] reads
    /// it back.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"mapper\":");
        json::write_str(&mut s, &self.mapper);
        s.push_str(",\"kernel\":");
        json::write_str(&mut s, &self.kernel);
        s.push_str(",\"fabric\":");
        json::write_str(&mut s, &self.fabric);
        let null_or = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
        let _ = write!(
            s,
            ",\"seed\":{},\"mii\":{},\"achieved_ii\":{},\"gave_up\":{},\"iis_explored\":{},\
             \"remap_iterations\":{},\"elapsed_us\":{},\"verdicts\":[",
            self.seed,
            self.mii,
            null_or(self.achieved_ii.map(|ii| ii.to_string())),
            null_or(self.gave_up.map(|r| format!("\"{}\"", r.label()))),
            self.iis_explored,
            self.remap_iterations,
            self.elapsed.as_micros(),
        );
        for (i, (ii, verdict)) in self.verdicts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"ii\":{ii},\"verdict\":\"{}\"", verdict.label());
            if let AttemptVerdict::Unknown { conflicts } = verdict {
                let _ = write!(s, ",\"conflicts\":{conflicts}");
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Parses one record written by [`MapStats::to_json`]. Every field is
    /// required; a number that does not fit its field is an error, never
    /// truncated.
    pub fn from_json(text: &str) -> Result<MapStats, String> {
        let obj = json::parse(text).map_err(|e| e.to_string())?;
        let verdicts = obj
            .field("verdicts")?
            .as_array()
            .ok_or("field \"verdicts\" is not an array")?
            .iter()
            .map(|v| {
                let verdict = match v.get("verdict").and_then(Json::as_str) {
                    Some("optimal") => AttemptVerdict::Optimal,
                    Some("infeasible") => AttemptVerdict::InfeasibleAtII,
                    Some("unknown") => AttemptVerdict::Unknown {
                        conflicts: v.int("conflicts")?,
                    },
                    other => return Err(format!("unknown verdict {other:?}")),
                };
                Ok((v.int("ii")?, verdict))
            })
            .collect::<Result<_, String>>()?;
        Ok(MapStats {
            mapper: obj.string("mapper")?.to_string(),
            kernel: obj.string("kernel")?.to_string(),
            fabric: obj.string("fabric")?.to_string(),
            seed: obj.int("seed")?,
            mii: obj.int("mii")?,
            achieved_ii: match obj.field("achieved_ii")? {
                Json::Null => None,
                _ => Some(obj.int("achieved_ii")?),
            },
            gave_up: match obj.field("gave_up")? {
                Json::Null => None,
                Json::Str(label) => Some(
                    GiveUpReason::from_label(label)
                        .ok_or_else(|| format!("unknown gave_up reason {label:?}"))?,
                ),
                _ => return Err("field \"gave_up\" is not a string or null".to_string()),
            },
            iis_explored: obj.int("iis_explored")?,
            remap_iterations: obj.int("remap_iterations")?,
            elapsed: Duration::from_micros(obj.int("elapsed_us")?),
            verdicts,
        })
    }
}

/// One-line human-readable summary, as `rewire-map` prints its run:
///
/// ```text
/// PF*/fir: II 4 (MII 3) on 4x4/r4 after 2 IIs, 123 iterations, 12.3 ms
/// SA/atax: failed (MII 3) on 8x8/r4 after 18 IIs, 990 iterations, 950.0 ms
/// ```
impl fmt::Display for MapStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}: ", self.mapper, self.kernel)?;
        match self.achieved_ii {
            Some(ii) => write!(f, "II {ii}")?,
            None => write!(f, "failed")?,
        }
        write!(
            f,
            " (MII {}) on {} after {} IIs, {} iterations, {:.1} ms",
            self.mii,
            self.fabric,
            self.iis_explored,
            self.remap_iterations,
            self.elapsed.as_secs_f64() * 1000.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapped() -> MapStats {
        MapStats {
            mapper: "PF*".into(),
            kernel: "fir".into(),
            fabric: "4x4/r4".into(),
            seed: 7,
            mii: 3,
            achieved_ii: Some(4),
            iis_explored: 2,
            remap_iterations: 123,
            elapsed: Duration::from_micros(12_300),
            ..MapStats::default()
        }
    }

    #[test]
    fn averages_and_gaps() {
        let s = MapStats {
            remap_iterations: 100,
            ..mapped()
        };
        assert_eq!(s.remap_iterations_per_ii(), 50.0);
        assert_eq!(s.gap_to_mii(), Some(1));
        assert!(s.success());
        assert_eq!(s.scope(), "PF*/fir@4x4/r4");
    }

    #[test]
    fn failure_has_no_gap() {
        let s = MapStats::default();
        assert!(!s.success());
        assert_eq!(s.gap_to_mii(), None);
        assert_eq!(s.remap_iterations_per_ii(), 0.0);
    }

    #[test]
    fn display_is_one_line_with_all_counters() {
        assert_eq!(
            mapped().to_string(),
            "PF*/fir: II 4 (MII 3) on 4x4/r4 after 2 IIs, 123 iterations, 12.3 ms"
        );
    }

    #[test]
    fn verdict_helpers_read_the_sweep() {
        let s = MapStats {
            mii: 2,
            achieved_ii: Some(4),
            verdicts: vec![
                (2, AttemptVerdict::InfeasibleAtII),
                (3, AttemptVerdict::InfeasibleAtII),
                (4, AttemptVerdict::Optimal),
            ],
            ..MapStats::default()
        };
        assert_eq!(s.verdict_at(3), Some(AttemptVerdict::InfeasibleAtII));
        assert_eq!(s.verdict_at(5), None);
        assert_eq!(s.proven_infeasible_iis(), vec![2, 3]);
        assert!(s.proven_optimal());

        let unknown = MapStats {
            mii: 2,
            achieved_ii: Some(3),
            verdicts: vec![
                (2, AttemptVerdict::Unknown { conflicts: 7 }),
                (3, AttemptVerdict::Optimal),
            ],
            ..MapStats::default()
        };
        // The attempt decides Optimal, not these helpers; a well-behaved
        // exact backend never labels Optimal above an Unknown, but the
        // helper just reads what was recorded.
        assert!(unknown.proven_optimal());
        assert_eq!(
            unknown.verdict_at(2),
            Some(AttemptVerdict::Unknown { conflicts: 7 })
        );
        assert!(!MapStats::default().proven_optimal());
        assert_eq!(AttemptVerdict::Optimal.label(), "optimal");
        assert_eq!(AttemptVerdict::InfeasibleAtII.label(), "infeasible");
        assert_eq!(AttemptVerdict::Unknown { conflicts: 0 }.label(), "unknown");
    }

    #[test]
    fn display_marks_failures() {
        let s = MapStats {
            mapper: "SA".into(),
            kernel: "atax".into(),
            fabric: "8x8/r4".into(),
            mii: 3,
            gave_up: Some(GiveUpReason::MaxIiReached),
            iis_explored: 18,
            remap_iterations: 990,
            elapsed: Duration::from_millis(950),
            ..MapStats::default()
        };
        assert_eq!(
            s.to_string(),
            "SA/atax: failed (MII 3) on 8x8/r4 after 18 IIs, 990 iterations, 950.0 ms"
        );
    }

    #[test]
    fn give_up_reasons_have_stable_labels() {
        assert_eq!(GiveUpReason::NoMii.label(), "no_mii");
        assert_eq!(GiveUpReason::MaxIiReached.label(), "max_ii_reached");
        assert_eq!(GiveUpReason::Refused.label(), "refused");
        for r in GiveUpReason::ALL {
            assert_eq!(GiveUpReason::from_label(r.label()), Some(r));
        }
        assert_eq!(GiveUpReason::from_label("bored"), None);
    }

    #[test]
    fn records_round_trip_through_json() {
        let exact = MapStats {
            mapper: "Exact".into(),
            kernel: "k\"\\\n".into(),
            achieved_ii: Some(5),
            seed: u64::MAX,
            verdicts: vec![
                (3, AttemptVerdict::InfeasibleAtII),
                (4, AttemptVerdict::Unknown { conflicts: 1_000 }),
                (5, AttemptVerdict::Optimal),
            ],
            ..mapped()
        };
        let mut records = vec![mapped(), exact];
        for reason in GiveUpReason::ALL {
            records.push(MapStats {
                achieved_ii: None,
                gave_up: Some(reason),
                ..mapped()
            });
        }
        for s in &records {
            let line = s.to_json();
            assert!(!line.contains('\n'), "one line: {line}");
            assert_eq!(MapStats::from_json(&line).as_ref(), Ok(s), "{line}");
        }
        assert!(records[0].to_json().contains("\"gave_up\":null"));
        assert!(records[1]
            .to_json()
            .contains("{\"ii\":4,\"verdict\":\"unknown\",\"conflicts\":1000}"));
    }

    #[test]
    fn malformed_records_are_errors_never_truncations() {
        let line = mapped().to_json();
        let bad = |from: &str, to: &str| {
            assert!(line.contains(from), "{from}");
            MapStats::from_json(&line.replace(from, to)).unwrap_err()
        };
        assert_eq!(
            bad("\"mii\":3", "\"mii\":4294967296"),
            "field \"mii\": 4294967296 does not fit u32"
        );
        assert!(bad("\"mii\":3", "\"mii\":-3").contains("does not fit"));
        assert!(bad("\"mii\":3", "\"mii\":3.5").contains("does not fit"));
        assert!(bad("\"elapsed_us\":12300", "\"elapsed_us\":1e3").contains("does not fit"));
        assert!(bad("\"achieved_ii\":4", "\"achieved_ii\":\"4\"").contains("not a number"));
        assert!(bad("\"gave_up\":null", "\"gave_up\":\"bored\"").contains("bored"));
        assert!(bad(",\"seed\":7", "").contains("seed"));
        assert!(bad("\"verdicts\":[]", "\"verdicts\":[{\"ii\":1}]").contains("verdict"));
        assert!(MapStats::from_json("{").is_err());
        assert!(MapStats::from_json("").is_err());
    }
}
