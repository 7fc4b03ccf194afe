//! The typed event stream every engine-driven mapping run emits.
//!
//! Events describe the *shape* of a run — which IIs were tried, how each
//! attempt ended, when negotiation made progress — without exposing mapper
//! internals. Sinks ([`crate::engine::EventSink`]) decide what to do with
//! them: drop them, print progress, or append JSONL trace lines.

/// Identity of one mapping run, attached to every emitted event.
///
/// The engine constructs it from the mapper's display name, the kernel
/// name, and the run's base seed, so traces from concurrent runs (the
/// bench harness `--jobs` fan-out) stay attributable line by line.
#[derive(Clone, Copy, Debug)]
pub struct RunMeta<'a> {
    /// Mapper display name (`"Rewire"`, `"PF*"`, `"SA"`).
    pub mapper: &'a str,
    /// Kernel name.
    pub kernel: &'a str,
    /// Base RNG seed of the run ([`crate::MapLimits::seed`]).
    pub seed: u64,
}

/// Why an engine-driven run ended without a mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GiveUpReason {
    /// The DFG can never map on this fabric (MII undefined).
    NoMii,
    /// Every II up to [`crate::MapLimits::max_ii`] failed.
    MaxIiReached,
    /// The total wall-clock budget expired before `max_ii` was reached.
    TotalBudget,
    /// The mapper declined the instance outright (the exact SAT backend's
    /// size guard).
    Refused,
}

impl GiveUpReason {
    /// Stable snake_case label used in the JSONL trace.
    pub fn label(self) -> &'static str {
        match self {
            GiveUpReason::NoMii => "no_mii",
            GiveUpReason::MaxIiReached => "max_ii_reached",
            GiveUpReason::TotalBudget => "total_budget",
            GiveUpReason::Refused => "refused",
        }
    }
}

/// One event in the life of a mapping run.
///
/// The engine emits `IiStarted` / `AttemptFinished` around every II attempt
/// and exactly one terminal event (`Mapped` or `GaveUp`) per run; mappers
/// themselves emit coarse-grained `NegotiationRound` progress from inside
/// an attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapEvent {
    /// The engine is about to attempt this II.
    IiStarted {
        /// The II being attempted.
        ii: u32,
    },
    /// Progress heartbeat from inside an attempt: one negotiation /
    /// annealing / amendment round. Emitted at mapper-chosen granularity
    /// (every few dozen iterations), never per inner iteration.
    NegotiationRound {
        /// The II being attempted.
        ii: u32,
        /// Mapper-specific round counter (rip-up iterations for PF*,
        /// moves for SA, amendment restarts for Rewire).
        iteration: u64,
        /// Ill-mapped node count at this round.
        ill_nodes: usize,
        /// Total resource overuse at this round.
        overuse: u64,
    },
    /// One II attempt ended (success or failure).
    AttemptFinished {
        /// The II that was attempted.
        ii: u32,
        /// Whether a complete, valid mapping was produced.
        routed: bool,
        /// Residual resource overuse of the failed attempt (0 on success;
        /// for Rewire, the overuse of the initial mapping it amended).
        overuse: u64,
        /// Single-node remapping iterations the attempt consumed.
        iterations: u64,
        /// Wall-clock time this attempt took, in microseconds.
        elapsed_us: u128,
    },
    /// Terminal: the run produced a valid mapping.
    Mapped {
        /// The achieved II.
        ii: u32,
        /// IIs explored, including the successful one.
        iis_explored: u32,
        /// Total wall-clock time in microseconds.
        elapsed_us: u128,
    },
    /// Terminal: the run ended without a mapping.
    GaveUp {
        /// Why the run stopped.
        reason: GiveUpReason,
        /// IIs explored before giving up.
        iis_explored: u32,
        /// Total wall-clock time in microseconds.
        elapsed_us: u128,
    },
}

impl MapEvent {
    /// Stable snake_case discriminant used in the JSONL trace.
    pub fn kind(&self) -> &'static str {
        match self {
            MapEvent::IiStarted { .. } => "ii_started",
            MapEvent::NegotiationRound { .. } => "negotiation_round",
            MapEvent::AttemptFinished { .. } => "attempt_finished",
            MapEvent::Mapped { .. } => "mapped",
            MapEvent::GaveUp { .. } => "gave_up",
        }
    }

    /// Renders the event as one self-contained JSON object (no trailing
    /// newline). The workspace is fully offline, so this hand-rolls the
    /// tiny JSON subset it needs instead of pulling in serde.
    pub fn to_json(&self, meta: &RunMeta<'_>) -> String {
        let mut s = String::with_capacity(128);
        s.push('{');
        push_str_field(&mut s, "mapper", meta.mapper);
        s.push(',');
        push_str_field(&mut s, "kernel", meta.kernel);
        s.push(',');
        s.push_str(&format!("\"seed\":{}", meta.seed));
        s.push(',');
        push_str_field(&mut s, "type", self.kind());
        match self {
            MapEvent::IiStarted { ii } => s.push_str(&format!(",\"ii\":{ii}")),
            MapEvent::NegotiationRound {
                ii,
                iteration,
                ill_nodes,
                overuse,
            } => s.push_str(&format!(
                ",\"ii\":{ii},\"iteration\":{iteration},\"ill_nodes\":{ill_nodes},\"overuse\":{overuse}"
            )),
            MapEvent::AttemptFinished {
                ii,
                routed,
                overuse,
                iterations,
                elapsed_us,
            } => s.push_str(&format!(
                ",\"ii\":{ii},\"routed\":{routed},\"overuse\":{overuse},\"iterations\":{iterations},\"elapsed_us\":{elapsed_us}"
            )),
            MapEvent::Mapped {
                ii,
                iis_explored,
                elapsed_us,
            } => s.push_str(&format!(
                ",\"ii\":{ii},\"iis_explored\":{iis_explored},\"elapsed_us\":{elapsed_us}"
            )),
            MapEvent::GaveUp {
                reason,
                iis_explored,
                elapsed_us,
            } => s.push_str(&format!(
                ",\"reason\":\"{}\",\"iis_explored\":{iis_explored},\"elapsed_us\":{elapsed_us}",
                reason.label()
            )),
        }
        s.push('}');
        s
    }
}

/// Appends `"key":"escaped value"` to `s`.
fn push_str_field(s: &mut String, key: &str, value: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RunMeta<'static> {
        RunMeta {
            mapper: "PF*",
            kernel: "atax",
            seed: 7,
        }
    }

    #[test]
    fn json_lines_carry_identity_and_kind() {
        let e = MapEvent::IiStarted { ii: 3 };
        let j = e.to_json(&meta());
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"mapper\":\"PF*\""));
        assert!(j.contains("\"kernel\":\"atax\""));
        assert!(j.contains("\"seed\":7"));
        assert!(j.contains("\"type\":\"ii_started\""));
        assert!(j.contains("\"ii\":3"));
    }

    #[test]
    fn every_variant_serialises_with_its_kind() {
        let events = [
            MapEvent::IiStarted { ii: 1 },
            MapEvent::NegotiationRound {
                ii: 1,
                iteration: 50,
                ill_nodes: 4,
                overuse: 2,
            },
            MapEvent::AttemptFinished {
                ii: 1,
                routed: false,
                overuse: 3,
                iterations: 900,
                elapsed_us: 42,
            },
            MapEvent::Mapped {
                ii: 2,
                iis_explored: 2,
                elapsed_us: 1234,
            },
            MapEvent::GaveUp {
                reason: GiveUpReason::MaxIiReached,
                iis_explored: 18,
                elapsed_us: 99,
            },
        ];
        for e in &events {
            let j = e.to_json(&meta());
            assert!(j.contains(&format!("\"type\":\"{}\"", e.kind())), "{j}");
            assert_eq!(j.matches('{').count(), 1, "flat object: {j}");
            assert_eq!(j.matches('}').count(), 1, "flat object: {j}");
        }
    }

    #[test]
    fn strings_are_escaped() {
        let m = RunMeta {
            mapper: "a\"b\\c",
            kernel: "k\n",
            seed: 0,
        };
        let j = MapEvent::IiStarted { ii: 1 }.to_json(&m);
        assert!(j.contains("a\\\"b\\\\c"));
        assert!(j.contains("k\\n"));
    }

    #[test]
    fn give_up_reasons_have_stable_labels() {
        assert_eq!(GiveUpReason::NoMii.label(), "no_mii");
        assert_eq!(GiveUpReason::MaxIiReached.label(), "max_ii_reached");
        assert_eq!(GiveUpReason::TotalBudget.label(), "total_budget");
        assert_eq!(GiveUpReason::Refused.label(), "refused");
    }
}
