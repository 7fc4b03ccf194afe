//! The flight recorder: a bounded ring of structured decision events plus
//! a per-negotiation-round congestion heatmap, kept per recording scope.
//!
//! Aggregate counters answer "how much"; the flight recorder answers *what
//! the mapper was doing* when a run failed or stalled. Mappers record
//! [`FlightEvent`]s (route failures, rip-ups, evictions, congestion peaks,
//! attempt phase transitions) into one process-global bounded ring buffer;
//! when the ring is full the oldest record is dropped and a saturating
//! drop counter remembers how many were lost. Route failures and phase
//! labels are also tallied per scope outside the ring, like the heatmap,
//! so their counts cover the whole recording however much the ring
//! dropped. Everything here is observe-only: recording never feeds back
//! into mapping decisions, and the disabled fast path is a single relaxed
//! atomic load.

use crate::json;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity when [`FlightRecorder::enable`] is given 0.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 65_536;

/// Microseconds since the process-wide observability epoch (the first call
/// to this function). Shared by the flight recorder and the Chrome trace
/// collector so their timestamps line up in one timeline.
pub(crate) fn epoch_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One structured mapper decision. All payloads are plain integers and
/// `&'static str` labels so recording stays allocation-light and the crate
/// stays dependency-free; mappers translate their richer types (MRRG
/// resources, node ids) into `(pe, class, cycle)` keys before recording.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightEvent {
    /// Routing one DFG edge failed at the given II.
    RouteFailed {
        /// `(source node index, destination node index)` of the DFG edge.
        edge: (u32, u32),
        /// The II being attempted.
        ii: u32,
        /// Router failure label (see `RouteError::label`).
        reason: &'static str,
    },
    /// A placed node was ripped up during negotiated congestion.
    RipUp {
        /// Dense PE index the victim occupied.
        pe: u32,
        /// Resource class of the contested cell (`"fu"`, `"link"`, `"reg"`).
        class: &'static str,
        /// Modulo cycle of the contested cell.
        cycle: u32,
        /// Negotiation iteration the rip-up happened in.
        round: u64,
    },
    /// Occupants were evicted from a PE slot to make room for a placement.
    Eviction {
        /// Dense PE index evicted from.
        pe: u32,
        /// Modulo cycle evicted from.
        cycle: u32,
        /// Number of occupants displaced.
        victims: u32,
        /// The II being attempted.
        ii: u32,
    },
    /// The most-overused MRRG cell observed in one negotiation round.
    CongestionPeak {
        /// Dense PE index the cell belongs to (links attribute to their
        /// source PE).
        pe: u32,
        /// Resource class (`"fu"`, `"link"`, `"reg"`).
        class: &'static str,
        /// Modulo cycle of the cell.
        cycle: u32,
        /// Excess signals on the cell (`signals - 1`).
        overuse: u64,
        /// Negotiation iteration the peak was sampled in.
        round: u64,
    },
    /// An engine/mapper phase transition — the stall watchdog's heartbeat.
    AttemptPhase {
        /// Phase label (`"attempt_start"`, `"initial"`, `"gave_up"`, ...).
        phase: &'static str,
        /// The II in play (0 when no II applies).
        ii: u32,
    },
}

impl FlightEvent {
    /// Snake-case kind label used in the JSON export.
    pub fn kind(&self) -> &'static str {
        match self {
            FlightEvent::RouteFailed { .. } => "route_failed",
            FlightEvent::RipUp { .. } => "rip_up",
            FlightEvent::Eviction { .. } => "eviction",
            FlightEvent::CongestionPeak { .. } => "congestion_peak",
            FlightEvent::AttemptPhase { .. } => "attempt_phase",
        }
    }
}

/// One recorded event with its ordering and attribution envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Global sequence number (monotonic across the whole process, keeps
    /// counting even while records are dropped).
    pub seq: u64,
    /// Microseconds since the observability epoch.
    pub ts_us: u64,
    /// The recording thread's metric scope (`"<mapper>/<kernel>"`).
    pub scope: String,
    /// The decision itself.
    pub event: FlightEvent,
}

/// Accumulated congestion for one `(scope, pe, class, cycle)` heatmap cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeatCell {
    /// Sum of overuse across the rounds this cell was sampled in.
    pub overuse: u64,
    /// Largest single-round overuse seen.
    pub peak: u64,
    /// Number of negotiation rounds the cell was overused in.
    pub rounds: u64,
}

/// A heatmap cell's key: `(scope, pe, class, cycle)`.
pub type HeatKey = (String, u32, &'static str, u32);

/// A route-failure tally's key: `(scope, src, dst, reason)` of one DFG
/// edge (see [`FlightEvent::RouteFailed`]).
pub type FailKey = (String, u32, u32, &'static str);

/// A phase tally's key: `(scope, phase label)`.
pub type PhaseKey = (String, &'static str);

/// A point-in-time copy of the recorder: events in ring order, the drop
/// counter, the congestion heatmap, and the route-failure and phase
/// tallies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightLog {
    /// Events still in the ring, oldest first.
    pub events: Vec<FlightRecord>,
    /// Records evicted because the ring was full (saturating).
    pub dropped: u64,
    /// Congestion heatmap keyed by `(scope, pe, class, cycle)`, sorted.
    /// The scope keeps runs on different fabrics apart: PE 5 of a 4×4
    /// run and PE 5 of an 8×8 run are different cells.
    pub heatmap: Vec<(HeatKey, HeatCell)>,
    /// Every `route_failed` event ever recorded, counted per
    /// `(scope, src, dst, reason)`, sorted. Unlike the ring it drops
    /// nothing.
    pub route_failures: Vec<(FailKey, u64)>,
    /// Every `attempt_phase` event ever recorded, counted per
    /// `(scope, phase)`, sorted.
    pub phases: Vec<(PhaseKey, u64)>,
}

impl FlightLog {
    /// Serialises to the versioned flight-log JSON (one object; parse it
    /// back with [`crate::json::parse`]). Byte-stable for a given log.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"version\":2,\"dropped\":");
        let _ = write!(out, "{}", self.dropped);
        out.push_str(",\"events\":[");
        for (i, rec) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"ts_us\":{},\"scope\":",
                rec.seq, rec.ts_us
            );
            json::write_str(&mut out, &rec.scope);
            let _ = write!(out, ",\"kind\":\"{}\"", rec.event.kind());
            match rec.event {
                FlightEvent::RouteFailed { edge, ii, reason } => {
                    let _ = write!(
                        out,
                        ",\"src\":{},\"dst\":{},\"ii\":{},\"reason\":\"{reason}\"",
                        edge.0, edge.1, ii
                    );
                }
                FlightEvent::RipUp {
                    pe,
                    class,
                    cycle,
                    round,
                } => {
                    let _ = write!(
                        out,
                        ",\"pe\":{pe},\"class\":\"{class}\",\"cycle\":{cycle},\"round\":{round}"
                    );
                }
                FlightEvent::Eviction {
                    pe,
                    cycle,
                    victims,
                    ii,
                } => {
                    let _ = write!(
                        out,
                        ",\"pe\":{pe},\"cycle\":{cycle},\"victims\":{victims},\"ii\":{ii}"
                    );
                }
                FlightEvent::CongestionPeak {
                    pe,
                    class,
                    cycle,
                    overuse,
                    round,
                } => {
                    let _ = write!(
                        out,
                        ",\"pe\":{pe},\"class\":\"{class}\",\"cycle\":{cycle},\
                         \"overuse\":{overuse},\"round\":{round}"
                    );
                }
                FlightEvent::AttemptPhase { phase, ii } => {
                    let _ = write!(out, ",\"phase\":\"{phase}\",\"ii\":{ii}");
                }
            }
            out.push('}');
        }
        out.push_str("],\"heatmap\":[");
        for (i, ((scope, pe, class, cycle), cell)) in self.heatmap.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"scope\":");
            json::write_str(&mut out, scope);
            let _ = write!(
                out,
                ",\"pe\":{pe},\"class\":\"{class}\",\"cycle\":{cycle},\
                 \"overuse\":{},\"peak\":{},\"rounds\":{}}}",
                cell.overuse, cell.peak, cell.rounds
            );
        }
        out.push_str("],\"route_failures\":[");
        for (i, ((scope, src, dst, reason), count)) in self.route_failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"scope\":");
            json::write_str(&mut out, scope);
            let _ = write!(
                out,
                ",\"src\":{src},\"dst\":{dst},\"reason\":\"{reason}\",\"count\":{count}}}"
            );
        }
        out.push_str("],\"phases\":[");
        for (i, ((scope, phase), count)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"scope\":");
            json::write_str(&mut out, scope);
            let _ = write!(out, ",\"phase\":\"{phase}\",\"count\":{count}}}");
        }
        out.push_str("]}");
        out
    }
}

#[derive(Default)]
struct RingState {
    buf: VecDeque<FlightRecord>,
    capacity: usize,
    seq: u64,
    dropped: u64,
    heat: BTreeMap<HeatKey, HeatCell>,
    route_failures: BTreeMap<FailKey, u64>,
    phases: BTreeMap<PhaseKey, u64>,
}

/// The bounded decision-event ring buffer. One process-global instance
/// lives behind [`crate::flight`]; tests construct their own.
///
/// Disabled (the default) the recorder costs one relaxed atomic load per
/// call site. Enabled, each record takes the internal mutex briefly —
/// acceptable because recording only happens on cold mapper paths
/// (failures, rip-ups, per-round sampling), never per router expansion.
pub struct FlightRecorder {
    enabled: AtomicBool,
    state: Mutex<RingState>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A disabled recorder with the given ring capacity (0 selects
    /// [`DEFAULT_FLIGHT_CAPACITY`]).
    pub fn new(capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            state: Mutex::new(RingState {
                capacity: if capacity == 0 {
                    DEFAULT_FLIGHT_CAPACITY
                } else {
                    capacity
                },
                ..RingState::default()
            }),
        }
    }

    /// Starts recording with the given ring capacity (0 keeps the current
    /// capacity). Already-recorded state is kept.
    pub fn enable(&self, capacity: usize) {
        if capacity > 0 {
            let mut s = self.state.lock().expect("flight state poisoned");
            s.capacity = capacity;
            while s.buf.len() > capacity {
                s.buf.pop_front();
                s.dropped = s.dropped.saturating_add(1);
            }
        }
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording (state is kept and can still be snapshotted).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether the recorder is currently accepting events.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one event under an explicit scope, and counts a route
    /// failure or phase label in `scope`'s tallies. No-op while disabled.
    pub fn record_in(&self, scope: &str, event: FlightEvent) {
        if !self.is_enabled() {
            return;
        }
        let mut s = self.state.lock().expect("flight state poisoned");
        // Stamped under the lock, so ring order is timestamp order even
        // when several threads record (Chrome needs per-`tid` monotonic
        // timestamps, and every flight instant shares `tid` 0).
        let ts_us = epoch_us();
        match event {
            FlightEvent::RouteFailed { edge, reason, .. } => {
                let key = (scope.to_string(), edge.0, edge.1, reason);
                let n = s.route_failures.entry(key).or_default();
                *n = n.saturating_add(1);
            }
            FlightEvent::AttemptPhase { phase, .. } => {
                let n = s.phases.entry((scope.to_string(), phase)).or_default();
                *n = n.saturating_add(1);
            }
            _ => {}
        }
        let seq = s.seq;
        s.seq = s.seq.saturating_add(1);
        if s.buf.len() >= s.capacity {
            s.buf.pop_front();
            s.dropped = s.dropped.saturating_add(1);
        }
        s.buf.push_back(FlightRecord {
            seq,
            ts_us,
            scope: scope.to_string(),
            event,
        });
    }

    /// Records one event under the calling thread's current metric scope
    /// on the global registry. No-op while disabled.
    pub fn record(&self, event: FlightEvent) {
        if !self.is_enabled() {
            return;
        }
        let scope = crate::current_scope();
        self.record_in(&scope, event);
    }

    /// Accumulates one overused cell sample into `scope`'s congestion
    /// heatmap (called once per overused `(pe, class, cycle)` cell per
    /// negotiation round). No-op while disabled.
    pub fn heat(&self, scope: &str, pe: u32, class: &'static str, cycle: u32, overuse: u64) {
        if !self.is_enabled() || overuse == 0 {
            return;
        }
        let mut s = self.state.lock().expect("flight state poisoned");
        let cell = s
            .heat
            .entry((scope.to_string(), pe, class, cycle))
            .or_default();
        cell.overuse = cell.overuse.saturating_add(overuse);
        cell.peak = cell.peak.max(overuse);
        cell.rounds = cell.rounds.saturating_add(1);
    }

    /// A copy of the current ring contents, drop counter, heatmap and
    /// tallies. Does not clear anything; safe to call while recording
    /// continues.
    pub fn snapshot(&self) -> FlightLog {
        let s = self.state.lock().expect("flight state poisoned");
        FlightLog {
            events: s.buf.iter().cloned().collect(),
            dropped: s.dropped,
            heatmap: s.heat.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            route_failures: s
                .route_failures
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            phases: s.phases.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        }
    }

    /// Total events ever offered to the ring (survivors + dropped).
    pub fn events_emitted(&self) -> u64 {
        self.state.lock().expect("flight state poisoned").seq
    }

    /// Clears events, drop counter, sequence numbers, the heatmap and
    /// the tallies. The enabled flag and capacity are kept.
    pub fn reset(&self) {
        let mut s = self.state.lock().expect("flight state poisoned");
        s.buf.clear();
        s.seq = 0;
        s.dropped = 0;
        s.heat.clear();
        s.route_failures.clear();
        s.phases.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(i: u32) -> FlightEvent {
        FlightEvent::AttemptPhase {
            phase: "test",
            ii: i,
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = FlightRecorder::new(4);
        r.record_in("s", phase(1));
        r.heat("s", 0, "fu", 0, 3);
        assert_eq!(r.snapshot(), FlightLog::default());
        assert_eq!(r.events_emitted(), 0);
    }

    #[test]
    fn ring_wraps_oldest_first_and_counts_drops() {
        let r = FlightRecorder::new(3);
        r.enable(0);
        for i in 0..5 {
            r.record_in("s", phase(i));
        }
        let log = r.snapshot();
        assert_eq!(log.dropped, 2);
        assert_eq!(r.events_emitted(), 5);
        let iis: Vec<u32> = log
            .events
            .iter()
            .map(|e| match e.event {
                FlightEvent::AttemptPhase { ii, .. } => ii,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(iis, vec![2, 3, 4], "oldest records are evicted first");
        assert_eq!(
            log.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "sequence numbers keep counting across drops"
        );
        assert_eq!(
            log.phases,
            vec![(("s".to_string(), "test"), 5)],
            "the tallies count dropped records too"
        );
    }

    #[test]
    fn heatmap_accumulates_sum_peak_and_rounds() {
        let r = FlightRecorder::new(8);
        r.enable(0);
        r.heat("s", 3, "reg", 1, 2);
        r.heat("s", 3, "reg", 1, 5);
        r.heat("s", 0, "fu", 0, 1);
        r.heat("s", 0, "fu", 0, 0); // zero overuse is ignored
        r.heat("t", 3, "reg", 1, 9); // same cell, another scope
        let log = r.snapshot();
        assert_eq!(log.heatmap.len(), 3);
        let (key, cell) = log.heatmap[1].clone();
        assert_eq!(key, ("s".to_string(), 3, "reg", 1));
        assert_eq!(
            cell,
            HeatCell {
                overuse: 7,
                peak: 5,
                rounds: 2
            }
        );
        assert_eq!(log.heatmap[2].0 .0, "t", "scopes never share a cell");
        assert_eq!(log.heatmap[2].1.overuse, 9);
    }

    #[test]
    fn json_export_parses_and_carries_fields() {
        let r = FlightRecorder::new(8);
        r.enable(0);
        r.record_in(
            "PF*/fir",
            FlightEvent::RouteFailed {
                edge: (1, 2),
                ii: 3,
                reason: "no_path",
            },
        );
        r.heat("PF*/fir@4x4/r4", 5, "link", 2, 4);
        let json = r.snapshot().to_json();
        let root = crate::json::parse(&json).expect("flight log JSON parses");
        assert_eq!(root.get("version").and_then(|v| v.as_u64()), Some(2));
        let events = root.get("events").and_then(|v| v.as_array()).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("kind").and_then(|v| v.as_str()),
            Some("route_failed")
        );
        assert_eq!(events[0].get("src").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            events[0].get("reason").and_then(|v| v.as_str()),
            Some("no_path")
        );
        let heat = root.get("heatmap").and_then(|v| v.as_array()).unwrap();
        assert_eq!(
            heat[0].get("scope").and_then(|v| v.as_str()),
            Some("PF*/fir@4x4/r4")
        );
        assert_eq!(heat[0].get("pe").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(heat[0].get("overuse").and_then(|v| v.as_u64()), Some(4));
        let fails = root
            .get("route_failures")
            .and_then(|v| v.as_array())
            .unwrap();
        assert_eq!(fails[0].get("dst").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(fails[0].get("count").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            root.get("phases")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(0)
        );
    }

    #[test]
    fn reset_clears_but_keeps_enabled() {
        let r = FlightRecorder::new(2);
        r.enable(0);
        r.record_in("s", phase(0));
        r.record_in("s", phase(1));
        r.record_in("s", phase(2));
        r.reset();
        assert!(r.is_enabled());
        assert_eq!(r.snapshot(), FlightLog::default());
        r.record_in("s", phase(7));
        assert_eq!(r.snapshot().events[0].seq, 0, "sequence restarts");
    }
}
