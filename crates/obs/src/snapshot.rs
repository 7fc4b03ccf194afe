//! Point-in-time, merge-friendly views of a [`Registry`](crate::Registry).

use crate::hist::NUM_BUCKETS;
use crate::json::{self, Json};
use crate::registry::Shard;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// A merged, deterministic view of every metric recorded in a registry,
/// grouped by scope. Serialises to/from the workspace's hand-rolled JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-scope metrics, sorted by scope name.
    pub scopes: BTreeMap<String, ScopeSnapshot>,
}

/// All metrics recorded under one scope.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScopeSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name (empty histograms are omitted).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span timers by full hierarchical path.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

/// The merged state of one log2 histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded observations (saturating).
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value, `None` when `count == 0`.
    pub min: Option<u64>,
    /// Largest recorded value, `None` when `count == 0`.
    pub max: Option<u64>,
    /// Sparse `(bucket index, count)` pairs, ascending by index; see
    /// [`Histogram::bucket_of`](crate::Histogram::bucket_of) for ranges.
    pub buckets: Vec<(usize, u64)>,
}

/// The merged state of one span timer path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Number of completed spans.
    pub count: u64,
    /// Total time across those spans, in nanoseconds (saturating).
    pub total_ns: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the log2 buckets.
    ///
    /// The quantile *rank* is `ceil(q × count)` clamped to `[1, count]`
    /// (the nearest-rank definition). The rank's bucket is located by a
    /// cumulative walk, and the value is interpolated linearly at the
    /// rank's midpoint within the bucket's `[lo, hi]` range:
    /// `lo + (hi − lo) × (rank_into_bucket − 0.5) / bucket_count`,
    /// clamped to the histogram's recorded `[min, max]` so an estimate can
    /// never leave the observed range. Returns `None` for an empty
    /// histogram or a `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            if seen + c >= rank {
                let lo = crate::Histogram::bucket_lo(i) as f64;
                let hi = crate::Histogram::bucket_hi(i) as f64;
                let into = (rank - seen) as f64; // 1-based rank inside the bucket
                let v = lo + (hi - lo) * ((into - 0.5) / c as f64);
                let min = self.min.unwrap_or(0) as f64;
                let max = self.max.unwrap_or(u64::MAX) as f64;
                return Some(v.clamp(min, max));
            }
            seen += c;
        }
        // Bucket counts can undercount `count` only if both saturated;
        // fall back to the recorded maximum.
        self.max.map(|m| m as f64)
    }

    /// Median estimate ([`HistogramSnapshot::quantile`] at 0.5).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one (saturating sums; min/max
    /// widen).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let mut dense = [0u64; NUM_BUCKETS];
        for &(i, c) in self.buckets.iter().chain(&other.buckets) {
            dense[i] = dense[i].saturating_add(c);
        }
        self.buckets = dense
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
    }
}

impl Snapshot {
    /// The (created-if-absent) scope entry for `name`.
    pub fn scope_mut(&mut self, name: &str) -> &mut ScopeSnapshot {
        self.scopes.entry(name.to_string()).or_default()
    }

    /// Folds one thread shard into this snapshot.
    pub(crate) fn absorb_shard(&mut self, shard: &Shard) {
        for ((scope, name), cell) in shard.counters.lock().expect("counter map poisoned").iter() {
            let slot = self
                .scope_mut(scope)
                .counters
                .entry(name.clone())
                .or_insert(0);
            *slot = slot.saturating_add(cell.load(Ordering::Relaxed));
        }
        for ((scope, name), cell) in shard.hists.lock().expect("histogram map poisoned").iter() {
            let count = cell.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let mut part = HistogramSnapshot {
                count,
                sum: cell.sum.load(Ordering::Relaxed),
                min: Some(cell.min.load(Ordering::Relaxed)),
                max: Some(cell.max.load(Ordering::Relaxed)),
                buckets: Vec::new(),
            };
            for (i, b) in cell.buckets.iter().enumerate() {
                let c = b.load(Ordering::Relaxed);
                if c > 0 {
                    part.buckets.push((i, c));
                }
            }
            self.scope_mut(scope)
                .histograms
                .entry(name.clone())
                .or_default()
                .merge(&part);
        }
        for ((scope, path), cell) in shard.spans.lock().expect("span map poisoned").iter() {
            let slot = self.scope_mut(scope).spans.entry(path.clone()).or_default();
            slot.count = slot
                .count
                .saturating_add(cell.count.load(Ordering::Relaxed));
            slot.total_ns = slot
                .total_ns
                .saturating_add(cell.total_ns.load(Ordering::Relaxed));
        }
    }

    /// Folds another snapshot into this one (e.g. snapshots from separate
    /// processes, merged by `rewire-doctor` across observe directories).
    pub fn merge(&mut self, other: &Snapshot) {
        for (scope, theirs) in &other.scopes {
            let ours = self.scope_mut(scope);
            for (name, v) in &theirs.counters {
                let slot = ours.counters.entry(name.clone()).or_insert(0);
                *slot = slot.saturating_add(*v);
            }
            for (name, h) in &theirs.histograms {
                ours.histograms.entry(name.clone()).or_default().merge(h);
            }
            for (path, s) in &theirs.spans {
                let slot = ours.spans.entry(path.clone()).or_default();
                slot.count = slot.count.saturating_add(s.count);
                slot.total_ns = slot.total_ns.saturating_add(s.total_ns);
            }
        }
    }

    /// Serialises the snapshot to the versioned JSON format. Keys are
    /// emitted in sorted order, so equal snapshots serialise byte-equal.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"version\":1,\"scopes\":{");
        let mut first_scope = true;
        for (scope, s) in &self.scopes {
            if !first_scope {
                out.push(',');
            }
            first_scope = false;
            json::write_str(&mut out, scope);
            out.push_str(":{\"counters\":{");
            push_u64_map(&mut out, &s.counters);
            out.push_str("},\"histograms\":{");
            let mut first = true;
            for (name, h) in &s.histograms {
                if !first {
                    out.push(',');
                }
                first = false;
                json::write_str(&mut out, name);
                out.push_str(&format!(
                    ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                    h.count,
                    h.sum,
                    h.min.unwrap_or(0),
                    h.max.unwrap_or(0)
                ));
                let mut first_bucket = true;
                for &(i, c) in &h.buckets {
                    if !first_bucket {
                        out.push(',');
                    }
                    first_bucket = false;
                    out.push_str(&format!("[{i},{c}]"));
                }
                out.push_str("]}");
            }
            out.push_str("},\"spans\":{");
            first = true;
            for (path, sp) in &s.spans {
                if !first {
                    out.push(',');
                }
                first = false;
                json::write_str(&mut out, path);
                out.push_str(&format!(
                    ":{{\"count\":{},\"total_ns\":{}}}",
                    sp.count, sp.total_ns
                ));
            }
            out.push_str("}}");
        }
        out.push_str("}}");
        out
    }

    /// Parses a snapshot previously written by [`Snapshot::to_json`].
    pub fn from_json(input: &str) -> Result<Snapshot, String> {
        let root = json::parse(input).map_err(|e| e.to_string())?;
        let version = root
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("missing snapshot version")?;
        if version != 1 {
            return Err(format!("unsupported snapshot version {version}"));
        }
        let mut snap = Snapshot::default();
        let scopes = root
            .get("scopes")
            .and_then(Json::as_object)
            .ok_or("missing scopes object")?;
        for (scope, body) in scopes {
            let entry = snap.scope_mut(scope);
            for (name, v) in section(body, "counters")? {
                let v = v.as_u64().ok_or_else(|| format!("bad counter {name}"))?;
                entry.counters.insert(name.clone(), v);
            }
            for (name, v) in section(body, "histograms")? {
                let h = parse_histogram(name, v)?;
                entry.histograms.insert(name.clone(), h);
            }
            for (path, v) in section(body, "spans")? {
                let count = v
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("bad span count in {path}"))?;
                let total_ns = v
                    .get("total_ns")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("bad span total_ns in {path}"))?;
                entry
                    .spans
                    .insert(path.clone(), SpanSnapshot { count, total_ns });
            }
        }
        Ok(snap)
    }
}

fn push_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    let mut first = true;
    for (name, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        json::write_str(out, name);
        out.push(':');
        out.push_str(&v.to_string());
    }
}

fn section<'a>(body: &'a Json, key: &str) -> Result<&'a [(String, Json)], String> {
    body.get(key)
        .and_then(Json::as_object)
        .ok_or_else(|| format!("missing {key} object"))
}

fn parse_histogram(name: &str, v: &Json) -> Result<HistogramSnapshot, String> {
    let field = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("bad histogram field {key} in {name}"))
    };
    let count = field("count")?;
    let mut h = HistogramSnapshot {
        count,
        sum: field("sum")?,
        min: (count > 0).then(|| field("min")).transpose()?,
        max: (count > 0).then(|| field("max")).transpose()?,
        buckets: Vec::new(),
    };
    let buckets = v
        .get("buckets")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing buckets array in {name}"))?;
    for pair in buckets {
        let pair = pair
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("bad bucket pair in {name}"))?;
        let i = pair[0]
            .as_u64()
            .filter(|&i| (i as usize) < NUM_BUCKETS)
            .ok_or_else(|| format!("bad bucket index in {name}"))? as usize;
        let c = pair[1]
            .as_u64()
            .ok_or_else(|| format!("bad bucket count in {name}"))?;
        h.buckets.push((i, c));
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        {
            let _s = r.scope("PF*/fir");
            r.counter("router.expansions").add(321);
            let h = r.histogram("router.route_len");
            h.record(0);
            h.record(3);
            h.record(3);
            h.record(900);
            let _t = r.span("run");
        }
        r.counter_in("SA/fir", "sa.moves").add(7);
        r.snapshot()
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample();
        let encoded = snap.to_json();
        let decoded = Snapshot::from_json(&encoded).expect("round trip");
        assert_eq!(decoded, snap);
        // Deterministic serialisation: same snapshot, same bytes.
        assert_eq!(decoded.to_json(), encoded);
    }

    #[test]
    fn histogram_snapshot_merge_widens() {
        let mut a = HistogramSnapshot {
            count: 2,
            sum: 10,
            min: Some(2),
            max: Some(8),
            buckets: vec![(2, 1), (4, 1)],
        };
        let b = HistogramSnapshot {
            count: 1,
            sum: 1,
            min: Some(1),
            max: Some(1),
            buckets: vec![(1, 1)],
        };
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 11);
        assert_eq!(a.min, Some(1));
        assert_eq!(a.max, Some(8));
        assert_eq!(a.buckets, vec![(1, 1), (2, 1), (4, 1)]);
        let mut empty = HistogramSnapshot::default();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn snapshot_merge_sums_across_processes() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.scopes["PF*/fir"].counters["router.expansions"], 642);
        assert_eq!(a.scopes["SA/fir"].counters["sa.moves"], 14);
        let h = &a.scopes["PF*/fir"].histograms["router.route_len"];
        assert_eq!(h.count, 8);
        assert_eq!(h.mean(), Some(1812.0 / 8.0));
        assert_eq!(a.scopes["PF*/fir"].spans["run"].count, 2);
    }

    /// Pins the quantile-from-log2-bucket math: nearest-rank bucket
    /// lookup, midpoint interpolation inside the bucket, and clamping to
    /// the recorded min/max.
    #[test]
    fn quantiles_from_log2_buckets() {
        // Values {1, 2, 3, 900}: buckets 1 (count 1), 2 (count 2: values
        // in [2,3]), 10 (count 1: [512,1023]).
        let h = HistogramSnapshot {
            count: 4,
            sum: 906,
            min: Some(1),
            max: Some(900),
            buckets: vec![(1, 1), (2, 2), (10, 1)],
        };
        // p50: rank = ceil(0.5·4) = 2 → bucket 2 (seen 1, into 1 of 2):
        // 2 + (3−2)·(0.5/2) = 2.25.
        assert_eq!(h.p50(), Some(2.25));
        // p90: rank = ceil(3.6) = 4 → bucket 10 (into 1 of 1): midpoint
        // 512 + 511·0.5 = 767.5, inside [min,max] so unclamped.
        assert_eq!(h.p90(), Some(767.5));
        assert_eq!(h.p99(), Some(767.5), "same rank at count 4");
        // p0 / p100 clamp to the bucket walk's extremes.
        assert_eq!(h.quantile(0.0), Some(1.0), "rank clamps to 1");
        assert_eq!(h.quantile(1.0), Some(767.5));
        // Single-value histogram: every quantile is that value (the
        // min/max clamp collapses the bucket range).
        let one = HistogramSnapshot {
            count: 3,
            sum: 15,
            min: Some(5),
            max: Some(5),
            buckets: vec![(3, 3)],
        };
        for q in [0.01, 0.5, 0.99] {
            assert_eq!(one.quantile(q), Some(5.0));
        }
        // Degenerate inputs.
        assert_eq!(HistogramSnapshot::default().p50(), None);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut snap = HistogramSnapshot::default();
        let r = Registry::new();
        let hist = r.histogram_in("s", "h");
        for v in 0..=1000u64 {
            hist.record(v * v % 7919);
        }
        snap.merge(&r.snapshot().scopes["s"].histograms["h"]);
        let mut last = f64::MIN;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = snap.quantile(q).unwrap();
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            assert!(v >= snap.min.unwrap() as f64 && v <= snap.max.unwrap() as f64);
            last = v;
        }
    }

    #[test]
    fn empty_histograms_are_omitted() {
        let r = Registry::new();
        let _h = r.histogram_in("s", "never_recorded");
        r.counter_in("s", "c").add(1);
        let snap = r.snapshot();
        assert!(snap.scopes["s"].histograms.is_empty());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(Snapshot::from_json("not json").is_err());
        assert!(Snapshot::from_json("{\"version\":2,\"scopes\":{}}").is_err());
        assert!(Snapshot::from_json("{\"scopes\":{}}").is_err());
        assert!(
            Snapshot::from_json("{\"version\":1,\"scopes\":{\"s\":{\"counters\":{}}}}").is_err()
        );
    }
}
