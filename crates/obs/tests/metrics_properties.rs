//! Property tests for the metrics primitives: histogram bucketing laws,
//! counter saturation, and snapshot merge/round-trip invariants.

use proptest::prelude::*;
use rewire_obs::{Histogram, Registry, Snapshot, NUM_BUCKETS};

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]
    #[test]
    fn bucket_of_respects_bucket_bounds(value in 0u64..=u64::MAX) {
        let i = Histogram::bucket_of(value);
        prop_assert!(i < NUM_BUCKETS);
        prop_assert!(Histogram::bucket_lo(i) <= value, "lo({i}) > {value}");
        prop_assert!(value <= Histogram::bucket_hi(i), "hi({i}) < {value}");
    }

    #[test]
    fn bucket_of_is_monotone(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Histogram::bucket_of(lo) <= Histogram::bucket_of(hi));
    }

    #[test]
    fn powers_of_two_open_new_buckets(shift in 0u32..64) {
        let v = 1u64 << shift;
        prop_assert_eq!(Histogram::bucket_of(v), shift as usize + 1);
        if v > 1 {
            prop_assert_eq!(Histogram::bucket_of(v - 1), shift as usize);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
    #[test]
    fn counters_saturate_at_max(near_max_gap in 0u64..1000, add in 0u64..=u64::MAX) {
        let r = Registry::new();
        let c = r.counter_in("p", "c");
        c.add(u64::MAX - near_max_gap);
        c.add(add);
        let expected = (u64::MAX - near_max_gap).saturating_add(add);
        prop_assert_eq!(c.get(), expected);
        prop_assert_eq!(r.snapshot().scopes["p"].counters["c"], expected);
    }

    #[test]
    fn histogram_sum_saturates_and_count_stays_exact(
        big in (u64::MAX / 2)..=u64::MAX,
        extra in 1u64..100,
    ) {
        let r = Registry::new();
        let h = r.histogram_in("p", "h");
        h.record(big);
        h.record(big);
        h.record(extra);
        prop_assert_eq!(h.count(), 3);
        prop_assert_eq!(h.sum(), big.saturating_add(big).saturating_add(extra));
        let snap = r.snapshot();
        let hs = &snap.scopes["p"].histograms["h"];
        prop_assert_eq!(hs.min, Some(extra.min(big)));
        prop_assert_eq!(hs.max, Some(big));
    }

    #[test]
    fn recorded_values_land_in_their_buckets(
        values in proptest::collection::vec(0u64..10_000, 1..40),
    ) {
        let r = Registry::new();
        let h = r.histogram_in("p", "h");
        for &v in &values {
            h.record(v);
        }
        let snap = r.snapshot();
        let hs = &snap.scopes["p"].histograms["h"];
        prop_assert_eq!(hs.count, values.len() as u64);
        prop_assert_eq!(hs.sum, values.iter().sum::<u64>());
        let total: u64 = hs.buckets.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total, values.len() as u64, "bucket counts cover every record");
        for &(i, c) in &hs.buckets {
            let expected = values
                .iter()
                .filter(|&&v| Histogram::bucket_of(v) == i)
                .count() as u64;
            prop_assert_eq!(c, expected, "bucket {i}");
        }
    }

    #[test]
    fn snapshot_json_round_trips(
        counter in 0u64..=u64::MAX,
        values in proptest::collection::vec(0u64..=u64::MAX, 0..20),
    ) {
        let r = Registry::new();
        r.counter_in("m/k", "c").add(counter);
        let h = r.histogram_in("m/k", "h");
        for &v in &values {
            h.record(v);
        }
        let snap = r.snapshot();
        let decoded = Snapshot::from_json(&snap.to_json()).expect("round trip");
        prop_assert_eq!(&decoded, &snap);
        prop_assert_eq!(decoded.to_json(), snap.to_json());
    }

    #[test]
    fn merge_is_commutative(
        a_vals in proptest::collection::vec(0u64..1_000_000, 0..20),
        b_vals in proptest::collection::vec(0u64..1_000_000, 0..20),
    ) {
        let make = |vals: &[u64]| {
            let r = Registry::new();
            for &v in vals {
                r.counter_in("s", "c").add(v);
                r.histogram_in("s", "h").record(v);
            }
            r.snapshot()
        };
        let (a, b) = (make(&a_vals), make(&b_vals));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }
}
