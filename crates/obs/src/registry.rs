//! The thread-sharded metrics registry.

use crate::hist::{saturating_fetch_add, HistCell, Histogram};
use crate::snapshot::Snapshot;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Metric key inside a shard: `(scope, name)`.
pub(crate) type Key = (String, String);

/// The cells behind one span path: invocation count and total nanoseconds.
#[derive(Debug, Default)]
pub(crate) struct SpanCell {
    pub(crate) count: AtomicU64,
    pub(crate) total_ns: AtomicU64,
}

/// One thread's private slice of a registry. Only the owning thread
/// inserts; the snapshot thread reads the atomic cells concurrently, which
/// is why every value is an atomic rather than a plain integer.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub(crate) counters: Mutex<BTreeMap<Key, Arc<AtomicU64>>>,
    pub(crate) hists: Mutex<BTreeMap<Key, Arc<HistCell>>>,
    pub(crate) spans: Mutex<BTreeMap<Key, Arc<SpanCell>>>,
}

/// Per-registry, per-thread bookkeeping that must not be shared across
/// threads: the current scope and the live span stack.
#[derive(Default)]
struct ThreadState {
    scope: String,
    /// Bumped on every scope change so handle caches can self-invalidate.
    epoch: u64,
    /// Full paths of the open spans, innermost last.
    span_stack: Vec<String>,
}

thread_local! {
    /// Shards of every registry this thread has recorded into, by registry id.
    static THREAD_SHARDS: RefCell<HashMap<u64, Arc<Shard>>> = RefCell::new(HashMap::new());
    /// Scope/span state per registry id.
    static THREAD_STATE: RefCell<HashMap<u64, ThreadState>> = RefCell::new(HashMap::new());
}

/// A thread-aware metrics registry.
///
/// See the [crate docs](crate) for the design. All methods are safe to call
/// from any thread; recording is lock-free after the first handle lookup on
/// a thread, and [`snapshot`](Registry::snapshot) may run concurrently with
/// recording (it observes each cell atomically).
#[derive(Debug)]
pub struct Registry {
    id: u64,
    /// Every shard ever created for this registry, including those of
    /// threads that have since exited (their counts must survive).
    shards: Mutex<Vec<Arc<Shard>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            shards: Mutex::new(Vec::new()),
        }
    }

    /// The calling thread's shard, created and registered on first use.
    fn shard(&self) -> Arc<Shard> {
        THREAD_SHARDS.with(|map| {
            map.borrow_mut()
                .entry(self.id)
                .or_insert_with(|| {
                    let shard = Arc::new(Shard::default());
                    self.shards
                        .lock()
                        .expect("registry shard list poisoned")
                        .push(shard.clone());
                    shard
                })
                .clone()
        })
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut ThreadState) -> R) -> R {
        THREAD_STATE.with(|map| f(map.borrow_mut().entry(self.id).or_default()))
    }

    /// Sets the calling thread's scope until the returned guard drops
    /// (restoring the previous scope). Scopes *replace* rather than nest:
    /// one scope identifies one run (`"<mapper>/<kernel>"` in the engine).
    pub fn scope(&self, path: impl Into<String>) -> ScopeGuard<'_> {
        let path = path.into();
        let prev = self.with_state(|s| {
            s.epoch += 1;
            std::mem::replace(&mut s.scope, path)
        });
        ScopeGuard {
            registry: self,
            prev,
        }
    }

    /// The calling thread's current scope (empty by default).
    pub fn current_scope(&self) -> String {
        self.with_state(|s| s.scope.clone())
    }

    /// Monotonic per-thread count of scope changes. A cache holding metric
    /// handles may store this value and refresh its handles whenever it
    /// changes — the pattern the router scratch uses to keep its per-call
    /// flush down to a few atomic adds.
    pub fn scope_epoch(&self) -> u64 {
        self.with_state(|s| s.epoch)
    }

    /// A counter handle under the calling thread's current scope.
    pub fn counter(&self, name: &str) -> Counter {
        let scope = self.current_scope();
        self.counter_in(&scope, name)
    }

    /// A counter handle under an explicit scope.
    pub fn counter_in(&self, scope: &str, name: &str) -> Counter {
        let shard = self.shard();
        let mut map = shard.counters.lock().expect("counter map poisoned");
        Counter(
            map.entry((scope.to_string(), name.to_string()))
                .or_default()
                .clone(),
        )
    }

    /// A histogram handle under the calling thread's current scope.
    pub fn histogram(&self, name: &str) -> Histogram {
        let scope = self.current_scope();
        self.histogram_in(&scope, name)
    }

    /// A histogram handle under an explicit scope.
    pub fn histogram_in(&self, scope: &str, name: &str) -> Histogram {
        let shard = self.shard();
        let mut map = shard.hists.lock().expect("histogram map poisoned");
        Histogram(
            map.entry((scope.to_string(), name.to_string()))
                .or_default()
                .clone(),
        )
    }

    /// Starts a span nested under the calling thread's innermost live span:
    /// `span("route")` inside `span("attempt")` records as
    /// `"attempt/route"`. Guards must drop in LIFO order (the natural
    /// behaviour of stack-scoped RAII).
    pub fn span(&self, name: &str) -> ScopedTimer<'_> {
        let path = self.with_state(|s| match s.span_stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        });
        self.start_span(path)
    }

    fn start_span(&self, path: String) -> ScopedTimer<'_> {
        self.with_state(|s| s.span_stack.push(path.clone()));
        let scope = self.current_scope();
        // Observe-only side channel: when the Chrome trace collector is on,
        // every span boundary also lands in its buffer. `traced` remembers
        // whether the `B` was actually buffered so the drop handler emits
        // the matching `E` exactly then — the balance invariant the
        // exporter relies on.
        let traced = crate::chrome().begin(&path, &scope);
        ScopedTimer {
            registry: self,
            scope,
            path,
            start: Instant::now(),
            traced,
        }
    }

    fn finish_span(&self, scope: &str, path: &str, elapsed_ns: u64) {
        self.with_state(|s| {
            let popped = s.span_stack.pop();
            debug_assert_eq!(
                popped.as_deref(),
                Some(path),
                "span guards must drop in LIFO order"
            );
        });
        let shard = self.shard();
        let cell = {
            let mut map = shard.spans.lock().expect("span map poisoned");
            map.entry((scope.to_string(), path.to_string()))
                .or_default()
                .clone()
        };
        saturating_fetch_add(&cell.count, 1);
        saturating_fetch_add(&cell.total_ns, elapsed_ns);
    }

    /// Merges every thread's shard into one deterministic [`Snapshot`].
    ///
    /// Counters, histogram buckets and span totals merge by (saturating)
    /// summation — commutative, so the result does not depend on thread
    /// scheduling or shard order. Keys come out sorted (`BTreeMap`), so
    /// [`Snapshot::to_json`] is byte-stable for a given set of values.
    pub fn snapshot(&self) -> Snapshot {
        let shards: Vec<Arc<Shard>> = self
            .shards
            .lock()
            .expect("registry shard list poisoned")
            .clone();
        let mut snap = Snapshot::default();
        for shard in shards {
            snap.absorb_shard(&shard);
        }
        snap
    }
}

/// RAII guard restoring the previous thread scope on drop.
#[must_use = "dropping the guard immediately restores the previous scope"]
pub struct ScopeGuard<'r> {
    registry: &'r Registry,
    prev: String,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.prev);
        self.registry.with_state(|s| {
            s.epoch += 1;
            s.scope = prev;
        });
    }
}

/// RAII guard timing one span; records `count += 1, total_ns += elapsed`
/// under its path on drop.
#[must_use = "dropping the timer immediately records a zero-length span"]
pub struct ScopedTimer<'r> {
    registry: &'r Registry,
    scope: String,
    path: String,
    start: Instant,
    /// Whether the Chrome trace collector buffered this span's `B` event
    /// (and therefore must receive the matching `E` on drop).
    traced: bool,
}

impl ScopedTimer<'_> {
    /// The full hierarchical path this span records under.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for ScopedTimer<'_> {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.registry.finish_span(&self.scope, &self.path, ns);
        if self.traced {
            crate::chrome().end(&self.path, &self.scope);
        }
    }
}

/// A cheap cloneable handle to one monotonic counter cell.
///
/// Additions saturate at `u64::MAX` instead of wrapping, so a snapshot can
/// never mistake an overflowed counter for a small value.
#[derive(Clone, Debug)]
pub struct Counter(pub(crate) Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (saturating).
    pub fn add(&self, n: u64) {
        saturating_fetch_add(&self.0, n);
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value of this thread-local cell (not the merged total; use
    /// [`Registry::snapshot`] for cross-thread totals).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = Registry::new();
        let c = r.counter("x");
        c.add(5);
        c.incr();
        assert_eq!(c.get(), 6);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX, "saturates instead of wrapping");
        assert_eq!(r.snapshot().scopes[""].counters["x"], u64::MAX);
    }

    #[test]
    fn scopes_partition_metrics_and_restore_on_drop() {
        let r = Registry::new();
        assert_eq!(r.current_scope(), "");
        let e0 = r.scope_epoch();
        {
            let _a = r.scope("SA/fir");
            assert_eq!(r.current_scope(), "SA/fir");
            assert_ne!(r.scope_epoch(), e0);
            r.counter("hits").add(2);
        }
        assert_eq!(r.current_scope(), "");
        r.counter("hits").add(1);
        let snap = r.snapshot();
        assert_eq!(snap.scopes["SA/fir"].counters["hits"], 2);
        assert_eq!(snap.scopes[""].counters["hits"], 1);
    }

    #[test]
    fn spans_nest_on_the_thread_stack() {
        let r = Registry::new();
        {
            let outer = r.span("run");
            assert_eq!(outer.path(), "run");
            {
                let inner = r.span("route");
                assert_eq!(inner.path(), "run/route");
            }
            let sibling = r.span("attempt");
            assert_eq!(sibling.path(), "run/attempt");
            {
                let nested = r.span("inner");
                assert_eq!(nested.path(), "run/attempt/inner");
            }
        }
        assert!(r.with_state(|s| s.span_stack.is_empty()));
        let snap = r.snapshot();
        let spans = &snap.scopes[""].spans;
        for path in ["run", "run/route", "run/attempt", "run/attempt/inner"] {
            assert_eq!(spans[path].count, 1, "{path}");
        }
    }

    #[test]
    fn snapshot_merges_thread_shards_by_sum() {
        let r = Registry::new();
        r.counter_in("s", "n").add(1);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    r.counter_in("s", "n").add(10);
                    r.histogram_in("s", "h").record(3);
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.scopes["s"].counters["n"], 41);
        let h = &snap.scopes["s"].histograms["h"];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 12);
        assert_eq!(h.min, Some(3));
        assert_eq!(h.max, Some(3));
    }
}
