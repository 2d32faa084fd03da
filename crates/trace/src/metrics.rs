//! Named counters, histograms, and span timers aggregated into a
//! [`MetricsReport`].
//!
//! Collection is gated by a single relaxed atomic
//! ([`metrics_enabled`]): when no collector is active every recording
//! call is a load-and-branch. A collector is either the process-global
//! registry ([`enable`]) or a thread-local scope ([`MetricsScope`]) —
//! the latter exists so concurrently running tests can each aggregate
//! their own run without cross-talk.

use crate::event::json_string;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Any collector active (global enabled OR ≥ 1 live thread-local
/// scope)? Kept as one atomic so the disabled fast path is one load.
static METRICS_ANY: AtomicBool = AtomicBool::new(false);
/// Whether the process-global registry is collecting.
static GLOBAL_ON: AtomicBool = AtomicBool::new(false);
/// Live thread-local scopes across all threads.
static LOCAL_SCOPES: AtomicUsize = AtomicUsize::new(0);

static GLOBAL: Mutex<Option<MetricsInner>> = Mutex::new(None);

thread_local! {
    static LOCAL: RefCell<Option<Rc<RefCell<MetricsInner>>>> = const { RefCell::new(None) };
}

fn refresh_any() {
    let any = GLOBAL_ON.load(Ordering::Relaxed) || LOCAL_SCOPES.load(Ordering::Relaxed) > 0;
    METRICS_ANY.store(any, Ordering::Relaxed);
}

/// `true` when some collector is active. The instrumentation fast
/// path: a single relaxed atomic load.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ANY.load(Ordering::Relaxed)
}

/// Turns the process-global registry on or off. Turning it on resets
/// nothing; pair with [`take_report`] to segment runs.
pub fn enable(on: bool) {
    if on {
        let mut g = GLOBAL.lock().unwrap();
        if g.is_none() {
            *g = Some(MetricsInner::default());
        }
    }
    GLOBAL_ON.store(on, Ordering::Relaxed);
    refresh_any();
}

/// Drains the process-global registry into a report (the registry
/// restarts empty; the enabled flag is unchanged).
pub fn take_report() -> MetricsReport {
    let mut g = GLOBAL.lock().unwrap();
    let inner = g.take().unwrap_or_default();
    if GLOBAL_ON.load(Ordering::Relaxed) {
        *g = Some(MetricsInner::default());
    }
    inner.into_report()
}

/// A thread-local metrics scope: while alive, this thread's recordings
/// go to the scope's private registry instead of the global one.
/// Scopes nest: an inner scope shadows the outer one until dropped,
/// at which point the outer scope resumes collecting.
pub struct MetricsScope {
    inner: Rc<RefCell<MetricsInner>>,
    prev: Option<Rc<RefCell<MetricsInner>>>,
}

impl MetricsScope {
    /// Installs a fresh scope on the current thread.
    #[allow(clippy::new_without_default)]
    pub fn new() -> MetricsScope {
        let inner = Rc::new(RefCell::new(MetricsInner::default()));
        let prev = LOCAL.with(|l| l.borrow_mut().replace(Rc::clone(&inner)));
        LOCAL_SCOPES.fetch_add(1, Ordering::Relaxed);
        refresh_any();
        MetricsScope { inner, prev }
    }

    /// Drains this scope's registry into a report.
    pub fn take_report(&self) -> MetricsReport {
        std::mem::take(&mut *self.inner.borrow_mut()).into_report()
    }
}

impl Drop for MetricsScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        LOCAL.with(|l| *l.borrow_mut() = prev);
        LOCAL_SCOPES.fetch_sub(1, Ordering::Relaxed);
        refresh_any();
    }
}

fn with_collector(f: impl FnOnce(&mut MetricsInner)) {
    let mut f = Some(f);
    let handled = LOCAL.with(|l| {
        if let Some(rc) = l.borrow().as_ref() {
            (f.take().unwrap())(&mut rc.borrow_mut());
            true
        } else {
            false
        }
    });
    if handled {
        return;
    }
    if GLOBAL_ON.load(Ordering::Relaxed) {
        if let Some(inner) = GLOBAL.lock().unwrap().as_mut() {
            (f.take().unwrap())(inner);
        }
    }
}

// The closure is only built after the enabled check, so the disabled
// path allocates nothing.

/// Adds `delta` to the named counter.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !metrics_enabled() {
        return;
    }
    with_collector(|m| *m.counters.entry(name).or_insert(0) += delta);
}

/// Records one observation into the named histogram.
#[inline]
pub fn histogram(name: &'static str, value: u64) {
    if !metrics_enabled() {
        return;
    }
    with_collector(|m| m.hists.entry(name).or_default().record(value));
}

/// Merges a pre-aggregated batch (count observations with the given
/// sum/min/max) into the named histogram. Lets hot loops aggregate in
/// plain integers and flush once per phase.
#[inline]
pub fn histogram_bulk(name: &'static str, count: u64, sum: u64, min: u64, max: u64) {
    if count == 0 || !metrics_enabled() {
        return;
    }
    with_collector(|m| m.hists.entry(name).or_default().merge(count, sum, min, max));
}

/// Adds a span duration to the named timer.
#[inline]
pub fn timer(name: &'static str, dur: Duration) {
    if !metrics_enabled() {
        return;
    }
    with_collector(|m| m.timers.entry(name).or_default().record(dur));
}

#[derive(Clone, Debug, Default)]
struct MetricsInner {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, HistAgg>,
    timers: BTreeMap<&'static str, TimerAgg>,
}

impl MetricsInner {
    fn into_report(self) -> MetricsReport {
        MetricsReport {
            counters: self.counters.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            hists: self.hists.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            timers: self.timers.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }
}

/// Aggregate of a histogram: count/sum/min/max (mean derived).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistAgg {
    /// Number of observations.
    pub count: u64,
    /// Sum over observations.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl Default for HistAgg {
    fn default() -> Self {
        HistAgg { count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl HistAgg {
    fn record(&mut self, v: u64) {
        self.merge(1, v, v, v);
    }

    fn merge(&mut self, count: u64, sum: u64, min: u64, max: u64) {
        self.count += count;
        self.sum += sum;
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Aggregate of a span timer: invocation count and total time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimerAgg {
    /// Number of completed spans.
    pub count: u64,
    /// Total duration in microseconds.
    pub total_us: u64,
}

impl TimerAgg {
    fn record(&mut self, dur: Duration) {
        self.count += 1;
        self.total_us += dur.as_micros() as u64;
    }

    /// Total time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_us as f64 / 1e6
    }
}

/// The end-of-run aggregation: every counter, histogram, and timer
/// recorded while a collector was active, plus any caller-injected
/// values (e.g. the CEGAR loop's `SolveStats`). Serializes to JSON
/// without serde.
#[derive(Clone, Debug, Default)]
pub struct MetricsReport {
    /// Named monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Named histograms.
    pub hists: BTreeMap<String, HistAgg>,
    /// Named span timers.
    pub timers: BTreeMap<String, TimerAgg>,
}

impl MetricsReport {
    /// Inserts (or overwrites) a counter — the hook for merging
    /// externally tracked statistics into the report.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// The named counter, or 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named timer's total seconds, or 0.
    pub fn timer_secs(&self, name: &str) -> f64 {
        self.timers.get(name).map(TimerAgg::total_secs).unwrap_or(0.0)
    }

    /// Merges another report into this one (counters add, histograms
    /// and timers merge).
    pub fn absorb(&mut self, other: &MetricsReport) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.hists {
            let e = self.hists.entry(k.clone()).or_default();
            if v.count > 0 {
                e.merge(v.count, v.sum, v.min, v.max);
            }
        }
        for (k, v) in &other.timers {
            let e = self.timers.entry(k.clone()).or_default();
            e.count += v.count;
            e.total_us += v.total_us;
        }
    }

    /// Serializes the report as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(k));
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(k));
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3}}}",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                h.mean()
            ));
        }
        out.push_str("},\"timers\":{");
        for (i, (k, t)) in self.timers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(k));
            out.push_str(&format!(
                ":{{\"count\":{},\"total_us\":{},\"total_s\":{:.6}}}",
                t.count,
                t.total_us,
                t.total_secs()
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_dropped() {
        // No scope on this thread, global off (other tests' scopes are
        // thread-local so they cannot capture these).
        counter("test.nobody_home", 5);
        let scope = MetricsScope::new();
        counter("test.scoped", 2);
        counter("test.scoped", 3);
        let rep = scope.take_report();
        assert_eq!(rep.counter("test.scoped"), 5);
        assert_eq!(rep.counter("test.nobody_home"), 0);
    }

    #[test]
    fn histogram_and_timer_aggregate() {
        let scope = MetricsScope::new();
        histogram("h", 4);
        histogram("h", 10);
        histogram_bulk("h", 2, 6, 1, 5);
        timer("t", Duration::from_micros(250));
        timer("t", Duration::from_micros(750));
        let rep = scope.take_report();
        let h = rep.hists["h"];
        assert_eq!((h.count, h.sum, h.min, h.max), (4, 20, 1, 10));
        let t = rep.timers["t"];
        assert_eq!((t.count, t.total_us), (2, 1000));
        assert!(crate::json::parse(&rep.to_json()).is_ok(), "{}", rep.to_json());
    }

    #[test]
    fn absorb_merges() {
        let scope = MetricsScope::new();
        counter("c", 1);
        histogram("h", 2);
        timer("t", Duration::from_micros(10));
        let a = scope.take_report();
        counter("c", 2);
        histogram("h", 8);
        let b = scope.take_report();
        let mut m = MetricsReport::default();
        m.absorb(&a);
        m.absorb(&b);
        assert_eq!(m.counter("c"), 3);
        assert_eq!(m.hists["h"].count, 2);
        assert_eq!(m.hists["h"].max, 8);
        assert_eq!(m.timers["t"].count, 1);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = MetricsScope::new();
        counter("nest.c", 1);
        {
            let inner = MetricsScope::new();
            counter("nest.c", 10);
            assert_eq!(inner.take_report().counter("nest.c"), 10);
        }
        counter("nest.c", 2);
        assert_eq!(outer.take_report().counter("nest.c"), 3);
    }

    #[test]
    fn set_counter_overrides() {
        let mut r = MetricsReport::default();
        r.set_counter("cegar.iterations", 7);
        assert_eq!(r.counter("cegar.iterations"), 7);
        assert_eq!(r.counter("missing"), 0);
    }
}
