//! The recorder handle and its sinks.
//!
//! A [`Recorder`] is the single object instrumented code holds. It is
//! either *disabled* (`Recorder::disabled()`) — a `None` inside, so
//! every emission is one branch and no allocation ever happens — or
//! backed by shared state holding a [`TelemetrySink`] for the event
//! stream plus named counters.
//!
//! Recorders are deliberately `!Send`: the harness gives every job its
//! own recorder on the worker thread that runs it and drains the events
//! into the job's per-index result slot, which is what keeps artifacts
//! byte-identical across `--threads` values.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::event::Event;

/// Destination for the typed event stream.
pub trait TelemetrySink {
    /// Accept one event. Sinks must not block or fail.
    fn record(&mut self, event: Event);
    /// Take every buffered event, oldest first. Sinks that forward
    /// events elsewhere may return nothing.
    fn drain(&mut self) -> Vec<Event> {
        Vec::new()
    }
    /// Events discarded due to capacity (0 for unbounded sinks).
    fn dropped(&self) -> u64 {
        0
    }
}

/// Discards every event. Used by the overhead bench to measure the
/// cost of an *enabled* recorder minus any buffering work, and as the
/// stand-in sink wherever only counters matter.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    #[inline]
    fn record(&mut self, _event: Event) {}
}

/// Preallocated ring buffer: keeps the most recent `capacity` events,
/// overwriting the oldest and counting what it dropped.
#[derive(Clone, Debug)]
pub struct RingSink {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl RingSink {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingSink capacity must be positive");
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TelemetrySink for RingSink {
    #[inline]
    fn record(&mut self, event: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> Vec<Event> {
        let head = std::mem::take(&mut self.head);
        let mut buf = std::mem::take(&mut self.buf);
        buf.rotate_left(head);
        buf
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

struct Inner {
    sink: Box<dyn TelemetrySink>,
    counters: BTreeMap<&'static str, u64>,
}

/// Cheap, cloneable telemetry handle. See the module docs.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl Recorder {
    /// A recorder that records nothing: every operation is one branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled recorder over a [`RingSink`] of `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        Self::with_sink(Box::new(RingSink::new(capacity)))
    }

    /// An enabled recorder over an arbitrary sink.
    pub fn with_sink(sink: Box<dyn TelemetrySink>) -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(Inner {
                sink,
                counters: BTreeMap::new(),
            }))),
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Push an event into the sink. `event` is a closure so that
    /// callers pay for constructing the payload only when enabled.
    #[inline]
    pub fn emit(&self, event: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().sink.record(event());
        }
    }

    /// Add `delta` to the named counter.
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            *inner.borrow_mut().counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Take every buffered event, oldest first (empty when disabled).
    pub fn drain_events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.borrow_mut().sink.drain(),
            None => Vec::new(),
        }
    }

    /// Snapshot of the counters (name order).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        match &self.inner {
            Some(inner) => inner
                .borrow()
                .counters
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Value of one counter (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            Some(inner) => inner.borrow().counters.get(name).copied().unwrap_or(0),
            None => 0,
        }
    }

    /// Events the sink discarded due to capacity.
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.borrow().sink.dropped(),
            None => 0,
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, FreqTransition};

    fn ft(t: u64) -> Event {
        Event::FreqTransition(FreqTransition {
            t,
            core: 0,
            from_mhz: 800,
            to_mhz: 2100,
        })
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.enabled());
        r.emit(|| panic!("payload must not be constructed when disabled"));
        r.add("x", 1);
        assert!(r.drain_events().is_empty());
        assert!(r.counters().is_empty());
        assert_eq!(r.counter("x"), 0);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut ring = RingSink::new(3);
        for t in 0..5 {
            ring.record(ft(t));
        }
        assert_eq!(ring.dropped(), 2);
        let events = ring.drain();
        let ts: Vec<u64> = events
            .iter()
            .map(|e| match e {
                Event::FreqTransition(f) => f.t,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn recorder_counters_gauges_histograms() {
        let r = Recorder::ring(16);
        let r2 = r.clone(); // handles share state
        r.add("steps", 2);
        r2.add("steps", 3);
        assert_eq!(r.counter("steps"), 5);
        r.emit(|| ft(1));
        assert_eq!(r2.drain_events().len(), 1);
        assert!(r.drain_events().is_empty());
        assert_eq!(r.dropped_events(), 0);
    }
}
