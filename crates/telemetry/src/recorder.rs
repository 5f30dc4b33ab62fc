//! The recorder handle and its sinks.
//!
//! A [`Recorder`] is the single object instrumented code holds. It is
//! either *disabled* (`Recorder::disabled()`) — a `None` inside, so
//! every emission is one branch and no allocation ever happens — or
//! backed by a shared [`TelemetrySink`] for the event stream.
//!
//! Recorders are deliberately `!Send`: the harness gives every job its
//! own recorder on the worker thread that runs it and drains the events
//! into the job's per-index result slot, which is what keeps artifacts
//! byte-identical across `--threads` values.

use std::cell::RefCell;
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
/// cost of an *enabled* recorder minus any buffering work.
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

/// Cheap, cloneable telemetry handle. See the module docs.
#[derive(Clone, Default)]
pub struct Recorder {
    sink: Option<Rc<RefCell<Box<dyn TelemetrySink>>>>,
}

impl Recorder {
    /// A recorder that records nothing: every operation is one branch.
    pub fn disabled() -> Self {
        Self { sink: None }
    }

    /// An enabled recorder over a [`RingSink`] of `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        Self::with_sink(Box::new(RingSink::new(capacity)))
    }

    /// An enabled recorder over an arbitrary sink.
    pub fn with_sink(sink: Box<dyn TelemetrySink>) -> Self {
        Self {
            sink: Some(Rc::new(RefCell::new(sink))),
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Push an event into the sink. `event` is a closure so that
    /// callers pay for constructing the payload only when enabled.
    #[inline]
    pub fn emit(&self, event: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(event());
        }
    }

    /// Take every buffered event, oldest first (empty when disabled).
    pub fn drain_events(&self) -> Vec<Event> {
        match &self.sink {
            Some(sink) => sink.borrow_mut().drain(),
            None => Vec::new(),
        }
    }

    /// Events the sink discarded due to capacity.
    pub fn dropped_events(&self) -> u64 {
        match &self.sink {
            Some(sink) => sink.borrow().dropped(),
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
        assert!(r.drain_events().is_empty());
        assert_eq!(r.dropped_events(), 0);
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
    fn recorder_clones_share_one_sink() {
        let r = Recorder::ring(16);
        let r2 = r.clone(); // handles share state
        r.emit(|| ft(1));
        assert_eq!(r2.drain_events().len(), 1);
        assert!(r.drain_events().is_empty());
        assert_eq!(r.dropped_events(), 0);
    }
}
