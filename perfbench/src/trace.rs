//! In-memory span tracer for the traced replica runs.
//!
//! Coarse calls (arrival generation, balancing, one `advance_until`,
//! one batched act) record a full span: name, start, end, parent and
//! run id. Per-event callbacks (governor ticks, telemetry sink events)
//! happen millions of times, so they are *leaves*: a count and a
//! nanosecond total per name, charged to the span that is open when
//! they fire. A span's self time is its duration minus its child spans
//! and its leaves.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
    pub run: u32,
    /// Nanoseconds of direct child spans.
    pub child_ns: u64,
    /// Nanoseconds of leaves that fired while this span was innermost.
    pub leaf_ns: u64,
}

impl SpanRecord {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns + self.leaf_ns)
    }
}

/// Per-name totals: how often a layer was entered, its inclusive time
/// and its self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct State {
    t0: Instant,
    run: u32,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    leaves: BTreeMap<&'static str, LayerTime>,
    counts: BTreeMap<&'static str, u64>,
}

/// Cheap cloneable handle; the replica hands clones to its governor and
/// sink wrappers. Single-threaded by design, like the sessions it times.
#[derive(Clone)]
pub struct Tracer(Rc<RefCell<State>>);

impl Tracer {
    pub fn new(run: u32) -> Self {
        Self(Rc::new(RefCell::new(State {
            t0: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
            leaves: BTreeMap::new(),
            counts: BTreeMap::new(),
        })))
    }

    /// Run `f` inside a span named `name`. No borrow is held while `f`
    /// runs, so `f` may open spans and fire leaves.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut s = self.0.borrow_mut();
            let start_ns = s.t0.elapsed().as_nanos() as u64;
            let rec = SpanRecord {
                name,
                start_ns,
                end_ns: 0,
                parent: s.open.last().copied(),
                run: s.run,
                child_ns: 0,
                leaf_ns: 0,
            };
            s.spans.push(rec);
            let idx = s.spans.len() - 1;
            s.open.push(idx);
            idx
        };
        let out = f();
        let mut s = self.0.borrow_mut();
        let end_ns = s.t0.elapsed().as_nanos() as u64;
        assert_eq!(s.open.pop(), Some(idx), "spans must close innermost-first");
        s.spans[idx].end_ns = end_ns;
        let dur = s.spans[idx].dur_ns();
        if let Some(p) = s.spans[idx].parent {
            s.spans[p].child_ns += dur;
        }
        out
    }

    /// Time `f` as one occurrence of leaf `name`.
    pub fn leaf<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add_leaf(name, t.elapsed().as_nanos() as u64);
        out
    }

    /// Charge `ns` to leaf `name` and to the innermost open span.
    pub fn add_leaf(&self, name: &'static str, ns: u64) {
        let mut s = self.0.borrow_mut();
        let e = s.leaves.entry(name).or_default();
        e.count += 1;
        e.total_ns += ns;
        e.self_ns += ns;
        if let Some(&top) = s.open.last() {
            s.spans[top].leaf_ns += ns;
        }
    }

    /// Bump a plain event counter.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.0.borrow_mut().counts.entry(name).or_default() += n;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.0.borrow().counts.get(name).copied().unwrap_or(0)
    }

    /// Per-layer totals over spans and leaves, by name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let s = self.0.borrow();
        let mut out = s.leaves.clone();
        for sp in &s.spans {
            let e = out.entry(sp.name).or_default();
            e.count += 1;
            e.total_ns += sp.dur_ns();
            e.self_ns += sp.self_ns();
        }
        out
    }

    pub fn layer(&self, name: &str) -> LayerTime {
        self.layers().get(name).copied().unwrap_or_default()
    }

    /// Sum of every layer's self time: the traced wall time the spans
    /// and leaves account for.
    pub fn covered_ns(&self) -> u64 {
        self.layers().values().map(|l| l.self_ns).sum()
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.0.borrow().spans.clone()
    }

    /// Write every span as one JSON object per line, then one line per
    /// leaf total.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        let s = self.0.borrow();
        for sp in &s.spans {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"run":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"self_ns":{}}}"#,
                sp.run,
                sp.name,
                sp.start_ns,
                sp.end_ns,
                parent,
                sp.self_ns()
            )?;
        }
        for (name, l) in &s.leaves {
            writeln!(
                w,
                r#"{{"run":{},"leaf":"{}","count":{},"total_ns":{}}}"#,
                s.run, name, l.count, l.total_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_leaves() {
        let tr = Tracer::new(1);
        tr.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tr.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.add_leaf("leaf", 1_000_000);
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let outer = &spans[0];
        assert_eq!(outer.child_ns, spans[1].dur_ns());
        assert_eq!(outer.leaf_ns, 1_000_000);
        assert_eq!(outer.self_ns(), outer.dur_ns() - outer.child_ns - 1_000_000);
        let layers = tr.layers();
        assert_eq!(layers["leaf"].count, 1);
        assert_eq!(
            tr.covered_ns(),
            outer.self_ns() + spans[1].self_ns() + 1_000_000
        );
        assert!(tr.covered_ns() <= outer.dur_ns());
    }
}
