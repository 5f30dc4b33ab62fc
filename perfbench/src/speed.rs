//! Host-speed reference for the end-to-end host times.
//!
//! The benchmark host is shared: with what its neighbours run, the
//! speed of the same single-threaded call drifts by ±20 % over seconds
//! and stays slow for minutes. Raw medians of separate runs then spread
//! by up to 30 %. So every timed call is bracketed by a fixed reference
//! workload, the call's time is divided by the mean of the reference
//! readings on either side of it, and the benchmark reports the median
//! of those ratios in seconds at a fixed host speed: the speed at which
//! one reference reading takes [`REFERENCE_S`].
//!
//! The reference depends on nothing in the repository, so no change to
//! the program under test moves it: a call that does more work reads
//! proportionally slower, whatever the host's speed at the time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// One reference reading on the baseline host (2-vCPU Intel Xeon guest
/// at 2.0 GHz): the median of 85 readings taken between production
/// calls, rounded. Normalised times are in seconds at this host's
/// speed.
pub const REFERENCE_S: f64 = 0.2;

/// The reference's memory-bound half: random updates of an 8 MiB table
/// beside a binary heap of 32 Ki entries, both past the caches.
fn memory_work() -> u64 {
    let mut heap = BinaryHeap::with_capacity(1 << 16);
    let mut table = vec![0u64; 1 << 20];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x >> 20));
        if heap.len() > 1 << 15 {
            let Reverse(v) = heap.pop().expect("the heap is not empty");
            acc += (v as f64).sqrt();
        }
        let j = (x as usize) & ((1 << 20) - 1);
        table[j] = table[j].wrapping_add(i);
    }
    acc as u64 ^ table.iter().fold(0, |a, &b| a ^ b)
}

/// The reference's cache-resident half: the same heap and table pattern
/// on 2 Ki entries and 256 KiB of floats, with more arithmetic.
fn compute_work() -> u64 {
    let mut heap = BinaryHeap::with_capacity(1 << 12);
    let mut table = vec![0.0f64; 1 << 15];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for i in 0..3_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x >> 20));
        if heap.len() > 1 << 11 {
            let Reverse(v) = heap.pop().expect("the heap is not empty");
            acc += (v as f64).ln();
        }
        let j = (x as usize) & ((1 << 15) - 1);
        table[j] = table[j] * 0.5 + (i as f64).sqrt();
    }
    acc as u64 ^ table.iter().fold(0, |a, &b| a ^ b.to_bits())
}

/// One reference reading: the geometric mean of the seconds its two
/// halves take. Slowdowns from the neighbours hit memory-bound and
/// cache-resident work differently, and the simulator does both; on
/// the baseline host the pair tracked the production calls better than
/// either half alone.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    std::hint::black_box(memory_work());
    let memory = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(compute_work());
    (memory * t.elapsed().as_secs_f64()).sqrt()
}

/// Timed calls, each between two reference readings.
pub struct Bracketed {
    /// Seconds of each call.
    pub times: Vec<f64>,
    /// Reference readings: one before the first call and one after each.
    pub refs: Vec<f64>,
}

impl Bracketed {
    /// Take the first reference reading.
    pub fn start() -> Self {
        Bracketed {
            times: Vec::new(),
            refs: vec![reference_s()],
        }
    }

    /// Time `f`, then take the reference reading that follows it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.times.push(t.elapsed().as_secs_f64());
        self.refs.push(reference_s());
        out
    }

    /// Median call time in seconds at the baseline host's speed.
    pub fn normalised_median(&self) -> f64 {
        normalised_median(&self.times, &self.refs)
    }

    /// Host speed relative to the baseline host: above 1 is faster.
    pub fn host_speed(&self) -> f64 {
        REFERENCE_S / crate::report::median(&self.refs)
    }
}

/// Median over the calls of `times[i]` over the mean of `refs[i]` and
/// `refs[i + 1]`, scaled by [`REFERENCE_S`].
pub fn normalised_median(times: &[f64], refs: &[f64]) -> f64 {
    assert_eq!(refs.len(), times.len() + 1, "a reading on either side");
    let ratios: Vec<f64> = times
        .iter()
        .zip(refs.windows(2))
        .map(|(t, r)| t / ((r[0] + r[1]) / 2.0))
        .collect();
    crate::report::median(&ratios) * REFERENCE_S
}
