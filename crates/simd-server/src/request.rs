//! Requests.

use crate::clock::Nanos;
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;
use std::ops::Deref;

/// Inline feature slots per request. Every generator emits at most one
/// feature (the input-size proxy), so one slot keeps [`Request`] a
/// fixed-size `Copy` value with no heap block.
const FEATURE_SLOTS: usize = 1;

/// A request's observable features, stored inline. Reads as a `&[f32]`
/// (through `Deref`) and serializes as a plain JSON list, exactly like
/// the `Vec<f32>` it replaces. Unused slots stay `0.0`, so the derived
/// equality compares only the features present.
#[derive(Clone, Copy, Default, PartialEq)]
pub struct Features {
    len: u8,
    vals: [f32; FEATURE_SLOTS],
}

impl Features {
    /// Inline slot count: the most features a request can carry.
    pub const fn capacity(&self) -> usize {
        FEATURE_SLOTS
    }
}

impl From<f32> for Features {
    fn from(x: f32) -> Self {
        Self { len: 1, vals: [x] }
    }
}

impl Deref for Features {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.vals[..usize::from(self.len)]
    }
}

impl fmt::Debug for Features {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for Features {
    fn serialize_value(&self) -> Value {
        self[..].serialize_value()
    }
}

impl Deserialize for Features {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        let xs = Vec::<f32>::deserialize_value(value)?;
        if xs.len() > FEATURE_SLOTS {
            return Err(Error::custom(format!(
                "a request carries at most {FEATURE_SLOTS} feature(s), got {}",
                xs.len()
            )));
        }
        let mut f = Self::default();
        f.vals[..xs.len()].copy_from_slice(&xs);
        f.len = xs.len() as u8;
        Ok(f)
    }
}

/// One client request as seen by the server.
///
/// `work_ref_ns` is the request's *intrinsic* service time: the wall time it
/// would take on an otherwise-idle machine at the reference frequency.
/// Actual processing time depends on the core frequency (through
/// `freq_sensitivity`) and on contention from sibling cores — both applied
/// by the engine, never baked into the request.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Monotonically increasing id (assigned by the workload generator).
    /// Unique per *attempt*: a retry gets a fresh server id.
    pub id: u64,
    /// Stable client-visible id that survives retries: every attempt of
    /// the same logical client request carries the same `client_id`.
    pub client_id: u64,
    /// Zero-based attempt counter (0 = first submission).
    pub attempt: u32,
    /// Arrival time at the server queue (of *this* attempt).
    pub arrival: Nanos,
    /// Arrival time of the client's *first* attempt. Client-perceived
    /// latency — and SLA timeout accounting — is measured from here, not
    /// from the retry's re-submission.
    pub first_arrival: Nanos,
    /// Intrinsic service time at the reference frequency, uncontended.
    pub work_ref_ns: Nanos,
    /// Fraction of the work that scales with core frequency; the remainder
    /// is memory/IO-bound and frequency-insensitive. In `[0, 1]`.
    pub freq_sensitivity: f32,
    /// The request's latency SLA (same for all requests of an application).
    pub sla: Nanos,
    /// Observable features (e.g. input size, request type) — the inputs the
    /// service-time predictors of ReTail/Gemini are allowed to see. The
    /// true `work_ref_ns` is *not* observable.
    pub features: Features,
}

// A request moves by plain copy from generation to completion: keep it
// `Copy` and within one 64-byte cache line.
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<Request>();
    assert!(std::mem::size_of::<Request>() <= 64);
};

impl Request {
    /// When the *client* submitted this logical request: the first
    /// attempt's arrival. Falls back to `arrival` for fresh requests
    /// whose constructor left `first_arrival` unset.
    pub fn client_arrival(&self) -> Nanos {
        if self.attempt == 0 {
            self.arrival
        } else {
            self.first_arrival
        }
    }

    /// Wall-clock time this request needs on a core at `freq_mhz`, given
    /// the reference frequency and a contention inflation factor, starting
    /// from `remaining_ref_ns` of intrinsic work.
    ///
    /// `time = remaining_ref · (s · f_ref/f + (1 − s)) · inflation`
    pub fn scaled_time(
        remaining_ref_ns: f64,
        freq_sensitivity: f32,
        freq_mhz: u32,
        reference_mhz: u32,
        inflation: f64,
    ) -> f64 {
        debug_assert!(freq_mhz > 0);
        let s = freq_sensitivity as f64;
        let scale = s * reference_mhz as f64 / freq_mhz as f64 + (1.0 - s);
        remaining_ref_ns * scale * inflation
    }

    /// Inverse of [`Request::scaled_time`]: how much intrinsic work is
    /// retired by running `dt` nanoseconds at the given conditions.
    pub fn retired_work(
        dt: f64,
        freq_sensitivity: f32,
        freq_mhz: u32,
        reference_mhz: u32,
        inflation: f64,
    ) -> f64 {
        let s = freq_sensitivity as f64;
        let scale = s * reference_mhz as f64 / freq_mhz as f64 + (1.0 - s);
        dt / (scale * inflation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_read_and_serialize_like_the_vec_they_replace() {
        let empty = Features::default();
        assert!(empty.is_empty());
        assert_eq!(&empty[..], &[] as &[f32]);
        let one = Features::from(0.25);
        assert_eq!(&one[..], &[0.25]);
        assert_eq!(one.capacity(), 1);
        assert_eq!(format!("{one:?}"), format!("{:?}", vec![0.25f32]));
        for (f, v) in [(empty, vec![]), (one, vec![0.25f32])] {
            let json = serde_json::to_string(&f).unwrap();
            assert_eq!(json, serde_json::to_string(&v).unwrap());
            assert_eq!(serde_json::from_str::<Features>(&json).unwrap(), f);
        }
        let err = serde_json::from_str::<Features>("[1.0, 2.0]").unwrap_err();
        assert!(err.to_string().contains("at most 1"), "{err}");
    }

    #[test]
    fn fully_sensitive_work_scales_inversely_with_frequency() {
        // s = 1: halving the frequency doubles the time.
        let t_full = Request::scaled_time(1000.0, 1.0, 2100, 2100, 1.0);
        let t_half = Request::scaled_time(1000.0, 1.0, 1050, 2100, 1.0);
        assert!((t_full - 1000.0).abs() < 1e-9);
        assert!((t_half - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn insensitive_work_ignores_frequency() {
        let t_slow = Request::scaled_time(1000.0, 0.0, 800, 2100, 1.0);
        let t_fast = Request::scaled_time(1000.0, 0.0, 2100, 2100, 1.0);
        assert_eq!(t_slow, t_fast);
    }

    #[test]
    fn contention_inflates_linearly() {
        let base = Request::scaled_time(1000.0, 0.7, 1500, 2100, 1.0);
        let inflated = Request::scaled_time(1000.0, 0.7, 1500, 2100, 1.25);
        assert!((inflated / base - 1.25).abs() < 1e-9);
    }

    #[test]
    fn retired_work_inverts_scaled_time() {
        let remaining = 12345.0;
        let t = Request::scaled_time(remaining, 0.6, 1300, 2100, 1.1);
        let retired = Request::retired_work(t, 0.6, 1300, 2100, 1.1);
        assert!((retired - remaining).abs() < 1e-6);
    }

    #[test]
    fn partial_sensitivity_between_extremes() {
        let t_min = Request::scaled_time(1000.0, 0.0, 800, 2100, 1.0);
        let t_mid = Request::scaled_time(1000.0, 0.5, 800, 2100, 1.0);
        let t_max = Request::scaled_time(1000.0, 1.0, 800, 2100, 1.0);
        assert!(t_min < t_mid && t_mid < t_max);
        // s = 0.5 at f = f_ref/2.625 → scale = 0.5·2.625 + 0.5.
        assert!((t_mid - 1000.0 * (0.5 * 2100.0 / 800.0 + 0.5)).abs() < 1e-6);
    }
}
