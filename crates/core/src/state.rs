//! The state observer — §4.4.1.
//!
//! DeepPower represents the workload condition with an 8-dimensional
//! vector `(NumReq, QueueLen, Queue25, Queue50, Queue75, Core25, Core50,
//! Core75)`:
//!
//! * `NumReq` — requests received in the last DRL period,
//! * `QueueLen` — requests waiting in the server queue,
//! * `QueueX` — queued requests whose remaining time budget is below
//!   `SLA·X %`,
//! * `CoreX` — in-service requests whose remaining budget is below
//!   `SLA·X %`.
//!
//! Components are normalized by the caps in [`StateNorm`] and clamped to
//! `[0, 2]` so transient overload doesn't blow up actor inputs.

use crate::config::StateNorm;
use deeppower_simd_server::{Nanos, ServerView};

/// Dimensionality of the DeepPower state vector.
pub const STATE_DIM: usize = 8;

/// Stateful observer: tracks the previous cumulative-arrival counter to
/// derive `NumReq` per period.
#[derive(Clone, Copy, Debug)]
pub struct StateObserver {
    norm: StateNorm,
    prev_arrived: u64,
}

impl StateObserver {
    pub fn new(norm: StateNorm) -> Self {
        Self {
            norm,
            prev_arrived: 0,
        }
    }

    /// Reset the arrival baseline (episode boundary).
    pub fn reset(&mut self) {
        self.prev_arrived = 0;
    }

    /// Produce the normalized state vector for the current view and
    /// advance the arrival baseline.
    pub fn observe(&mut self, view: &ServerView<'_>) -> [f32; STATE_DIM] {
        let num_req = view.total_arrived.saturating_sub(self.prev_arrived);
        self.prev_arrived = view.total_arrived;

        let mut queue_x = [0u32; 3]; // <25%, <50%, <75% budget remaining
        for req in view.queue.iter() {
            let remaining = remaining_budget(view.now, req.arrival, req.sla);
            bump_buckets(&mut queue_x, remaining, req.sla);
        }

        let mut core_x = [0u32; 3];
        for core in view.cores.iter() {
            if let Some(run) = &core.running {
                let remaining = remaining_budget(view.now, run.arrival, run.sla);
                bump_buckets(&mut core_x, remaining, run.sla);
            }
        }

        let clamp = |x: f32| x.clamp(0.0, 2.0);
        [
            clamp(num_req as f32 / self.norm.num_req_cap),
            clamp(view.queue.len() as f32 / self.norm.queue_cap),
            clamp(queue_x[0] as f32 / self.norm.queue_cap),
            clamp(queue_x[1] as f32 / self.norm.queue_cap),
            clamp(queue_x[2] as f32 / self.norm.queue_cap),
            clamp(core_x[0] as f32 / self.norm.core_cap),
            clamp(core_x[1] as f32 / self.norm.core_cap),
            clamp(core_x[2] as f32 / self.norm.core_cap),
        ]
    }
}

/// Remaining latency budget of a request: `SLA − elapsed` (saturating —
/// an already-late request has zero budget and lands in every bucket).
fn remaining_budget(now: Nanos, arrival: Nanos, sla: Nanos) -> Nanos {
    sla.saturating_sub(now.saturating_sub(arrival))
}

/// Increment the `<25%`, `<50%`, `<75%` budget buckets.
fn bump_buckets(buckets: &mut [u32; 3], remaining: Nanos, sla: Nanos) {
    // Integer-exact thresholds: remaining < sla * X/100.
    if (remaining as u128) * 100 < (sla as u128) * 25 {
        buckets[0] += 1;
    }
    if (remaining as u128) * 100 < (sla as u128) * 50 {
        buckets[1] += 1;
    }
    if (remaining as u128) * 100 < (sla as u128) * 75 {
        buckets[2] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeppower_simd_server::{CoreView, Request, RunningView, MILLISECOND};
    use std::collections::VecDeque;

    fn queued(arrival: Nanos, sla: Nanos) -> Request {
        Request {
            id: 0,
            client_id: 0,
            attempt: 0,
            arrival,
            first_arrival: arrival,
            work_ref_ns: 1,
            freq_sensitivity: 1.0,
            sla,
            features: Default::default(),
        }
    }

    fn view<'a>(
        now: Nanos,
        queue: &'a VecDeque<Request>,
        cores: &'a [CoreView],
        arrived: u64,
    ) -> ServerView<'a> {
        ServerView {
            now,
            queue,
            cores,
            total_arrived: arrived,
            total_completed: 0,
            total_timeouts: 0,
            total_shed: 0,
            total_wasted: 0,
            energy_uj: 0,
        }
    }

    #[test]
    fn num_req_is_per_period_delta() {
        let norm = StateNorm {
            num_req_cap: 100.0,
            queue_cap: 10.0,
            core_cap: 4.0,
        };
        let mut obs = StateObserver::new(norm);
        let q = VecDeque::new();
        let cores: [CoreView; 0] = [];
        let s1 = obs.observe(&view(0, &q, &cores, 50));
        assert!((s1[0] - 0.5).abs() < 1e-6);
        let s2 = obs.observe(&view(0, &q, &cores, 80));
        assert!((s2[0] - 0.3).abs() < 1e-6, "delta arrivals: {}", s2[0]);
    }

    #[test]
    fn queue_buckets_follow_remaining_budget() {
        let norm = StateNorm {
            num_req_cap: 1.0,
            queue_cap: 10.0,
            core_cap: 4.0,
        };
        let mut obs = StateObserver::new(norm);
        let sla = 10 * MILLISECOND;
        let now = 8 * MILLISECOND;
        // Budgets: req A arrived at t=0 → 2 ms left (20% → in all buckets);
        // req B arrived at 4 ms → 6 ms left (60% → only <75% bucket);
        // req C arrived at 7.9 ms → 9.9 ms left (99% → no bucket).
        let q: VecDeque<Request> = [
            queued(0, sla),
            queued(4 * MILLISECOND, sla),
            queued(7_900_000, sla),
        ]
        .into_iter()
        .collect();
        let cores: [CoreView; 0] = [];
        let s = obs.observe(&view(now, &q, &cores, 0));
        assert!((s[1] - 0.3).abs() < 1e-6, "QueueLen {}", s[1]);
        assert!((s[2] - 0.1).abs() < 1e-6, "Queue25 {}", s[2]);
        assert!((s[3] - 0.1).abs() < 1e-6, "Queue50 {}", s[3]);
        assert!((s[4] - 0.2).abs() < 1e-6, "Queue75 {}", s[4]);
    }

    #[test]
    fn core_buckets_counted_separately() {
        let norm = StateNorm {
            num_req_cap: 1.0,
            queue_cap: 10.0,
            core_cap: 4.0,
        };
        let mut obs = StateObserver::new(norm);
        let sla = 10 * MILLISECOND;
        let now = 9 * MILLISECOND;
        // Running request arrived at t=0 → 1 ms budget (10 %): all buckets.
        let running = RunningView {
            arrival: 0,
            started: MILLISECOND,
            features: Default::default(),
            sla,
        };
        let cores = [
            CoreView {
                freq_mhz: 2100,
                running: Some(running),
                sleeping: None,
            },
            CoreView {
                freq_mhz: 2100,
                running: None,
                sleeping: None,
            },
        ];
        let q = VecDeque::new();
        let s = obs.observe(&view(now, &q, &cores, 0));
        assert!((s[5] - 0.25).abs() < 1e-6);
        assert!((s[6] - 0.25).abs() < 1e-6);
        assert!((s[7] - 0.25).abs() < 1e-6);
        assert_eq!(s[1], 0.0);
    }

    #[test]
    fn overdue_requests_saturate_not_underflow() {
        let norm = StateNorm::default();
        let mut obs = StateObserver::new(norm);
        let sla = MILLISECOND;
        // Arrived 5 ms ago with 1 ms SLA: budget saturates to 0.
        let q: VecDeque<Request> = [queued(0, sla)].into_iter().collect();
        let cores: [CoreView; 0] = [];
        let s = obs.observe(&view(5 * MILLISECOND, &q, &cores, 0));
        assert!(s.iter().all(|&x| x.is_finite() && x >= 0.0));
        assert!(s[2] > 0.0, "overdue request must land in the <25% bucket");
    }

    #[test]
    fn state_components_clamped() {
        let norm = StateNorm {
            num_req_cap: 1.0,
            queue_cap: 1.0,
            core_cap: 1.0,
        };
        let mut obs = StateObserver::new(norm);
        let sla = MILLISECOND;
        let q: VecDeque<Request> = (0..50).map(|_| queued(0, sla)).collect();
        let cores: [CoreView; 0] = [];
        let s = obs.observe(&view(2 * MILLISECOND, &q, &cores, 1_000_000));
        assert!(s.iter().all(|&x| x <= 2.0));
    }

    #[test]
    fn reset_restores_arrival_baseline() {
        let mut obs = StateObserver::new(StateNorm::default());
        let q = VecDeque::new();
        let cores: [CoreView; 0] = [];
        let _ = obs.observe(&view(0, &q, &cores, 500));
        obs.reset();
        let s = obs.observe(&view(0, &q, &cores, 500));
        assert!(s[0] > 0.0, "after reset the full counter counts again");
    }
}
