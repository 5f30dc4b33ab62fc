//! The three benchmark workloads: their inputs (derived from the
//! workload seed), their set-up, and the production entry-point call
//! each one times.

use deeppower_core::train::trace_for;
use deeppower_core::{
    evaluate, evaluate_profiled, train, train_profiled, EvalOutcome, TrainConfig, TrainedPolicy,
};
use deeppower_drl::{Ddpg, DdpgConfig};
use deeppower_fleet::{
    fleet_arrivals, run_fleet_monitored_full, run_fleet_threaded, split_arrivals, untrained_policy,
    BalancerPolicy, FleetResult, FleetSpec,
};
use deeppower_harness::{calibrated_train_seed, overload_scenarios};
use deeppower_simd_server::{LatencyStats, Request, RequestRecord, SimResult, TraceConfig};
use deeppower_telemetry::{FleetMonitor, MonitorConfig, Profiler, Recorder, SloSpec, TracePlan};
use deeppower_workload::{trace_arrivals, App, AppSpec};

/// Threads the fleet workloads use: the benchmark host has two cores.
pub const FLEET_THREADS: usize = 2;
/// Seed of the untrained fleet policy. It is part of the program under
/// test, not of its inputs, so it does not follow the workload seed.
pub const FLEET_POLICY_SEED: u64 = 7;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FleetJsq16,
    OverloadCollapse4,
    TrainXapian,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FleetJsq16,
        Workload::OverloadCollapse4,
        Workload::TrainXapian,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetJsq16 => "fleet-jsq16",
            Workload::OverloadCollapse4 => "overload-collapse4",
            Workload::TrainXapian => "train-xapian",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which family of workload seeds a run draws from. `Dev` seeds are the
/// ones a change is tuned on; `Heldout` maps the same `--seed` numbers
/// into a disjoint range, so a claim can be re-checked on inputs nobody
/// looked at while writing the change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedSet {
    Dev,
    Heldout,
}

impl SeedSet {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dev" => Some(SeedSet::Dev),
            "heldout" => Some(SeedSet::Heldout),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            SeedSet::Dev => "dev",
            SeedSet::Heldout => "heldout",
        }
    }

    /// The seed the workload generators receive.
    pub fn workload_seed(self, seed: u64) -> u64 {
        match self {
            SeedSet::Dev => seed.wrapping_add(1_000),
            SeedSet::Heldout => seed.wrapping_add(1_000_000_000),
        }
    }
}

/// Simulated lengths. `BENCH` is what the benchmark runs; tests use
/// `SMOKE` to exercise the same code paths in a fraction of the time.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub fleet_s: u64,
    pub overload_s: u64,
    pub episodes: usize,
    pub episode_s: u64,
    /// Length of each held-out evaluation.
    pub eval_s: u64,
}

impl Scale {
    pub const BENCH: Scale = Scale {
        fleet_s: 3,
        overload_s: 2,
        episodes: 2,
        episode_s: 60,
        eval_s: 20,
    };
    pub const SMOKE: Scale = Scale {
        fleet_s: 1,
        overload_s: 1,
        episodes: 2,
        episode_s: 4,
        eval_s: 4,
    };
}

/// Everything a workload's production call needs, built from the seed.
/// Built once per run, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Inputs {
    Fleet {
        spec: FleetSpec,
        policy: TrainedPolicy,
        monitor: Option<MonitorConfig>,
    },
    Train(TrainInputs),
}

/// Algorithm 2 on the calibrated seed, then the trained policy
/// evaluated on `eval_seeds`, none of which training used.
#[derive(Clone, Debug)]
pub struct TrainInputs {
    pub cfg: TrainConfig,
    pub eval_seeds: Vec<u64>,
    pub eval_s: u64,
    /// Run the `deeppower profile` path (`train_profiled` and
    /// `evaluate_profiled` with an enabled profiler).
    pub profiled: bool,
}

impl TrainInputs {
    /// An enabled profiler on the `deeppower profile` path, else a
    /// disabled one.
    pub fn profiler(&self) -> Profiler {
        if self.profiled {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        }
    }
}

/// Held-out evaluations per training run. Their pooled latencies are
/// far steadier across workload seeds than any single evaluation's: the
/// trace is rescaled to its peak, so one burst shifts a whole trace's
/// load.
pub const EVALS: u64 = 3;

pub fn inputs(w: Workload, workload_seed: u64, scale: Scale) -> Inputs {
    match w {
        Workload::FleetJsq16 => Inputs::Fleet {
            spec: FleetSpec::uniform(
                App::Masstree,
                16,
                BalancerPolicy::JoinShortestQueue,
                workload_seed,
                0.4,
                scale.fleet_s,
            ),
            policy: untrained_policy(App::Masstree, FLEET_POLICY_SEED),
            monitor: None,
        },
        Workload::OverloadCollapse4 => {
            let app = AppSpec::get(App::Masstree);
            let mut spec = FleetSpec::uniform(
                App::Masstree,
                4,
                BalancerPolicy::JoinShortestQueue,
                workload_seed,
                0.9,
                scale.overload_s,
            );
            spec.overload = overload_scenarios(workload_seed, app.sla)
                .into_iter()
                .find(|(name, _)| *name == "collapse")
                .expect("the harness defines the collapse overload plan")
                .1;
            spec.rtrace = TracePlan::sampled(0.01, 2, workload_seed);
            Inputs::Fleet {
                spec,
                policy: untrained_policy(App::Masstree, FLEET_POLICY_SEED),
                monitor: Some(MonitorConfig::with_slo(SloSpec::for_sla_ns(
                    app.name, app.sla,
                ))),
            }
        }
        Workload::TrainXapian => {
            let mut cfg = TrainConfig::for_app(App::Xapian);
            cfg.episodes = scale.episodes;
            cfg.episode_s = scale.episode_s;
            cfg.seed = calibrated_train_seed(App::Xapian);
            let eval_seeds: Vec<u64> = (0..EVALS)
                .map(|j| workload_seed.wrapping_mul(EVALS + 1).wrapping_add(j))
                .collect();
            let used = train_seeds(&cfg);
            for &s in &eval_seeds {
                assert!(
                    !used.contains(&s) && !used.contains(&eval_arrival_seed(s)),
                    "evaluation seed {s} was used in training"
                );
            }
            Inputs::Train(TrainInputs {
                cfg,
                eval_seeds,
                eval_s: scale.eval_s,
                profiled: false,
            })
        }
    }
}

/// Seeds the training loop draws from: the agent seed, then the trace
/// and arrival seed of every episode.
pub fn train_seeds(cfg: &TrainConfig) -> Vec<u64> {
    let mut seeds = vec![cfg.seed];
    for ep in 0..cfg.episodes {
        let (trace_seed, arr_seed) = episode_seeds(cfg, ep);
        seeds.extend([trace_seed, arr_seed]);
    }
    seeds
}

/// Per-episode trace seed and arrival seed, exactly as `train` derives
/// them.
pub fn episode_seeds(cfg: &TrainConfig, ep: usize) -> (u64, u64) {
    let ep_seed = cfg.seed.wrapping_add(1 + ep as u64);
    (ep_seed, ep_seed.wrapping_mul(31).wrapping_add(7))
}

/// Arrival seed of the evaluation trace, as `evaluate` derives it.
pub fn eval_arrival_seed(eval_seed: u64) -> u64 {
    eval_seed.wrapping_mul(131).wrapping_add(17)
}

pub fn agent_config(cfg: &TrainConfig) -> DdpgConfig {
    DdpgConfig {
        seed: cfg.seed,
        ..cfg.deeppower.ddpg
    }
}

/// What set-up produced: the request counts the per-request metrics
/// divide by, and the per-node split for the open-loop check.
#[derive(Clone, Debug, PartialEq)]
pub struct Setup {
    /// Client requests generated across every simulated run.
    pub generated: u64,
    /// Per-node assigned counts (fleets) or per-run arrival counts
    /// (training episodes, then the evaluations).
    pub parts: Vec<u64>,
    /// How many trailing `parts` are evaluations.
    pub evals: usize,
}

impl Setup {
    /// Requests generated for the evaluations.
    pub fn evaluated(&self) -> u64 {
        self.parts[self.parts.len() - self.evals..].iter().sum()
    }

    /// Requests generated for training episodes.
    pub fn trained(&self) -> u64 {
        self.generated - self.evaluated()
    }
}

/// Everything the workload does before its first simulated event:
/// policy / agent construction, arrival generation and balancing. The
/// generated streams are handed back so a caller timing set-up can stop
/// the clock before they are freed.
pub fn setup(inputs: &Inputs) -> (Setup, Vec<Vec<Request>>) {
    match inputs {
        Inputs::Fleet { spec, .. } => {
            let policy = untrained_policy(spec.app, FLEET_POLICY_SEED);
            std::hint::black_box(&policy);
            let arrivals = fleet_arrivals(spec);
            let streams = split_arrivals(&arrivals, &spec.capacities(), spec.balancer);
            let setup = Setup {
                generated: arrivals.len() as u64,
                parts: streams.iter().map(|s| s.len() as u64).collect(),
                evals: 0,
            };
            let mut keep = streams;
            keep.push(arrivals);
            (setup, keep)
        }
        Inputs::Train(t) => {
            let cfg = &t.cfg;
            let agent = Ddpg::new(agent_config(cfg));
            std::hint::black_box(&agent);
            let spec = AppSpec::get(cfg.app);
            let mut keep = Vec::with_capacity(cfg.episodes + t.eval_seeds.len());
            for ep in 0..cfg.episodes {
                let (trace_seed, arr_seed) = episode_seeds(cfg, ep);
                let trace = trace_for(&spec, cfg.peak_load, cfg.episode_s, trace_seed);
                keep.push(trace_arrivals(&spec, &trace, arr_seed));
            }
            for &s in &t.eval_seeds {
                let trace = trace_for(&spec, cfg.peak_load, t.eval_s, s);
                keep.push(trace_arrivals(&spec, &trace, eval_arrival_seed(s)));
            }
            let parts: Vec<u64> = keep.iter().map(|a| a.len() as u64).collect();
            let setup = Setup {
                generated: parts.iter().sum(),
                parts,
                evals: t.eval_seeds.len(),
            };
            (setup, keep)
        }
    }
}

/// The simulated result of one run, reduced to what the checks compare
/// and the metrics report. Floats are compared by bits.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub nodes: Vec<NodeOutcome>,
    /// Client requests offered (first attempts).
    pub offered: u64,
    pub completed: u64,
    pub timeouts: u64,
    pub goodput: u64,
    pub wasted: u64,
    pub shed: u64,
    pub retries: u64,
    pub energy_j: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub epochs: u64,
    /// FNV-1a over the trained actor's weight bits (training only).
    pub actor_digest: u64,
    /// Fired alerts and a digest of the full health report (monitored
    /// fleets only).
    pub alerts: u64,
    pub health_digest: u64,
    /// Request traces the monitor's flight recorder retained.
    pub flight_traces: u64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct NodeOutcome {
    pub assigned: u64,
    pub requests: u64,
    pub goodput: u64,
    pub wasted: u64,
    pub shed: u64,
    pub retries: u64,
    pub energy_j: f64,
    pub p99_ms: f64,
}

impl Outcome {
    /// Digest over every field, floats by bits.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for n in &self.nodes {
            for v in [
                n.assigned, n.requests, n.goodput, n.wasted, n.shed, n.retries,
            ] {
                h.u64(v);
            }
            h.u64(n.energy_j.to_bits());
            h.u64(n.p99_ms.to_bits());
        }
        for v in [
            self.offered,
            self.completed,
            self.timeouts,
            self.goodput,
            self.wasted,
            self.shed,
            self.retries,
            self.energy_j.to_bits(),
            self.p50_ms.to_bits(),
            self.p99_ms.to_bits(),
            self.epochs,
            self.actor_digest,
            self.alerts,
            self.health_digest,
            self.flight_traces,
        ] {
            h.u64(v);
        }
        h.finish()
    }

    /// Completions that met the SLA. A completion after its client gave
    /// up is late by construction (client deadlines exceed the SLA), so
    /// it is already among the timeouts.
    pub fn in_time(&self) -> u64 {
        self.completed - self.timeouts
    }

    /// Share of offered client requests answered within the SLA; the
    /// rest timed out, were shed or were abandoned.
    pub fn sla_met_frac(&self) -> f64 {
        self.in_time() as f64 / self.offered as f64
    }

    pub fn j_per_goodput(&self) -> f64 {
        self.energy_j / self.goodput as f64
    }

    /// Accounting identities every run must satisfy.
    pub fn check(&self, setup: &Setup, open_loop: bool) -> Result<(), String> {
        if self.goodput + self.wasted != self.completed {
            return Err(format!(
                "goodput {} + wasted {} != completions {}",
                self.goodput, self.wasted, self.completed
            ));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.goodput + n.wasted != n.requests {
                return Err(format!("node {i}: goodput + wasted != completions"));
            }
            if open_loop && n.requests != n.assigned {
                return Err(format!(
                    "node {i}: completed {} of {} assigned",
                    n.requests, n.assigned
                ));
            }
        }
        if self.in_time() > self.offered {
            return Err(format!(
                "{} in-time completions exceed {} offered requests",
                self.in_time(),
                self.offered
            ));
        }
        if self.offered == 0 || self.goodput == 0 {
            return Err("run served no requests".into());
        }
        if open_loop && self.completed != self.offered {
            return Err(format!(
                "open loop: completed {} of {} offered requests",
                self.completed, self.offered
            ));
        }
        let parts: Vec<u64> = self.nodes.iter().map(|n| n.assigned).collect();
        if !parts.is_empty() && parts != setup.parts {
            return Err("per-node assigned counts differ from set-up's split".into());
        }
        if parts.is_empty() && setup.evaluated() != self.offered {
            return Err(format!(
                "evaluations served {} of {} generated requests",
                self.offered,
                setup.evaluated()
            ));
        }
        Ok(())
    }
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / deeppower_simd_server::MILLISECOND as f64
}

pub fn fleet_outcome(res: &FleetResult) -> Outcome {
    let nodes: Vec<NodeOutcome> = res
        .per_node
        .iter()
        .map(|n| NodeOutcome {
            assigned: n.assigned,
            requests: n.requests,
            goodput: n.goodput,
            wasted: n.wasted,
            shed: n.shed,
            retries: n.retries,
            energy_j: n.energy_j,
            p99_ms: n.p99_ms,
        })
        .collect();
    Outcome {
        offered: nodes.iter().map(|n| n.assigned).sum(),
        completed: res.total_requests,
        // The result carries the rate; count × rate recovers the count.
        timeouts: (res.fleet_timeout_rate * res.total_requests as f64).round() as u64,
        goodput: res.total_goodput,
        wasted: res.total_wasted,
        shed: res.total_shed,
        retries: nodes.iter().map(|n| n.retries).sum(),
        energy_j: res.total_energy_j,
        p50_ms: res.fleet_p50_ms,
        p99_ms: res.fleet_p99_ms,
        epochs: res.drl_epochs,
        nodes,
        actor_digest: 0,
        alerts: 0,
        health_digest: 0,
        flight_traces: 0,
    }
}

/// [`fleet_outcome`] plus the monitor's alerts, health report digest
/// and retained traces.
pub fn monitored_outcome(res: &FleetResult, mon: &FleetMonitor) -> Outcome {
    let report = mon.finish();
    Outcome {
        alerts: report.alerts.len() as u64,
        health_digest: fnv_bytes(report.to_json().as_bytes()),
        flight_traces: mon.flight().all().len() as u64,
        ..fleet_outcome(res)
    }
}

/// The trained actor plus the evaluations, pooled: latency
/// percentiles over every evaluation's records, summed counts and
/// energy.
pub fn train_outcome(policy: &TrainedPolicy, evals: &[SimResult]) -> Outcome {
    let mut h = Fnv::new();
    for w in &policy.actor_weights {
        h.u64(w.to_bits() as u64);
    }
    let records: Vec<RequestRecord> = evals
        .iter()
        .flat_map(|s| s.records.iter().copied())
        .collect();
    let stats = LatencyStats::from_records(&records);
    let sum = |f: fn(&SimResult) -> u64| evals.iter().map(f).sum::<u64>();
    let mut energy_j = 0.0;
    for s in evals {
        energy_j += s.energy_j;
    }
    Outcome {
        nodes: Vec::new(),
        offered: stats.count,
        completed: stats.count,
        timeouts: stats.timeouts,
        goodput: sum(|s| s.goodput),
        wasted: sum(|s| s.wasted),
        shed: sum(|s| s.shed),
        retries: sum(|s| s.retries),
        energy_j,
        p50_ms: ms(stats.p50_ns),
        p99_ms: ms(stats.p99_ns),
        epochs: 0,
        actor_digest: h.finish(),
        alerts: 0,
        health_digest: 0,
        flight_traces: 0,
    }
}

/// What the production call leaves behind besides its outcome.
#[derive(Clone, Debug, Default)]
pub struct Extras {
    pub profile_spans: u64,
    pub profile_dropped: u64,
}

impl Extras {
    pub fn of(prof: &Profiler) -> Self {
        Self {
            profile_spans: prof.records().len() as u64,
            profile_dropped: prof.dropped_spans(),
        }
    }
}

/// The production entry-point call: the code path users run.
pub fn run_production(inputs: &Inputs) -> (Outcome, Extras) {
    match inputs {
        Inputs::Fleet {
            spec,
            policy,
            monitor: None,
        } => (
            fleet_outcome(&run_fleet_threaded(spec, policy, FLEET_THREADS)),
            Extras::default(),
        ),
        Inputs::Fleet {
            spec,
            policy,
            monitor: Some(cfg),
        } => {
            let (res, mon) = run_fleet_monitored_full(spec, policy, FLEET_THREADS, cfg.clone());
            (monitored_outcome(&res, &mon), Extras::default())
        }
        Inputs::Train(t) => {
            let prof = t.profiler();
            let policy = if t.profiled {
                train_profiled(&t.cfg, &Recorder::disabled(), &prof).0
            } else {
                train(&t.cfg).0
            };
            let evals: Vec<SimResult> = t
                .eval_seeds
                .iter()
                .map(|&seed| {
                    let ev: EvalOutcome = if t.profiled {
                        evaluate_profiled(
                            &policy,
                            t.cfg.peak_load,
                            t.eval_s,
                            seed,
                            TraceConfig::default(),
                            &Recorder::disabled(),
                            &prof,
                        )
                    } else {
                        evaluate(
                            &policy,
                            t.cfg.peak_load,
                            t.eval_s,
                            seed,
                            TraceConfig::default(),
                        )
                    };
                    ev.sim
                })
                .collect();
            (train_outcome(&policy, &evals), Extras::of(&prof))
        }
    }
}

/// FNV-1a, 64 bit: a stable digest that needs no dependency.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

pub fn fnv_bytes(b: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(b);
    h.finish()
}
