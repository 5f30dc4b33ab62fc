//! The fleet driver: N node simulations advanced in lockstep
//! `LongTime` epochs, steered by one shared DeepPower policy whose
//! actions for all nodes come from a single batched forward pass.
//!
//! Each node is an independent [`Server`] session (its own cores,
//! queue, energy meter and telemetry stream); the only coupling is the
//! pre-computed balancer split of the fleet arrival stream and the
//! shared actor. At every epoch boundary the driver pauses all nodes
//! ([`Session::advance_until`]), stacks their 8-dimensional DeepPower
//! states into one `N × 8` matrix, runs one matrix–matrix inference
//! ([`Ddpg::act_batch`]) and writes each row's `(BaseFreq,
//! ScalingCoef)` into that node's thread controller. Because every
//! batched output row is bit-identical to the single-state pass (see
//! `TwoHeadActor::act_batch`), the batched fleet produces *exactly* the
//! per-node results of the naive one-node-at-a-time loop — pinned by
//! `batched_and_unbatched_fleets_agree` — while doing `1/N` of the
//! forward passes (the `fleet_scaling` bench measures the speedup).
//!
//! One lockstep loop serves every thread count and every observer: node
//! sessions are partitioned across persistent workers (the calling
//! thread is the first) with a barrier at every epoch, and the result
//! is byte-identical at any thread count. [`run_fleet_with`] is the
//! general entry point and documents the protocol;
//! [`run_fleet_threaded`], [`run_fleet_monitored_full`] and
//! [`run_fleet_reference`] are its common shapes.

use crate::balancer::{split_arrivals, BalancerPolicy, NodeCapacity};
use crate::coordinator::Coordinator;
use crate::profile::{node_profile_indices, profile_groups, NodeProfile};
use deeppower_core::{
    ControllerParams, StateObserver, ThreadController, TrainConfig, TrainedPolicy, STATE_DIM,
};
use deeppower_drl::Ddpg;
use deeppower_nn::Matrix;
use deeppower_simd_server::{
    FaultPlan, FreqCommands, Governor, LatencyStats, OverloadPlan, Request, RequestRecord,
    RunOptions, Server, ServerConfig, ServerView, Session, SimResult, MILLISECOND,
};
use deeppower_telemetry::{
    merge_gauges, FleetMonitor, MonitorConfig, MonitorSink, Profiler, Recorder, Span, TracePlan,
};
use deeppower_workload::{trace_arrivals, App, AppSpec, DiurnalConfig, DiurnalTrace};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};

/// One fleet experiment: N nodes serving a shared diurnal trace behind
/// a balancer, under one trained policy (or one per profile group; see
/// [`run_fleet_with`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetSpec {
    pub app: App,
    /// Number of server nodes. With `profiles` set this must equal the
    /// sum of profile counts (use [`FleetSpec::with_profiles`]).
    pub nodes: usize,
    pub balancer: BalancerPolicy,
    /// Master seed: the diurnal trace and request sampling derive from
    /// it deterministically.
    pub seed: u64,
    /// Peak RPS per node as a fraction of the app's capacity (the fleet
    /// trace peaks at `nodes ×` this rate).
    pub peak_load: f64,
    /// Trace duration in simulated seconds.
    pub duration_s: u64,
    /// Fault axes applied to every node. Each node draws from its own
    /// fault streams (seed offset by the node index), so a fleet under
    /// e.g. core stalls degrades node by node, not in lockstep.
    pub faults: FaultPlan,
    /// Overload plan applied to every node (bounded queue, client
    /// deadlines, retries, admission). Like faults, each node's retry
    /// RNG seed is offset by the node index so retry storms desynchronize
    /// across the fleet.
    pub overload: OverloadPlan,
    /// Hardware profiles, consecutive by node index (`[{count: 2},
    /// {count: 1}]` puts nodes 0–1 on the first profile and node 2 on
    /// the second). Empty — the historical homogeneous fleet — means
    /// `nodes ×` the app's paper-default config.
    #[serde(default)]
    pub profiles: Vec<NodeProfile>,
    /// Request-lifecycle tracing plan applied to every node. The plan's
    /// `node` field is stamped with each node's index, so one
    /// spec-level plan fans out into per-node tracers whose traces
    /// carry their origin. Default (`TracePlan::none()`) traces
    /// nothing and adds a single disabled branch per hook.
    #[serde(default)]
    pub rtrace: TracePlan,
}

impl FleetSpec {
    /// The historical homogeneous fleet: `nodes` paper-default servers,
    /// no faults, no overload plan.
    pub fn uniform(
        app: App,
        nodes: usize,
        balancer: BalancerPolicy,
        seed: u64,
        peak_load: f64,
        duration_s: u64,
    ) -> Self {
        Self {
            app,
            nodes,
            balancer,
            seed,
            peak_load,
            duration_s,
            faults: FaultPlan::none(),
            overload: OverloadPlan::none(),
            profiles: Vec::new(),
            rtrace: TracePlan::none(),
        }
    }

    /// Attach hardware profiles, recomputing `nodes` from the profile
    /// counts. An empty list or an invalid profile is an error.
    pub fn with_profiles(mut self, profiles: Vec<NodeProfile>) -> Result<Self, String> {
        if profiles.is_empty() {
            return Err("profile list cannot be empty".into());
        }
        for p in &profiles {
            p.validate()
                .map_err(|e| format!("invalid fleet profile: {e}"))?;
        }
        self.nodes = profiles.iter().map(|p| p.count).sum();
        self.profiles = profiles;
        Ok(self)
    }

    fn assert_consistent(&self) {
        assert!(self.nodes > 0, "fleet needs at least one node");
        if !self.profiles.is_empty() {
            let total: usize = self.profiles.iter().map(|p| p.count).sum();
            assert_eq!(
                total, self.nodes,
                "profile counts must sum to the node count"
            );
        }
    }

    /// What the balancer knows about each node (index order).
    pub fn capacities(&self) -> Vec<NodeCapacity> {
        if self.profiles.is_empty() {
            let cores = AppSpec::get(self.app).n_threads;
            vec![NodeCapacity::uniform(cores); self.nodes]
        } else {
            node_profile_indices(&self.profiles)
                .into_iter()
                .map(|k| self.profiles[k].capacity())
                .collect()
        }
    }

    /// Node indices grouped by profile (one all-nodes group for the
    /// homogeneous fleet) — the batching units of the [`Coordinator`].
    pub fn groups(&self) -> Vec<Vec<usize>> {
        if self.profiles.is_empty() {
            vec![(0..self.nodes).collect()]
        } else {
            profile_groups(&self.profiles)
        }
    }

    /// One engine config per profile group, aligned with
    /// [`FleetSpec::groups`].
    pub fn group_configs(&self) -> Vec<ServerConfig> {
        if self.profiles.is_empty() {
            vec![ServerConfig::paper_default(
                AppSpec::get(self.app).n_threads,
            )]
        } else {
            self.profiles.iter().map(|p| p.server_config()).collect()
        }
    }

    /// Profile-group index of every node (all zeros when homogeneous).
    fn group_of(&self) -> Vec<usize> {
        if self.profiles.is_empty() {
            vec![0; self.nodes]
        } else {
            node_profile_indices(&self.profiles)
        }
    }

    /// Display name of `node`'s hardware profile. The homogeneous fleet
    /// *is* the paper-default profile, so it reports the same name a
    /// one-profile `NodeProfile::paper_default` fleet would — keeping
    /// the two byte-identical in serialized results.
    fn profile_name(&self, node: usize) -> String {
        if self.profiles.is_empty() {
            "xeon-gold-5218r".into()
        } else {
            let k = node_profile_indices(&self.profiles)[node];
            self.profiles[k].name.clone()
        }
    }
}

/// Per-node slice of a fleet run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeSummary {
    pub node: usize,
    /// Requests routed to this node by the balancer.
    pub assigned: u64,
    /// Requests completed. Without an overload plan the simulator drops
    /// nothing, so this equals `assigned` (asserted by the conservation
    /// tests); with one, shed requests make it smaller and retries can
    /// make it larger.
    pub requests: u64,
    /// Completions whose client was still waiting.
    pub goodput: u64,
    /// Completions after the client abandoned (wasted work).
    pub wasted: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Retries injected by this node's closed-loop clients.
    pub retries: u64,
    pub energy_j: f64,
    pub avg_power_w: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub timeout_rate: f64,
    pub freq_transitions: u64,
    /// Deepest this node's queue ever got.
    pub peak_queue_depth: u64,
    /// Hardware profile name the node ran on.
    pub profile: String,
}

/// Fleet-level aggregates plus the per-node breakdown.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetResult {
    pub app: String,
    pub nodes: usize,
    pub balancer: String,
    pub seed: u64,
    pub peak_load: f64,
    pub duration_s: u64,
    /// Batched policy decisions taken (one per `LongTime` epoch).
    pub drl_epochs: u64,
    pub total_requests: u64,
    /// Fleet-wide goodput / wasted / shed totals (overload plans only;
    /// without one `total_goodput == total_requests` and the rest are 0).
    pub total_goodput: u64,
    pub total_wasted: u64,
    pub total_shed: u64,
    pub total_energy_j: f64,
    /// Sum of per-node average powers — the fleet's steady draw.
    pub total_power_w: f64,
    /// Percentiles over the *merged* latency records of all nodes.
    pub fleet_p50_ms: f64,
    pub fleet_p95_ms: f64,
    pub fleet_p99_ms: f64,
    pub fleet_timeout_rate: f64,
    /// Deepest any node's queue got — a max-merge across nodes (the
    /// gauge-policy fold; last-write merging under-reported this).
    pub fleet_peak_queue_depth: u64,
    pub per_node: Vec<NodeSummary>,
}

impl FleetResult {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FleetResult serialization cannot fail")
    }
}

/// Generate the fleet-level arrival stream: the app's diurnal trace
/// with its peak scaled to `nodes × rps_for_load(peak_load)`.
pub fn fleet_arrivals(spec: &FleetSpec) -> Vec<Request> {
    let app_spec = AppSpec::get(spec.app);
    let cfg = DiurnalConfig {
        period_s: spec.duration_s,
        ..Default::default()
    };
    let mut trace = DiurnalTrace::generate(&cfg, spec.seed);
    trace.scale_peak_to(app_spec.rps_for_load(spec.peak_load) * spec.nodes as f64);
    trace_arrivals(&app_spec, &trace, spec.seed)
}

/// A policy with freshly initialized (untrained) actor weights, for
/// exercising fleet *mechanics* — scaling benches, determinism and
/// conservation tests — without paying for training. Experiments that
/// care about policy quality train via `deeppower-core` as usual.
pub fn untrained_policy(app: App, seed: u64) -> TrainedPolicy {
    let cfg = TrainConfig::for_app(app);
    let ddpg = deeppower_drl::DdpgConfig {
        seed,
        ..cfg.deeppower.ddpg
    };
    let agent = Ddpg::new(ddpg);
    TrainedPolicy {
        app,
        actor_weights: agent.actor_snapshot(),
        critic_weights: agent.critic_snapshot(),
        ddpg,
        deeppower: cfg.deeppower,
    }
}

/// Node-side governor: Algorithm 1 whose parameters live in a shared
/// cell the fleet driver rewrites at every epoch boundary. The session
/// holds the governor `&mut`, so the driver reaches past that borrow
/// through `Rc<Cell<…>>`; cell, governor and session all live on the
/// one worker thread that owns the node.
struct SharedParamsController {
    params: Rc<Cell<ControllerParams>>,
}

impl Governor for SharedParamsController {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        ThreadController::new(self.params.get()).scale_all(view, cmds);
    }

    fn name(&self) -> &str {
        "fleet-thread-controller"
    }
}

/// Where each node's engine telemetry goes.
pub enum NodeSinks<'a> {
    /// Nowhere.
    Off,
    /// Node `i`'s events (dispatches, completions, frequency
    /// transitions, latency snapshots) land in `recs[i]`, so per-node
    /// JSONL artifacts fall out the same way single-server ones do.
    /// Recorders are single-threaded handles: the fleet must resolve to
    /// one thread.
    Recorders(&'a [Recorder]),
    /// Every node's stream — window rollups, injected faults, governor
    /// steps — feeds a [`FleetMonitor`] inline through a
    /// [`MonitorSink`]. Each worker keeps its own monitor over the
    /// nodes it owns and the driver merges them; monitor state is keyed
    /// `(window, node)`, so the merge is exact at any thread count.
    Monitor(MonitorConfig),
}

/// What watches a fleet run. None of it perturbs the simulation: the
/// fleet result is byte-identical with or without any of it.
pub struct FleetObs<'a> {
    /// Span profiler; see [`run_fleet_with`] for the fleet's spans.
    pub prof: &'a Profiler,
    pub sinks: NodeSinks<'a>,
}

impl FleetObs<'static> {
    /// No profiler, no node telemetry.
    pub fn off() -> Self {
        static OFF: Profiler = Profiler::disabled();
        Self {
            prof: &OFF,
            sinks: NodeSinks::Off,
        }
    }
}

/// Run a fleet under one shared policy on `threads` workers, without
/// telemetry. See [`run_fleet_with`].
pub fn run_fleet_threaded(spec: &FleetSpec, policy: &TrainedPolicy, threads: usize) -> FleetResult {
    let policies = vec![policy; spec.groups().len()];
    drive(spec, &policies, threads, FleetObs::off(), true).0
}

/// [`run_fleet_threaded`] with a [`FleetMonitor`] attached
/// ([`NodeSinks::Monitor`]). Hands back the merged monitor itself, so
/// callers can read its flight recorder — e.g. to dump the traces
/// behind an alert — before calling [`FleetMonitor::finish`] for the
/// [`HealthReport`](deeppower_telemetry::HealthReport).
pub fn run_fleet_monitored_full(
    spec: &FleetSpec,
    policy: &TrainedPolicy,
    threads: usize,
    cfg: MonitorConfig,
) -> (FleetResult, FleetMonitor) {
    let policies = vec![policy; spec.groups().len()];
    let obs = FleetObs {
        sinks: NodeSinks::Monitor(cfg),
        ..FleetObs::off()
    };
    let (result, monitor) = drive(spec, &policies, threads, obs, true);
    (
        result,
        monitor.expect("a monitored fleet returns its monitor"),
    )
}

/// Reference implementation: identical lockstep drive on one thread,
/// but each node's action comes from its own single-state forward
/// pass. Exists so the `fleet_scaling` bench can time batched against
/// per-node inference on the *same* workload, and so tests can assert
/// the two are result-identical. Not the path experiments use.
pub fn run_fleet_reference(spec: &FleetSpec, policy: &TrainedPolicy) -> FleetResult {
    let policies = vec![policy; spec.groups().len()];
    drive(spec, &policies, 1, FleetObs::off(), false).0
}

/// Run a fleet: `policies[g]` steers the nodes of profile group `g` in
/// [`FleetSpec::groups`] order (a homogeneous fleet has one group;
/// several give HiDVFS-style hierarchical control, and all must agree
/// on `ShortTime`/`LongTime`), on `threads` workers, watched by `obs`.
/// Returns the merged [`FleetMonitor`] when `obs` asks for one.
///
/// `threads == 0` means "every available core"; any value is clamped
/// to `[1, nodes]`. One lockstep loop serves every thread count, and
/// the result is **byte-identical at any of them**:
///
/// * Node `i` lives on worker `i % threads` for its whole lifetime
///   (sessions are `!Send`, so each is created, advanced and finished
///   on one thread; there is no work stealing). Worker 0 is the calling
///   thread, which also leads; the driver spawns `threads − 1` more, so
///   one thread spawns nothing and its barriers return at once.
/// * Each `LongTime` epoch, workers write their nodes' observed states
///   into disjoint rows of one shared `N × STATE_DIM` matrix (the first
///   epoch sees the pre-run empty state, mirroring the single-node
///   governor acting on its first tick). The leader then runs one
///   grouped batched forward pass per profile group and publishes one
///   `ControllerParams` per node, and each worker writes its nodes'
///   params and advances them to the epoch's end.
/// * Completion is a monotone counter: a worker adds each of its nodes
///   exactly once, the epoch it finishes, and every thread leaves the
///   loop at the same barrier when the count reaches N. The epoch count
///   and every per-node result are therefore independent of how nodes
///   land on workers.
///
/// Profiler spans (per-thread span stacks, so worker-side `engine.*`
/// spans never interleave across nodes): `workload.arrivals` covers
/// generating the fleet-level arrival stream and `fleet.balance` its
/// split into per-node streams, each once up front; `fleet.batch_act`
/// covers the leader's inference pass alone, once per epoch —
/// observing the nodes and writing their params run on the workers
/// outside it; `fleet.advance` is one span per worker per epoch, and
/// the node sessions' `engine.*` spans nest inside; `fleet.merge`
/// opens on the leader when the loop ends and covers finishing its
/// nodes, joining the other workers and the percentile merge.
pub fn run_fleet_with(
    spec: &FleetSpec,
    policies: &[&TrainedPolicy],
    threads: usize,
    obs: FleetObs<'_>,
) -> (FleetResult, Option<FleetMonitor>) {
    drive(spec, policies, threads, obs, true)
}

/// Every group policy must agree on the lockstep grids: the fleet runs
/// one tick/epoch cadence, whatever each group's actor weights are.
fn check_policies(spec: &FleetSpec, policies: &[&TrainedPolicy]) {
    spec.assert_consistent();
    assert_eq!(
        policies.len(),
        spec.groups().len(),
        "one policy per profile group"
    );
    let lead = policies[0];
    for p in policies {
        assert_eq!(
            p.deeppower.short_time, lead.deeppower.short_time,
            "group policies must share ShortTime (the fleet tick grid)"
        );
        assert_eq!(
            p.deeppower.long_time, lead.deeppower.long_time,
            "group policies must share LongTime (the fleet epoch grid)"
        );
    }
}

/// `0` → all available cores; otherwise clamp into `[1, nodes]`.
fn resolve_threads(threads: usize, nodes: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    t.min(nodes).max(1)
}

/// Per-node [`RunOptions`]: every node shares the fleet's tick grid
/// (and therefore its window grid) and fault axes, but draws from its
/// own fault seed stream (`seed + node`) so faults don't strike the
/// whole fleet in lockstep.
fn node_opts(base: RunOptions, spec: &FleetSpec, node: usize) -> RunOptions {
    RunOptions {
        faults: FaultPlan {
            seed: spec.faults.seed.wrapping_add(node as u64),
            ..spec.faults
        },
        overload: OverloadPlan {
            seed: spec.overload.seed.wrapping_add(node as u64),
            ..spec.overload
        },
        // Sampling stays keyed on the fleet-wide seed (a client's
        // retries land on the same node, and head sampling must pick
        // the same clients fleet-wide); only the origin tag varies.
        rtrace: TracePlan {
            node: node as u64,
            ..spec.rtrace
        },
        ..base
    }
}

/// The leader's epoch exchange: workers fill `states` rows, the
/// leader's coordinator turns them into `actions`.
struct Exchange {
    states: Matrix,
    actions: Vec<ControllerParams>,
    coordinator: Coordinator,
}

/// Everything the workers of one run share.
struct Lockstep<'a> {
    spec: &'a FleetSpec,
    policies: &'a [&'a TrainedPolicy],
    group_of: Vec<usize>,
    servers: Vec<Server>,
    streams: Vec<Vec<Request>>,
    opts: RunOptions,
    long: u64,
    threads: usize,
    /// Grouped batched inference, or one pass per node (the reference).
    batched: bool,
    prof: &'a Profiler,
    monitor: Option<MonitorConfig>,
    exchange: Mutex<Exchange>,
    barrier: Barrier,
    /// Nodes finished so far (monotone; see [`run_fleet_with`]).
    done: AtomicUsize,
    results: Vec<OnceLock<SimResult>>,
    monitors: Vec<OnceLock<FleetMonitor>>,
}

/// The one lockstep driver behind every entry point; see
/// [`run_fleet_with`] for the protocol.
fn drive(
    spec: &FleetSpec,
    policies: &[&TrainedPolicy],
    threads: usize,
    obs: FleetObs<'_>,
    batched: bool,
) -> (FleetResult, Option<FleetMonitor>) {
    check_policies(spec, policies);
    let n = spec.nodes;
    let threads = resolve_threads(threads, n);
    let (recs, monitor) = match obs.sinks {
        NodeSinks::Off => (None, None),
        NodeSinks::Recorders(recs) => {
            assert_eq!(recs.len(), n, "one recorder per node");
            assert_eq!(threads, 1, "per-node recorders need a one-thread fleet");
            (Some(recs), None)
        }
        NodeSinks::Monitor(cfg) => (None, Some(cfg)),
    };
    let prof = obs.prof;
    let servers: Vec<Server> = spec.group_configs().into_iter().map(Server::new).collect();
    let sp = prof.span("workload.arrivals");
    let arrivals = fleet_arrivals(spec);
    drop(sp);
    let sp = prof.span("fleet.balance");
    let streams = split_arrivals(&arrivals, &spec.capacities(), spec.balancer);
    drop(sp);
    // The per-node streams own copies of every request from here on.
    drop(arrivals);

    let lead = policies[0];
    let ls = Lockstep {
        spec,
        policies,
        group_of: spec.group_of(),
        servers,
        streams,
        opts: RunOptions {
            tick_ns: lead.deeppower.short_time,
            ..Default::default()
        },
        long: lead.deeppower.long_time.max(1),
        threads,
        batched,
        prof,
        monitor,
        exchange: Mutex::new(Exchange {
            states: Matrix::zeros(n, STATE_DIM),
            actions: vec![ControllerParams::default(); n],
            coordinator: Coordinator::new(spec.groups(), policies),
        }),
        barrier: Barrier::new(threads),
        done: AtomicUsize::new(0),
        results: (0..n).map(|_| OnceLock::new()).collect(),
        monitors: (0..threads).map(|_| OnceLock::new()).collect(),
    };
    let (epochs, _merge) = std::thread::scope(|scope| {
        for w in 1..threads {
            let ls = &ls;
            scope.spawn(move || {
                ls.run_worker(w, None);
            });
        }
        ls.run_worker(0, recs)
    });

    let results = ls
        .results
        .into_iter()
        .map(|s| s.into_inner().expect("every node produces a result"))
        .collect();
    let monitor = ls.monitor.map(|cfg| {
        let mut fleet_mon = FleetMonitor::new(cfg);
        for slot in ls.monitors {
            fleet_mon.merge(
                slot.into_inner()
                    .expect("every worker publishes its monitor"),
            );
        }
        fleet_mon
    });
    (assemble(spec, epochs, &ls.streams, results), monitor)
}

impl Lockstep<'_> {
    /// Worker `w`'s share of the run: build its nodes' sessions, drive
    /// them through the lockstep loop (leading it if `w == 0`), finish
    /// them and publish the results. `recs` are the caller's per-node
    /// recorders ([`NodeSinks::Recorders`]; one worker only). Returns
    /// the epoch count and, on the leader, the open `fleet.merge` span.
    fn run_worker(&self, w: usize, recs: Option<&[Recorder]>) -> (u64, Option<Span>) {
        let n = self.spec.nodes;
        let owned: Vec<usize> = (w..n).step_by(self.threads).collect();
        let monitor = self
            .monitor
            .as_ref()
            .map(|cfg| Rc::new(RefCell::new(FleetMonitor::new(cfg.clone()))));
        // Clones of the caller's recorders share their sinks.
        let recs: Vec<Recorder> = match (&monitor, recs) {
            (Some(m), _) => owned
                .iter()
                .map(|&i| Recorder::with_sink(Box::new(MonitorSink::new(Rc::clone(m), i as u64))))
                .collect(),
            (None, Some(recs)) => recs.to_vec(),
            (None, None) => vec![Recorder::disabled(); owned.len()],
        };
        let cells: Vec<Rc<Cell<ControllerParams>>> = owned.iter().map(|_| Rc::default()).collect();
        let mut govs: Vec<SharedParamsController> = cells
            .iter()
            .map(|c| SharedParamsController {
                params: Rc::clone(c),
            })
            .collect();
        let mut sessions: Vec<Session<'_>> = govs
            .iter_mut()
            .zip(&owned)
            .zip(&recs)
            .map(|((gov, &i), rec)| {
                self.servers[self.group_of[i]]
                    .session(
                        &self.streams[i],
                        gov as &mut dyn Governor,
                        node_opts(self.opts, self.spec, i),
                        rec,
                    )
                    .with_profiler(self.prof)
            })
            .collect();
        let mut observers: Vec<StateObserver> = owned
            .iter()
            .map(|&i| StateObserver::new(self.policies[self.group_of[i]].deeppower.state_norm))
            .collect();

        // Three barriers per epoch: A after the state rows are written,
        // B after the leader published the actions, C after every
        // node's completion is counted.
        let mut finished = vec![false; owned.len()];
        let mut epochs = 0u64;
        loop {
            {
                let mut ex = self.exchange.lock().expect("fleet exchange lock");
                for ((session, observer), &i) in sessions.iter().zip(&mut observers).zip(&owned) {
                    let s = session.with_view(|v| observer.observe(v));
                    ex.states.set_row(i, &s);
                }
            }
            self.barrier.wait(); // A
            if w == 0 {
                // The coordinator reuses its per-group out/scratch
                // buffers, so the steady-state loop never allocates.
                let _sp = self.prof.span("fleet.batch_act");
                let ex = &mut *self.exchange.lock().expect("fleet exchange lock");
                if self.batched {
                    ex.coordinator.act(&ex.states, &mut ex.actions);
                } else {
                    ex.coordinator.act_per_node(&ex.states, &mut ex.actions);
                }
            }
            self.barrier.wait(); // B
            {
                let ex = self.exchange.lock().expect("fleet exchange lock");
                for (cell, &i) in cells.iter().zip(&owned) {
                    cell.set(ex.actions[i]);
                }
            }
            epochs += 1;
            let t_stop = epochs.saturating_mul(self.long);
            let sp = self.prof.span("fleet.advance");
            let mut newly = 0;
            for (session, fin) in sessions.iter_mut().zip(&mut finished) {
                if session.advance_until(t_stop) && !*fin {
                    *fin = true;
                    newly += 1;
                }
            }
            drop(sp);
            self.done.fetch_add(newly, Ordering::SeqCst);
            self.barrier.wait(); // C
            if self.done.load(Ordering::SeqCst) == n {
                break;
            }
        }

        let merge = (w == 0).then(|| self.prof.span("fleet.merge"));
        for (session, &i) in sessions.into_iter().zip(&owned) {
            let fresh = self.results[i].set(session.finish()).is_ok();
            assert!(fresh, "node {i} produced two results");
        }
        if let Some(m) = monitor {
            // The sessions (and their recorders) are gone, so this
            // worker holds the only strong reference left.
            drop(recs);
            let m = Rc::try_unwrap(m).expect("worker monitor still shared");
            let fresh = self.monitors[w].set(m.into_inner()).is_ok();
            assert!(fresh, "worker {w} published two monitors");
        }
        (epochs, merge)
    }
}

/// Fold per-node [`SimResult`]s into the fleet report. Fleet
/// percentiles come from the merged record set, not from averaging
/// per-node percentiles (which would understate the tail whenever one
/// node runs hot).
fn assemble(
    spec: &FleetSpec,
    epochs: u64,
    streams: &[Vec<Request>],
    results: Vec<SimResult>,
) -> FleetResult {
    let ms = |ns: u64| ns as f64 / MILLISECOND as f64;
    let mut merged: Vec<RequestRecord> =
        Vec::with_capacity(results.iter().map(|sim| sim.records.len()).sum());
    let mut per_node = Vec::with_capacity(results.len());
    let mut total_energy_j = 0.0;
    let mut total_power_w = 0.0;
    let (mut total_goodput, mut total_wasted, mut total_shed) = (0u64, 0u64, 0u64);
    // Fleet gauges fold through the per-key merge policy — "peak" keys
    // take the max across nodes, where a last-write fold would report
    // whichever node happened to merge last.
    let mut fleet_gauges: std::collections::BTreeMap<&'static str, f64> = Default::default();
    for (node, sim) in results.into_iter().enumerate() {
        merge_gauges(
            &mut fleet_gauges,
            &[("queue.peak_depth", sim.peak_queue_depth as f64)],
        );
        let s = &sim.stats;
        total_goodput += sim.goodput;
        total_wasted += sim.wasted;
        total_shed += sim.shed;
        per_node.push(NodeSummary {
            node,
            assigned: streams[node].len() as u64,
            requests: s.count,
            goodput: sim.goodput,
            wasted: sim.wasted,
            shed: sim.shed,
            retries: sim.retries,
            energy_j: sim.energy_j,
            avg_power_w: sim.avg_power_w,
            p50_ms: ms(s.p50_ns),
            p95_ms: ms(s.p95_ns),
            p99_ms: ms(s.p99_ns),
            timeout_rate: s.timeout_rate(),
            freq_transitions: sim.freq_transitions,
            peak_queue_depth: sim.peak_queue_depth,
            profile: spec.profile_name(node),
        });
        total_energy_j += sim.energy_j;
        total_power_w += sim.avg_power_w;
        merged.extend(sim.records);
    }
    let fleet = LatencyStats::from_records(&merged);
    FleetResult {
        app: AppSpec::get(spec.app).name.to_string(),
        nodes: spec.nodes,
        balancer: spec.balancer.label().to_string(),
        seed: spec.seed,
        peak_load: spec.peak_load,
        duration_s: spec.duration_s,
        drl_epochs: epochs,
        total_requests: fleet.count,
        total_goodput,
        total_wasted,
        total_shed,
        total_energy_j,
        total_power_w,
        fleet_p50_ms: ms(fleet.p50_ns),
        fleet_p95_ms: ms(fleet.p95_ns),
        fleet_p99_ms: ms(fleet.p99_ns),
        fleet_timeout_rate: fleet.timeout_rate(),
        fleet_peak_queue_depth: fleet_gauges.get("queue.peak_depth").copied().unwrap_or(0.0) as u64,
        per_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(nodes: usize, balancer: BalancerPolicy) -> FleetSpec {
        // App::Masstree is the 8-thread app — cheapest node.
        FleetSpec::uniform(App::Masstree, nodes, balancer, 11, 0.4, 3)
    }

    fn monitored(
        spec: &FleetSpec,
        policy: &TrainedPolicy,
        threads: usize,
        cfg: MonitorConfig,
    ) -> (FleetResult, deeppower_telemetry::HealthReport) {
        let (result, monitor) = run_fleet_monitored_full(spec, policy, threads, cfg);
        (result, monitor.finish())
    }

    #[test]
    fn fleet_conserves_requests_end_to_end() {
        for balancer in BalancerPolicy::all() {
            let spec = small_spec(3, balancer);
            let policy = untrained_policy(spec.app, 5);
            let generated = fleet_arrivals(&spec).len() as u64;
            let res = run_fleet_threaded(&spec, &policy, 1);
            assert_eq!(
                res.total_requests, generated,
                "{balancer:?}: fleet dropped or duplicated requests"
            );
            for node in &res.per_node {
                assert_eq!(
                    node.requests, node.assigned,
                    "{balancer:?}: node {} completed {} of {} assigned",
                    node.node, node.requests, node.assigned
                );
            }
            assert!(res.drl_epochs > 0);
            assert!(res.total_energy_j > 0.0);
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let spec = small_spec(2, BalancerPolicy::JoinShortestQueue);
        let policy = untrained_policy(spec.app, 7);
        let a = run_fleet_threaded(&spec, &policy, 1).to_json();
        let b = run_fleet_threaded(&spec, &policy, 1).to_json();
        assert_eq!(a, b, "same spec + policy must reproduce byte-identically");
    }

    #[test]
    fn batched_and_unbatched_fleets_agree() {
        // The whole point of the batched path: same floats, fewer
        // forward passes. Any drift here means act_batch is no longer
        // bit-faithful to act.
        let spec = small_spec(4, BalancerPolicy::RoundRobin);
        let policy = untrained_policy(spec.app, 3);
        let batched = run_fleet_threaded(&spec, &policy, 1).to_json();
        let reference = run_fleet_reference(&spec, &policy).to_json();
        assert_eq!(batched, reference);
    }

    #[test]
    fn profiled_fleet_is_byte_identical_and_captures_epoch_spans() {
        let spec = small_spec(2, BalancerPolicy::JoinShortestQueue);
        let policy = untrained_policy(spec.app, 7);
        let plain = run_fleet_threaded(&spec, &policy, 1).to_json();
        let prof = Profiler::enabled();
        let obs = FleetObs {
            prof: &prof,
            sinks: NodeSinks::Off,
        };
        let profiled = run_fleet_with(&spec, &[&policy], 1, obs).0.to_json();
        assert_eq!(plain, profiled, "profiling perturbed the fleet result");

        let rows = prof.phase_table();
        let count = |n: &str| rows.iter().find(|r| r.name == n).map_or(0, |r| r.count);
        assert_eq!(count("workload.arrivals"), 1);
        assert_eq!(count("fleet.balance"), 1);
        assert_eq!(count("fleet.merge"), 1);
        assert!(count("fleet.batch_act") > 0);
        assert_eq!(count("fleet.batch_act"), count("fleet.advance"));
        // Node-engine spans nest inside fleet.advance/fleet.merge, so
        // they carry no root time of their own.
        let tick = rows.iter().find(|r| r.name == "engine.tick").unwrap();
        assert!(tick.count > 0);
        assert_eq!(tick.root_ns, 0);
    }

    #[test]
    fn threaded_fleet_is_byte_identical_at_any_thread_count() {
        // The acceptance bar for the parallel driver: not "close", not
        // "statistically equal" — the same bytes as the serial engine,
        // regardless of how nodes land on workers.
        let spec = small_spec(4, BalancerPolicy::JoinShortestQueue);
        let policy = untrained_policy(spec.app, 13);
        let serial = run_fleet_threaded(&spec, &policy, 1).to_json();
        for threads in [1usize, 2, 8] {
            let parallel = run_fleet_threaded(&spec, &policy, threads).to_json();
            assert_eq!(serial, parallel, "--threads {threads} diverged from serial");
        }
    }

    #[test]
    fn uniform_fleet_reproduces_pinned_pre_profile_baseline() {
        // Result anchors captured on the homogeneous fleet *before* the
        // heterogeneous-profile refactor: exact bit patterns, not
        // tolerances. The refactor threads capacity weights through the
        // balancer and a coordinator through inference, all of which
        // must reduce to IEEE identities (×1.0, ÷1.0, one group) on a
        // uniform fleet — any drift here means a calibrated seed
        // re-rolled.
        let policy = untrained_policy(App::Masstree, 5);
        let cases: [(BalancerPolicy, u64, u64, [u64; 3]); 3] = [
            (
                BalancerPolicy::RoundRobin,
                0x407352ff40fbfd84,
                0x3fd172a38b8ae31d,
                [94343, 94343, 94342],
            ),
            (
                BalancerPolicy::JoinShortestQueue,
                0x407351e15a2df2e9,
                0x3fd1292817763e4b,
                [94716, 93509, 94803],
            ),
            (
                BalancerPolicy::PowerAware,
                0x407369d3c696804d,
                0x3fd18b86b15f88fd,
                [105933, 100718, 76377],
            ),
        ];
        for (balancer, energy_bits, p99_bits, assigned) in cases {
            for threads in [1usize, 2, 8] {
                let res = run_fleet_threaded(&small_spec(3, balancer), &policy, threads);
                assert_eq!(res.total_requests, 283028, "{balancer:?}: trace drifted");
                assert_eq!(
                    res.total_energy_j.to_bits(),
                    energy_bits,
                    "{balancer:?} --threads {threads}: energy drifted from the pre-profile baseline"
                );
                assert_eq!(
                    res.fleet_p99_ms.to_bits(),
                    p99_bits,
                    "{balancer:?} --threads {threads}: p99 drifted from the pre-profile baseline"
                );
                let got: Vec<u64> = res.per_node.iter().map(|n| n.assigned).collect();
                assert_eq!(got, assigned, "{balancer:?}: balancer split drifted");
                if balancer == BalancerPolicy::RoundRobin {
                    assert_eq!(res.drl_epochs, 4, "epoch grid drifted");
                }
            }
        }
    }

    #[test]
    fn invalid_profiles_are_a_one_line_error() {
        let spec = small_spec(3, BalancerPolicy::RoundRobin);
        let empty = spec.clone().with_profiles(Vec::new()).unwrap_err();
        assert_eq!(empty, "profile list cannot be empty");
        let coreless = NodeProfile {
            cores: 0,
            ..NodeProfile::paper_default(8, 2)
        };
        let err = spec.with_profiles(vec![coreless]).unwrap_err();
        assert!(err.contains("cores must be at least 1"), "{err}");
        assert!(!err.contains('\n'), "multi-line error: {err}");
    }

    #[test]
    fn single_profile_fleet_is_byte_identical_to_uniform_spec() {
        // A one-profile fleet of paper-default nodes is the homogeneous
        // fleet, down to the last byte: same configs, same capacities,
        // same single coordinator group.
        let policy = untrained_policy(App::Masstree, 7);
        let uniform = small_spec(3, BalancerPolicy::JoinShortestQueue);
        let profiled = uniform
            .clone()
            .with_profiles(vec![NodeProfile::paper_default(8, 3)])
            .unwrap();
        assert_eq!(profiled.nodes, 3);
        assert_eq!(
            run_fleet_threaded(&uniform, &policy, 1).to_json(),
            run_fleet_threaded(&profiled, &policy, 1).to_json(),
            "one-profile fleet diverged from the profile-free spec"
        );
    }

    #[test]
    fn mixed_profile_fleet_is_byte_identical_at_any_thread_count() {
        // The acceptance fleet: 4 one-core edge boxes (capped DVFS
        // range) next to 2 four-core nodes with big.LITTLE core caps.
        // Same bar as the homogeneous driver: byte-identity between the
        // serial and threaded drivers at any thread count.
        let spec = small_spec(0, BalancerPolicy::PowerAware)
            .with_profiles(vec![
                NodeProfile {
                    name: "edge-1c".into(),
                    max_mhz: 1500,
                    ..NodeProfile::paper_default(1, 4)
                },
                NodeProfile {
                    name: "quad-biglittle".into(),
                    little_cores: 2,
                    little_max_mhz: 1100,
                    ..NodeProfile::paper_default(4, 2)
                },
            ])
            .unwrap();
        assert_eq!(spec.nodes, 6);
        let policy = untrained_policy(spec.app, 13);
        let serial = run_fleet_threaded(&spec, &policy, 1);
        let generated = fleet_arrivals(&spec).len() as u64;
        assert_eq!(
            serial.total_requests, generated,
            "mixed fleet dropped or duplicated requests"
        );
        let names: Vec<&str> = serial.per_node.iter().map(|n| n.profile.as_str()).collect();
        assert_eq!(
            names,
            [
                "edge-1c",
                "edge-1c",
                "edge-1c",
                "edge-1c",
                "quad-biglittle",
                "quad-biglittle"
            ]
        );
        let serial = serial.to_json();
        for threads in [1usize, 2, 8] {
            let parallel = run_fleet_threaded(&spec, &policy, threads).to_json();
            assert_eq!(serial, parallel, "--threads {threads} diverged from serial");
        }
    }

    #[test]
    fn hier_fleet_runs_per_group_policies_byte_identically_threaded() {
        // Hierarchical control: each profile group steered by its own
        // policy, same serial/threaded byte-identity bar — and the
        // second group's weights must actually reach its nodes. The two
        // groups run identical paper-default hardware at moderate load
        // (the regime where controller params demonstrably change the
        // result), so any divergence from the shared-policy run can
        // only come from per-group policy attribution.
        let spec = small_spec(0, BalancerPolicy::JoinShortestQueue)
            .with_profiles(vec![
                NodeProfile {
                    name: "rack-a".into(),
                    ..NodeProfile::paper_default(8, 2)
                },
                NodeProfile {
                    name: "rack-b".into(),
                    ..NodeProfile::paper_default(8, 2)
                },
            ])
            .unwrap();
        let policies = [
            untrained_policy(spec.app, 17),
            untrained_policy(spec.app, 23),
        ];
        let groups = [&policies[0], &policies[1]];
        let hier = |threads| run_fleet_with(&spec, &groups, threads, FleetObs::off()).0;
        let serial = hier(1);
        assert_eq!(serial.per_node.len(), 4);
        let serial_json = serial.to_json();
        for threads in [2usize, 4] {
            assert_eq!(
                serial_json,
                hier(threads).to_json(),
                "hier --threads {threads} diverged from serial"
            );
        }
        let shared = run_fleet_threaded(&spec, &policies[0], 1).to_json();
        assert_ne!(
            serial_json, shared,
            "second group's policy had no effect on the fleet"
        );
    }

    #[test]
    fn fleet_peak_queue_depth_merges_by_max_not_last_write() {
        // Satellite of the gauge-merge bugfix: the fleet-level peak is
        // the deepest any node got, not whichever node merged last.
        let spec = small_spec(3, BalancerPolicy::JoinShortestQueue);
        let res = run_fleet_threaded(&spec, &untrained_policy(spec.app, 5), 1);
        let max = res
            .per_node
            .iter()
            .map(|n| n.peak_queue_depth)
            .max()
            .unwrap();
        assert!(max > 0, "no node ever queued");
        assert_eq!(res.fleet_peak_queue_depth, max);
    }

    #[test]
    fn profiled_threaded_fleet_is_byte_identical() {
        // Profiler span stacks are per-thread; turning profiling on
        // under the parallel driver must not change a single byte.
        let spec = small_spec(4, BalancerPolicy::RoundRobin);
        let policy = untrained_policy(spec.app, 5);
        let plain = run_fleet_threaded(&spec, &policy, 2).to_json();
        let prof = Profiler::enabled();
        let obs = FleetObs {
            prof: &prof,
            sinks: NodeSinks::Off,
        };
        let profiled = run_fleet_with(&spec, &[&policy], 2, obs).0.to_json();
        assert_eq!(plain, profiled, "profiling perturbed the parallel fleet");
        let rows = prof.phase_table();
        let count = |n: &str| rows.iter().find(|r| r.name == n).map_or(0, |r| r.count);
        assert_eq!(count("workload.arrivals"), 1);
        assert_eq!(count("fleet.balance"), 1);
        assert_eq!(count("fleet.merge"), 1);
        assert!(count("fleet.batch_act") > 0);
        // Two workers each open one advance span per epoch.
        assert_eq!(count("fleet.advance"), 2 * count("fleet.batch_act"));
    }

    #[test]
    fn overloaded_fleet_is_byte_identical_at_any_thread_count() {
        // Satellite of the overload work: the closed-loop client layer
        // (bounded queues, abandonment, seeded retries) must preserve
        // the serial/threaded byte-identity bar, and the retry RNG
        // streams must replay bit-identically alongside fault injection.
        let mut spec = small_spec(4, BalancerPolicy::JoinShortestQueue);
        spec.peak_load = 1.3; // past saturation so the overload layer engages
        spec.faults = FaultPlan {
            seed: 21,
            stall_period_ns: 1_000_000_000,
            stall_duration_ns: 300_000_000,
            ..FaultPlan::none()
        };
        spec.overload = OverloadPlan {
            seed: 9,
            queue_capacity: 32,
            client_timeout_ns: 5 * MILLISECOND,
            retry_prob: 0.6,
            max_attempts: 3,
            retry_backoff_ns: 2 * MILLISECOND,
            retry_jitter_ns: 500_000,
            ..OverloadPlan::none()
        };
        let policy = untrained_policy(spec.app, 13);
        let serial = run_fleet_threaded(&spec, &policy, 1);
        assert!(
            serial.total_shed > 0 && serial.total_wasted > 0,
            "overload plan never engaged: shed={} wasted={}",
            serial.total_shed,
            serial.total_wasted
        );
        assert!(
            serial.per_node.iter().map(|n| n.retries).sum::<u64>() > 0,
            "no retries fired"
        );
        let serial = serial.to_json();
        for threads in [1usize, 2, 8] {
            let parallel = run_fleet_threaded(&spec, &policy, threads).to_json();
            assert_eq!(serial, parallel, "--threads {threads} diverged from serial");
        }
    }

    #[test]
    fn monitored_fleet_report_is_byte_identical_at_any_thread_count() {
        // Same bar as the threaded driver itself: the health report is
        // a pure function of the per-node event streams, so serial and
        // parallel monitored fleets must agree byte for byte — and
        // monitoring must not perturb the fleet result.
        use deeppower_telemetry::{MonitorConfig, SloSpec};
        let mut spec = small_spec(4, BalancerPolicy::JoinShortestQueue);
        spec.faults = FaultPlan {
            seed: 21,
            stall_period_ns: 1_000_000_000,
            stall_duration_ns: 300_000_000,
            ..FaultPlan::none()
        };
        let policy = untrained_policy(spec.app, 13);
        let cfg = MonitorConfig::with_slo(SloSpec::for_sla_ns("masstree", MILLISECOND));
        let plain = run_fleet_threaded(&spec, &policy, 1).to_json();
        let (serial_res, serial_rep) = monitored(&spec, &policy, 1, cfg.clone());
        assert_eq!(
            plain,
            serial_res.to_json(),
            "monitoring perturbed the fleet result"
        );
        assert!(serial_rep.windows > 0, "monitor saw no window rollups");
        let serial_rep = serial_rep.to_json();
        for threads in [2usize, 8] {
            let (res, rep) = monitored(&spec, &policy, threads, cfg.clone());
            assert_eq!(plain, res.to_json(), "--threads {threads} result diverged");
            assert_eq!(
                serial_rep,
                rep.to_json(),
                "--threads {threads} health report diverged from serial"
            );
        }
    }

    #[test]
    fn faulted_fleet_trips_alerts_clean_fleet_stays_healthy() {
        // The health plane's acceptance bar: a fault-injected fleet
        // trips at least one burn-rate alert whose incident timeline
        // names the injected faults, while the identical fault-free
        // fleet produces zero alerts and zero violations.
        use deeppower_telemetry::{BurnRateRule, Event, MonitorConfig, SloSpec};
        let mut spec = FleetSpec::uniform(
            App::Masstree,
            3,
            BalancerPolicy::JoinShortestQueue,
            11,
            0.75,
            6,
        );
        let policy = untrained_policy(spec.app, 5);
        let mut slo = SloSpec::for_sla_ns("masstree", MILLISECOND);
        // Short trailing windows: the run is only six windows long.
        slo.rules = vec![BurnRateRule {
            long_windows: 2,
            short_windows: 1,
            max_burn: 2.0,
        }];
        let cfg = MonitorConfig::with_slo(slo);

        let (_, clean) = monitored(&spec, &policy, 1, cfg.clone());
        assert!(clean.healthy, "fault-free baseline must be healthy");
        assert!(clean.alerts.is_empty());
        assert_eq!(clean.outcomes.iter().map(|o| o.violations).sum::<u64>(), 0);

        spec.faults = FaultPlan {
            seed: 42,
            stall_period_ns: 1_000_000_000,
            stall_duration_ns: 700_000_000,
            ..FaultPlan::none()
        };
        let (_, faulted) = monitored(&spec, &policy, 1, cfg);
        assert!(!faulted.healthy);
        assert!(
            !faulted.alerts.is_empty(),
            "core stalls at 0.75 load must trip a burn-rate alert"
        );
        let alert = &faulted.alerts[0];
        assert!(
            !alert.timeline.is_empty(),
            "alert must carry incident context"
        );
        assert!(
            alert.timeline.iter().any(|e| e.kind == "core-stall"),
            "timeline must name the injected faults"
        );
        assert!(faulted
            .events
            .iter()
            .any(|e| matches!(e, Event::SloViolation(_))));
        assert!(faulted.outcomes.iter().any(|o| o.violations > 0));
    }

    #[test]
    fn traced_collapse_fleet_is_unperturbed_and_alerts_carry_exemplars() {
        // The tracing acceptance bar: a collapse-regime fleet run with
        // request tracing on is byte-identical to tracing off (fleet
        // results) and to itself at any thread count (traces + health
        // report), and the goodput alert's incident timeline names at
        // least one tail-exemplar trace id whose flight-recorded retry
        // chain shows the shed/backoff spans.
        use deeppower_telemetry::{BurnRateRule, MonitorConfig, SloSpec, SPAN_BACKOFF, SPAN_SHED};
        let sla = MILLISECOND;
        let mut spec = FleetSpec::uniform(
            App::Masstree,
            3,
            BalancerPolicy::JoinShortestQueue,
            11,
            0.9,
            6,
        );
        // The harness's `collapse` scenario knobs: tight queue, short
        // deadlines, near-certain retries.
        spec.overload = OverloadPlan {
            seed: 42,
            queue_capacity: 64,
            client_timeout_ns: 2 * sla,
            retry_prob: 0.95,
            max_attempts: 5,
            retry_backoff_ns: sla / 2,
            retry_jitter_ns: (sla / 4).max(1),
            ..OverloadPlan::none()
        };
        let policy = untrained_policy(spec.app, 5);
        // Goodput floor 0.9 with a single-window burn-rate rule at
        // 1.5: the alert fires the moment one window delivers less
        // than 85% useful completions — the collapse signature.
        let mut slo = SloSpec::for_sla_ns("masstree", sla);
        slo.goodput_ratio = 0.9;
        slo.rules = vec![BurnRateRule {
            long_windows: 1,
            short_windows: 1,
            max_burn: 1.5,
        }];
        let cfg = MonitorConfig::with_slo(slo);

        let (off_res, _) = monitored(&spec, &policy, 1, cfg.clone());

        spec.rtrace = TracePlan::sampled(0.05, 2, 7);
        let (on_res, mon) = run_fleet_monitored_full(&spec, &policy, 1, cfg.clone());
        assert_eq!(
            off_res.to_json(),
            on_res.to_json(),
            "tracing perturbed the fleet result"
        );

        let rep = mon.finish();
        assert!(
            rep.alerts.iter().any(|a| a.metric == "goodput"),
            "collapse plan must trip a goodput alert: {}",
            rep.render_incident_log()
        );
        let alert = rep.alerts.iter().find(|a| a.metric == "goodput").unwrap();
        let exemplar_entries: Vec<_> = alert
            .timeline
            .iter()
            .filter(|e| e.kind == "tail-exemplar")
            .collect();
        assert!(
            !exemplar_entries.is_empty(),
            "goodput alert timeline carries no tail-exemplar trace ids"
        );
        // Every exemplar id the timeline names resolves to a flight-
        // recorded trace, and at least one is a retry chain whose
        // spans show the shed → backoff ladder.
        let flight = mon.flight();
        assert!(!flight.is_empty(), "flight recorder captured nothing");
        let traces = flight.all();
        let named: Vec<&deeppower_telemetry::RequestTrace> = exemplar_entries
            .iter()
            .flat_map(|e| {
                e.detail
                    .trim_start_matches("trace ids [")
                    .trim_end_matches(']')
                    .split(", ")
                    .filter_map(|s| s.parse::<u64>().ok())
                    .collect::<Vec<_>>()
            })
            .filter_map(|id| {
                traces
                    .iter()
                    .find(|(_, _, t)| t.client == id)
                    .map(|(_, _, t)| *t)
            })
            .collect();
        assert!(
            !named.is_empty(),
            "no timeline exemplar id resolves to a flight-recorded trace"
        );
        assert!(
            traces.iter().any(|(_, _, t)| t.attempts.len() > 1
                && t.span_total_ns(SPAN_BACKOFF) > 0
                && t.spans_named(SPAN_SHED).count() > 0),
            "flight recorder holds no retry chain with shed + backoff spans"
        );

        // Thread-count identity: results, health report, and the
        // flight-recorded traces themselves.
        let serial_rep = rep.to_json();
        for threads in [2usize, 8] {
            let (res_t, mon_t) = run_fleet_monitored_full(&spec, &policy, threads, cfg.clone());
            assert_eq!(
                on_res.to_json(),
                res_t.to_json(),
                "--threads {threads} result diverged"
            );
            assert_eq!(
                mon.flight().all(),
                mon_t.flight().all(),
                "--threads {threads} traces diverged from serial"
            );
            assert_eq!(
                serial_rep,
                mon_t.finish().to_json(),
                "--threads {threads} health report diverged"
            );
        }
    }

    /// FNV-1a over a serialized artifact: a compact, exact pin.
    fn fnv(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn overloaded_and_monitored_fleets_reproduce_pinned_anchors() {
        // Exact anchors captured from the separate serial and parallel
        // drivers before they were folded into one lockstep loop: the
        // thread-identity tests above compare the driver with itself,
        // these compare it with recorded bytes. Digests are FNV-1a of
        // the result JSON and of the health report JSON.
        use deeppower_telemetry::SloSpec;
        let stalls = FaultPlan {
            seed: 21,
            stall_period_ns: 1_000_000_000,
            stall_duration_ns: 300_000_000,
            ..FaultPlan::none()
        };
        let mut overloaded = small_spec(4, BalancerPolicy::JoinShortestQueue);
        overloaded.peak_load = 1.3;
        overloaded.faults = stalls;
        overloaded.overload = OverloadPlan {
            seed: 9,
            queue_capacity: 32,
            client_timeout_ns: 5 * MILLISECOND,
            retry_prob: 0.6,
            max_attempts: 3,
            retry_backoff_ns: 2 * MILLISECOND,
            retry_jitter_ns: 500_000,
            ..OverloadPlan::none()
        };
        let mut monitored = small_spec(4, BalancerPolicy::JoinShortestQueue);
        monitored.faults = stalls;
        let cfg = MonitorConfig::with_slo(SloSpec::for_sla_ns("masstree", MILLISECOND));
        let policy = untrained_policy(App::Masstree, 13);
        // (name, spec, result digest, health report digest, shed, energy bits)
        let cases = [
            (
                "overloaded",
                &overloaded,
                0x9d58d457b01bd6b2,
                0xc35a0547d08beae9,
                766503,
                0x4091b7c6bbdfa0fa,
            ),
            (
                "monitored",
                &monitored,
                0x8dd6fb6272668f57,
                0x15370980b379bf70,
                0,
                0x407d252ed702cf3c,
            ),
        ];
        for (name, spec, result_fnv, report_fnv, shed, energy_bits) in cases {
            for threads in [1usize, 2, 8] {
                let res = run_fleet_threaded(spec, &policy, threads);
                assert_eq!(res.total_shed, shed, "{name} --threads {threads}: shed");
                assert_eq!(
                    res.total_energy_j.to_bits(),
                    energy_bits,
                    "{name} --threads {threads}: energy"
                );
                let json = res.to_json();
                assert_eq!(fnv(&json), result_fnv, "{name} --threads {threads}: result");
                let (mres, mon) = run_fleet_monitored_full(spec, &policy, threads, cfg.clone());
                assert_eq!(
                    mres.to_json(),
                    json,
                    "{name} --threads {threads}: monitoring perturbed the result"
                );
                assert_eq!(
                    fnv(&mon.finish().to_json()),
                    report_fnv,
                    "{name} --threads {threads}: health report"
                );
            }
        }
    }

    #[test]
    fn per_node_recorders_capture_disjoint_streams() {
        let spec = small_spec(2, BalancerPolicy::RoundRobin);
        let policy = untrained_policy(spec.app, 9);
        let recs = vec![Recorder::ring(1 << 14), Recorder::ring(1 << 14)];
        let obs = FleetObs {
            sinks: NodeSinks::Recorders(&recs),
            ..FleetObs::off()
        };
        let res = run_fleet_with(&spec, &[&policy], 1, obs).0;
        let events: Vec<_> = recs.iter().map(|r| r.drain_events()).collect();
        assert!(
            events.iter().all(|e| !e.is_empty()),
            "both nodes must emit telemetry"
        );
        // Node streams are per-node: each stream's dispatch events
        // reference only requests the balancer routed to that node.
        assert!(res.per_node.iter().all(|n| n.requests > 0));
    }
}
