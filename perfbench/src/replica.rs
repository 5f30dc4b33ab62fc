//! Traced replicas of the production drivers, built only from public
//! calls of `workload`, `fleet`, `simd-server`, `core`, `drl` and
//! `telemetry`, with a tracer span around each call. They must
//! reproduce the production outcome bit for bit; the benchmark checks
//! that on every traced run.

use crate::trace::Tracer;
use crate::workloads::{
    agent_config, episode_seeds, eval_arrival_seed, fnv_bytes, ms, train_outcome, NodeOutcome,
    Outcome, TrainInputs,
};
use deeppower_core::train::{server_for, trace_for};
use deeppower_core::{
    ControllerParams, DeepPowerGovernor, Mode, StateObserver, ThreadController, TrainedPolicy,
    STATE_DIM,
};
use deeppower_drl::Ddpg;
use deeppower_fleet::{fleet_arrivals, split_arrivals, Coordinator, FleetSpec};
use deeppower_nn::Matrix;
use deeppower_simd_server::{
    FaultPlan, FreqCommands, Governor, LatencyStats, Nanos, OverloadPlan, Request, RunOptions,
    Server, ServerView, Session, SimResult, TraceConfig,
};
use deeppower_telemetry::{
    Event, FleetMonitor, MonitorConfig, MonitorSink, Profiler, Recorder, TelemetrySink, TracePlan,
};
use deeppower_workload::{trace_arrivals, AppSpec};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Algorithm 1 with parameters the fleet driver rewrites at every epoch
/// boundary — the node governor the production fleet driver uses.
pub struct ParamsController {
    pub params: Rc<Cell<ControllerParams>>,
}

impl Governor for ParamsController {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        ThreadController::new(self.params.get()).scale_all(view, cmds);
    }

    fn name(&self) -> &str {
        "fleet-thread-controller"
    }
}

/// Delegating governor that charges each tick to the `core.governor`
/// leaf, or to `drl.update` when the tick ran DDPG updates (as seen
/// through `updates`).
pub struct TimedGovernor<G> {
    inner: G,
    tr: Tracer,
    updates: fn(&G) -> u64,
}

impl<G: Governor> TimedGovernor<G> {
    pub fn new(inner: G, tr: Tracer, updates: fn(&G) -> u64) -> Self {
        Self { inner, tr, updates }
    }
}

impl<G: Governor> Governor for TimedGovernor<G> {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        let before = (self.updates)(&self.inner);
        let t = Instant::now();
        self.inner.on_tick(view, cmds);
        let ns = t.elapsed().as_nanos() as u64;
        let done = (self.updates)(&self.inner) - before;
        if done > 0 {
            self.tr.add_leaf("drl.update", ns);
            self.tr.count("drl.updates", done);
        } else {
            self.tr.add_leaf("core.governor", ns);
        }
    }

    fn on_request_start(
        &mut self,
        view: &ServerView<'_>,
        core_id: usize,
        req: &Request,
        cmds: &mut FreqCommands,
    ) {
        self.inner.on_request_start(view, core_id, req, cmds);
    }

    fn on_request_complete(&mut self, now: Nanos, core_id: usize, req: &Request, latency: Nanos) {
        self.inner.on_request_complete(now, core_id, req, latency);
    }

    fn on_run_end(&mut self, view: &ServerView<'_>) {
        let before = (self.updates)(&self.inner);
        self.tr
            .leaf("core.governor.end", || self.inner.on_run_end(view));
        self.tr
            .count("drl.updates", (self.updates)(&self.inner) - before);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn healthy(&self) -> bool {
        self.inner.healthy()
    }
}

/// Delegating sink that charges each event to the `telemetry.sink`
/// leaf and counts request traces.
pub struct TimedSink<S> {
    inner: S,
    tr: Tracer,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S, tr: Tracer) -> Self {
        Self { inner, tr }
    }
}

impl<S: TelemetrySink> TelemetrySink for TimedSink<S> {
    fn record(&mut self, event: Event) {
        if matches!(event, Event::RequestTrace(_)) {
            self.tr.count("telemetry.traces", 1);
        }
        self.tr.leaf("telemetry.sink", || self.inner.record(event));
    }

    fn drain(&mut self) -> Vec<Event> {
        self.inner.drain()
    }

    fn dropped(&self) -> u64 {
        self.inner.dropped()
    }
}

/// Simulation-side quantities the per-layer metrics need besides time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimCounts {
    /// Client requests generated, over every simulated run.
    pub generated: u64,
    /// Requests completed, over every simulated run.
    pub completed: u64,
    /// `Request` structs plus their feature heap, over every run.
    pub arrival_bytes: u64,
    /// Retained `RequestRecord`s, over every run.
    pub record_bytes: u64,
    pub shed: u64,
    pub retries: u64,
    pub wasted_s: f64,
    pub peak_queue_depth: u64,
    pub freq_transitions: u64,
    /// Simulated node-seconds.
    pub sim_s: f64,
    pub node_epochs: u64,
    /// Largest node share of the arrivals over the mean share.
    pub max_over_mean: f64,
}

impl SimCounts {
    fn add_arrivals(&mut self, arrivals: &[Request]) {
        self.generated += arrivals.len() as u64;
        self.arrival_bytes += arrivals
            .iter()
            .map(|r| (std::mem::size_of::<Request>() + 4 * r.features.capacity()) as u64)
            .sum::<u64>();
    }

    fn add_sim(&mut self, sim: &SimResult) {
        self.completed += sim.stats.count;
        self.record_bytes += (sim.records.len()
            * std::mem::size_of::<deeppower_simd_server::RequestRecord>())
            as u64;
        self.shed += sim.shed;
        self.retries += sim.retries;
        self.wasted_s += sim.wasted_s;
        self.peak_queue_depth = self.peak_queue_depth.max(sim.peak_queue_depth);
        self.freq_transitions += sim.freq_transitions;
        self.sim_s += sim.duration_ns as f64 / 1e9;
    }
}

/// Per-node options exactly as the fleet driver derives them: own fault
/// and retry streams (seed + node), trace origin stamped with the node.
fn node_opts(spec: &FleetSpec, tick_ns: Nanos, node: usize) -> RunOptions {
    RunOptions {
        tick_ns,
        faults: FaultPlan {
            seed: spec.faults.seed.wrapping_add(node as u64),
            ..spec.faults
        },
        overload: OverloadPlan {
            seed: spec.overload.seed.wrapping_add(node as u64),
            ..spec.overload
        },
        rtrace: TracePlan {
            node: node as u64,
            ..spec.rtrace
        },
        ..Default::default()
    }
}

/// The lockstep fleet driver, serial, traced. With `monitor` set, every
/// node feeds one shared [`FleetMonitor`] through a timed
/// [`MonitorSink`], as the monitored production driver does.
pub fn fleet_traced(
    spec: &FleetSpec,
    policy: &TrainedPolicy,
    monitor: Option<&MonitorConfig>,
    tr: &Tracer,
) -> (Outcome, SimCounts) {
    assert!(
        spec.profiles.is_empty(),
        "the replica drives homogeneous fleets"
    );
    let n = spec.nodes;
    let mut counts = SimCounts::default();
    let arrivals = tr.span("workload.arrivals", || fleet_arrivals(spec));
    counts.add_arrivals(&arrivals);
    let streams = tr.span("fleet.balance", || {
        split_arrivals(&arrivals, &spec.capacities(), spec.balancer)
    });
    let assigned: Vec<u64> = streams.iter().map(|s| s.len() as u64).collect();
    let mean = assigned.iter().sum::<u64>() as f64 / n as f64;
    counts.max_over_mean = *assigned.iter().max().expect("fleet has nodes") as f64 / mean;

    let (server, mut coordinator, mon, recs, cells, mut govs) = tr.span("fleet.build", || {
        let server = Server::new(spec.group_configs().remove(0));
        let coordinator = Coordinator::new(spec.groups(), &[policy]);
        let mon = monitor.map(|cfg| Rc::new(RefCell::new(FleetMonitor::new(cfg.clone()))));
        let recs: Vec<Recorder> = (0..n)
            .map(|i| match &mon {
                Some(m) => Recorder::with_sink(Box::new(TimedSink::new(
                    MonitorSink::new(Rc::clone(m), i as u64),
                    tr.clone(),
                ))),
                None => Recorder::disabled(),
            })
            .collect();
        let cells: Vec<Rc<Cell<ControllerParams>>> = (0..n)
            .map(|_| Rc::new(Cell::new(ControllerParams::default())))
            .collect();
        let govs: Vec<TimedGovernor<ParamsController>> = cells
            .iter()
            .map(|c| {
                let gov = ParamsController {
                    params: Rc::clone(c),
                };
                TimedGovernor::new(gov, tr.clone(), |_| 0)
            })
            .collect();
        (server, coordinator, mon, recs, cells, govs)
    });
    let tick_ns = policy.deeppower.short_time;
    let mut sessions: Vec<Session<'_>> = tr.span("fleet.build", || {
        govs.iter_mut()
            .zip(&streams)
            .zip(&recs)
            .enumerate()
            .map(|(i, ((gov, stream), rec))| {
                server.session(
                    stream,
                    gov as &mut dyn Governor,
                    node_opts(spec, tick_ns, i),
                    rec,
                )
            })
            .collect()
    });
    let mut observers = vec![StateObserver::new(policy.deeppower.state_norm); n];
    let mut states = Matrix::zeros(n, STATE_DIM);
    let mut actions = vec![ControllerParams::default(); n];

    let long = policy.deeppower.long_time.max(1);
    let mut epochs = 0u64;
    loop {
        tr.span("core.observe", || {
            for (i, (observer, session)) in observers.iter_mut().zip(&sessions).enumerate() {
                let s = session.with_view(|v| observer.observe(v));
                states.set_row(i, &s);
            }
        });
        tr.span("fleet.act", || {
            coordinator.act(&states, &mut actions);
            for (cell, action) in cells.iter().zip(&actions) {
                cell.set(*action);
            }
        });
        epochs += 1;
        let t_stop = epochs.saturating_mul(long);
        let mut all_done = true;
        for session in sessions.iter_mut() {
            if !tr.span("engine.advance", || session.advance_until(t_stop)) {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
    }
    counts.node_epochs = epochs * n as u64;

    let mut results: Vec<SimResult> = sessions
        .into_iter()
        .map(|s| tr.span("engine.finish", || s.finish()))
        .collect();
    tr.span("workload.free", || drop((arrivals, streams)));
    for sim in &results {
        counts.add_sim(sim);
    }
    let fleet = tr.span("fleet.merge", || {
        let mut merged = Vec::new();
        for sim in &mut results {
            merged.extend(std::mem::take(&mut sim.records));
        }
        LatencyStats::from_records(&merged)
    });

    let nodes: Vec<NodeOutcome> = results
        .iter()
        .zip(&assigned)
        .map(|(sim, &assigned)| NodeOutcome {
            assigned,
            requests: sim.stats.count,
            goodput: sim.goodput,
            wasted: sim.wasted,
            shed: sim.shed,
            retries: sim.retries,
            energy_j: sim.energy_j,
            p99_ms: ms(sim.stats.p99_ns),
        })
        .collect();
    let mut energy_j = 0.0;
    for sim in &results {
        energy_j += sim.energy_j;
    }
    let mut out = Outcome {
        offered: assigned.iter().sum(),
        completed: fleet.count,
        timeouts: fleet.timeouts,
        goodput: nodes.iter().map(|n| n.goodput).sum(),
        wasted: nodes.iter().map(|n| n.wasted).sum(),
        shed: nodes.iter().map(|n| n.shed).sum(),
        retries: nodes.iter().map(|n| n.retries).sum(),
        energy_j,
        p50_ms: ms(fleet.p50_ns),
        p99_ms: ms(fleet.p99_ns),
        epochs,
        nodes,
        actor_digest: 0,
        alerts: 0,
        health_digest: 0,
        flight_traces: 0,
    };
    if let Some(mon) = mon {
        drop(recs);
        let mon = Rc::try_unwrap(mon)
            .unwrap_or_else(|_| unreachable!("sessions and recorders are gone"))
            .into_inner();
        tr.span("telemetry.report", || {
            let report = mon.finish();
            out.alerts = report.alerts.len() as u64;
            out.health_digest = fnv_bytes(report.to_json().as_bytes());
            out.flight_traces = mon.flight().all().len() as u64;
        });
    }
    (out, counts)
}

/// One engine run, traced: the event loop under `engine.advance`, the
/// result assembly under `engine.finish`. Processes the same events as
/// `Server::run_profiled`.
fn run_session(
    server: &Server,
    arrivals: &[Request],
    gov: &mut dyn Governor,
    tick_ns: Nanos,
    prof: &Profiler,
    tr: &Tracer,
) -> SimResult {
    let rec = Recorder::disabled();
    let opts = RunOptions {
        tick_ns,
        trace: TraceConfig::default(),
        ..Default::default()
    };
    let mut session = server
        .session(arrivals, gov, opts, &rec)
        .with_profiler(prof);
    tr.span("engine.advance", || session.advance_until(Nanos::MAX));
    tr.span("engine.finish", || session.finish())
}

fn traced_arrivals(
    spec: &AppSpec,
    peak_load: f64,
    duration_s: u64,
    trace_seed: u64,
    arrival_seed: u64,
    prof: &Profiler,
    tr: &Tracer,
) -> Vec<Request> {
    tr.span("workload.arrivals", || {
        let _sp = prof.span("engine.ingest");
        let trace = trace_for(spec, peak_load, duration_s, trace_seed);
        trace_arrivals(spec, &trace, arrival_seed)
    })
}

/// Algorithm 2 (`train_profiled`) then `evaluate_profiled` on every
/// held-out seed, traced. Pass `Profiler::disabled()` for the plain
/// `train` + `evaluate` path.
pub fn train_traced(t: &TrainInputs, prof: &Profiler, tr: &Tracer) -> (Outcome, SimCounts) {
    let cfg = &t.cfg;
    let spec = AppSpec::get(cfg.app);
    let server = server_for(&spec);
    let mut counts = SimCounts::default();
    let mut agent = tr.span("drl.build", || {
        let mut agent = Ddpg::new(agent_config(cfg));
        agent.set_profiler(prof);
        agent
    });
    for ep in 0..cfg.episodes {
        let (trace_seed, arrival_seed) = episode_seeds(cfg, ep);
        let arrivals = traced_arrivals(
            &spec,
            cfg.peak_load,
            cfg.episode_s,
            trace_seed,
            arrival_seed,
            prof,
            tr,
        );
        counts.add_arrivals(&arrivals);
        let gov = DeepPowerGovernor::new(&mut agent, cfg.deeppower, Mode::Train);
        let mut gov = TimedGovernor::new(gov, tr.clone(), |g| g.updates_done);
        let sim = run_session(
            &server,
            &arrivals,
            &mut gov,
            cfg.deeppower.short_time,
            prof,
            tr,
        );
        counts.add_sim(&sim);
        drop(gov);
        tr.span("workload.free", || drop((arrivals, sim)));
    }
    let policy = tr.span("drl.snapshot", || TrainedPolicy {
        app: cfg.app,
        actor_weights: agent.actor_snapshot(),
        critic_weights: agent.critic_snapshot(),
        ddpg: cfg.deeppower.ddpg,
        deeppower: cfg.deeppower,
    });

    let mut evals = Vec::with_capacity(t.eval_seeds.len());
    for &seed in &t.eval_seeds {
        let arrivals = traced_arrivals(
            &spec,
            cfg.peak_load,
            t.eval_s,
            seed,
            eval_arrival_seed(seed),
            prof,
            tr,
        );
        counts.add_arrivals(&arrivals);
        let mut agent = tr.span("drl.build", || policy.build_agent());
        let gov = DeepPowerGovernor::new(&mut agent, policy.deeppower, Mode::Eval);
        let mut gov = TimedGovernor::new(gov, tr.clone(), |g| g.updates_done);
        let sim = run_session(
            &server,
            &arrivals,
            &mut gov,
            policy.deeppower.short_time,
            prof,
            tr,
        );
        counts.add_sim(&sim);
        drop(gov);
        tr.span("workload.free", || drop(arrivals));
        evals.push(sim);
    }
    let out = tr.span("fleet.merge", || train_outcome(&policy, &evals));
    tr.span("workload.free", || drop(evals));
    (out, counts)
}
