//! The three closed-loop workloads. Each has one caller on one thread:
//! every public call returns before the next is issued.
//!
//! An iteration is set-up (everything a caller pays before the first
//! event) followed by the timed drive phase. Untraced iterations drive
//! the batch workloads with `Runtime::run`; traced ones step them with
//! `Runtime::step` so events can be counted and timed. Both must produce
//! bit-identical [`Outputs`].

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use legato_core::graph::{GraphBuilder, TaskState};
use legato_core::requirements::{Criticality, Requirements, SecurityLevel};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskId, Work};
use legato_core::units::{Bytes, BytesPerSec, Seconds};
use legato_hw::comm::LinkModel;
use legato_runtime::{
    AnalysisConfig, ChurnConfig, EnergyConfig, EngineConfig, Policy, PoolConfig, ResilienceConfig,
    RunReport, Runtime, RuntimeError, SecurityConfig, Service, ServiceConfig, TenantId, TenantSpec,
    TopologyConfig,
};

use crate::inputs::{
    churn_trace, round_robin_fleet, task_flops, SplitMix64, CHURN_HORIZON_PER_TASK,
};
use crate::trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 200k-task chain graph on a pooled 1024-device fleet, no pillar.
    ClusterScale,
    /// All seven `EngineConfig` pillars at once on 64 devices.
    AllPillars,
    /// A multi-tenant `Service` lifecycle: submit, step, seal, restart.
    TenantStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ClusterScale,
        Workload::AllPillars,
        Workload::TenantStream,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusterScale => "cluster_scale",
            Workload::AllPillars => "all_pillars",
            Workload::TenantStream => "tenant_stream",
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Fleet size of `all_pillars` and `tenant_stream`.
const SMALL_FLEET: usize = 64;

/// Submissions each `tenant_stream` tenant attempts per round.
const PER_ROUND: usize = 4;

/// Input sizes of every workload that differ between the recorded
/// benchmark and the smoke tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `cluster_scale` tasks (chains of depth 4).
    pub cluster_tasks: usize,
    /// `cluster_scale` fleet size.
    pub cluster_devices: usize,
    /// `all_pillars` tasks (chains of depth 4).
    pub pillar_tasks: usize,
    /// Churn events over the `all_pillars` fixed-fleet makespan.
    pub churn_events: usize,
    /// `tenant_stream` tenants.
    pub tenants: usize,
    /// Submissions each tenant attempts during set-up.
    pub backlog: usize,
    /// Streaming rounds after set-up.
    pub rounds: usize,
}

impl Sizes {
    /// The recorded benchmark sizes.
    #[must_use]
    pub fn full() -> Sizes {
        Sizes {
            cluster_tasks: 200_000,
            cluster_devices: 1024,
            pillar_tasks: 100_000,
            churn_events: 16,
            tenants: 128,
            backlog: 64,
            rounds: 12,
        }
    }

    /// Reduced sizes for the smoke tests: same shapes, every check on.
    #[must_use]
    pub fn smoke() -> Sizes {
        Sizes {
            cluster_tasks: 4_000,
            cluster_devices: 64,
            pillar_tasks: 4_000,
            churn_events: 8,
            tenants: 16,
            backlog: 8,
            rounds: 8,
        }
    }
}

/// Deterministic outputs of one iteration: the `sim_*` metrics,
/// `completion_ratio`, `placement.evals` and every simulated per-layer
/// counter. Two iterations of one seed must agree bit for bit.
pub type Outputs = BTreeMap<&'static str, f64>;

/// Host measurements and outputs of one iteration.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Host seconds from nothing to ready-to-run.
    pub setup_s: f64,
    /// Host seconds of the timed phase (after set-up to final report).
    pub drive_s: f64,
    /// Tasks the caller attempted (submissions on `tenant_stream`).
    pub attempted: u64,
    /// Distinct tasks completed.
    pub completed: u64,
    /// Tasks that failed or were poisoned (admission refusals are not
    /// failures: they are the documented backpressure answer).
    pub failed: u64,
    /// Host latency of the calls the caller blocked on, µs —
    /// `Service::step` on `tenant_stream`, the one drive to quiescence
    /// on the batch workloads: the median, the tail (p99, or the highest
    /// percentile with ten samples beyond it), and the sample count.
    pub step: Latency,
    /// Events processed (traced iterations only).
    pub events: Option<u64>,
    /// `Runtime::report` builds performed inside the drive phase.
    pub report_calls: u64,
    /// Deterministic outputs.
    pub outputs: Outputs,
    /// Correctness-check violations.
    pub violations: Vec<String>,
    /// Host slowdown while the iteration ran, set by
    /// [`bench::run`](crate::bench::run): host times are divided by it.
    pub slowdown: f64,
}

/// Latency percentiles of one iteration's blocking calls, µs.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Median.
    pub p50_us: f64,
    /// p99, or the highest percentile with ten samples beyond it.
    pub tail_us: f64,
    /// The percentile `tail_us` is at.
    pub tail_q: f64,
    /// Calls measured.
    pub samples: usize,
}

impl Latency {
    /// Percentiles of `samples_us` (reordered in place).
    fn of(samples_us: &mut [f64]) -> Latency {
        let tail_q = tail_quantile(samples_us.len());
        Latency {
            p50_us: percentile(samples_us, 0.5),
            tail_us: percentile(samples_us, tail_q),
            tail_q,
            samples: samples_us.len(),
        }
    }
}

/// The highest percentile, at most p99, with at least ten of `n`
/// samples beyond it; p50 when even that has fewer.
fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

impl Iteration {
    /// Completed tasks per host second of the drive phase.
    #[must_use]
    pub fn tasks_per_s(&self) -> f64 {
        self.completed as f64 / self.drive_s
    }
}

/// Run one iteration of `workload`. Traced iff `tracer` is enabled.
///
/// # Errors
///
/// A description of the first runtime call that failed unexpectedly.
pub fn run_iteration(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Iteration, String> {
    tracer.open("iteration");
    let it = match workload {
        Workload::ClusterScale => cluster_scale(sizes, seed, tracer),
        Workload::AllPillars => all_pillars(sizes, seed, tracer),
        Workload::TenantStream => tenant_stream(sizes, seed, tracer),
    };
    tracer.close();
    it
}

/// Bulk-submit `flops.len()` tasks as `flops.len() / 4` region chains of
/// depth 4; `requirements(chain)` gives each chain's task requirements.
fn submit_chains(rt: &mut Runtime, flops: &[f64], requirements: impl Fn(usize) -> Requirements) {
    let tasks = flops.len();
    let width = tasks / 4;
    let mut builder = GraphBuilder::with_capacity(tasks, tasks).with_region_capacity(width);
    for (i, &f) in flops.iter().enumerate() {
        let chain = i % width;
        builder.task(
            TaskDescriptor::named("t")
                .with_work(Work::flops(f))
                .with_requirements(requirements(chain)),
            [(chain as u64, AccessMode::InOut)],
        );
    }
    rt.reserve(tasks, tasks - width);
    rt.submit_batch(builder);
}

fn cluster_scale(s: &Sizes, seed: u64, tr: &mut Tracer) -> Result<Iteration, String> {
    let t0 = Instant::now();
    tr.open("setup");
    let fleet = tr.span("inputs", || round_robin_fleet(s.cluster_devices));
    let mut rt = tr
        .span("config", || {
            EngineConfig::new()
                .with_devices(fleet)
                .with_policy(Policy::Performance)
                .with_seed(seed)
                .with_pools(PoolConfig::uniform(s.cluster_devices, 16))
                .build()
        })
        .map_err(|e| format!("cluster_scale config: {e}"))?;
    tr.span("graph", || {
        let flops = task_flops(&mut SplitMix64::new(seed, 1), s.cluster_tasks, 1.0e12);
        submit_chains(&mut rt, &flops, |_| Requirements::new());
    });
    let analysis = tr.span("analyze", || rt.analyze());
    tr.close();
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    tr.open("drive");
    let (report, events) = drive_batch(&mut rt, tr, false, &[]);
    tr.close();
    let drive_s = t1.elapsed().as_secs_f64();
    let report = report.map_err(|e| format!("cluster_scale run: {e}"))?;

    let mut it = batch_iteration(&rt, &report, s.cluster_tasks, setup_s, drive_s, events);
    it.outputs
        .insert("analyze.findings", analysis.diagnostics.len() as f64);
    if !analysis.is_clean() {
        it.violations.push(format!(
            "cluster_scale: analysis found {} error(s)",
            analysis.error_count()
        ));
    }
    if !report.is_correct() {
        it.violations
            .push("cluster_scale: RunReport::is_correct() is false".into());
    }
    Ok(it)
}

/// Share of `all_pillars` chains at each security level, and of public
/// chains made `Critical` (triple-replicated, voted).
const ENCLAVE_SHARE: f64 = 0.10;
const CONFIDENTIAL_SHARE: f64 = 0.20;
const CRITICAL_SHARE: f64 = 0.02;

fn all_pillars(s: &Sizes, seed: u64, tr: &mut Tracer) -> Result<Iteration, String> {
    let t0 = Instant::now();
    tr.open("setup");
    let (fleet, flops, chains, region_sizes, trace) = tr.span("inputs", || {
        let fleet = round_robin_fleet(SMALL_FLEET);
        let flops = task_flops(&mut SplitMix64::new(seed, 2), s.pillar_tasks, 0.5e12);
        let mut rng = SplitMix64::new(seed, 3);
        let width = s.pillar_tasks / 4;
        let chains: Vec<Requirements> = (0..width).map(|_| chain_requirements(&mut rng)).collect();
        let region_sizes: HashMap<RegionId, Bytes> = (0..width)
            .map(|c| (RegionId(c as u64), Bytes::mib(1 + rng.next_u64() % 16)))
            .collect();
        let horizon = CHURN_HORIZON_PER_TASK * s.pillar_tasks as f64;
        let trace = churn_trace(&mut rng, fleet.len(), horizon, s.churn_events);
        (fleet, flops, chains, region_sizes, trace)
    });
    let churn_at: Vec<f64> = trace.events().iter().map(|e| e.at.0).collect();
    // Mean task duration on the fleet's first (Xeon) device.
    let mean_task = Seconds(flops.iter().sum::<f64>() / flops.len() as f64 / fleet[0].peak_flops);
    let mut rt = tr
        .span("config", || {
            EngineConfig::new()
                .with_devices(fleet)
                .with_policy(Policy::Weighted(0.5))
                .with_seed(seed)
                .with_pools(PoolConfig::uniform(SMALL_FLEET, 8))
                .with_topology(
                    TopologyConfig::new(LinkModel::new(
                        BytesPerSec::gib_per_sec(5.0),
                        Seconds::from_micros(20.0),
                    ))
                    .with_default_region_size(Bytes::mib(8)),
                )
                .with_security(SecurityConfig::new().with_region_sizes(region_sizes.clone()))
                .with_energy(EnergyConfig::new().with_uniform_step(1))
                .with_resilience(
                    ResilienceConfig::new(mean_task * 256.0)
                        .with_region_sizes(region_sizes)
                        .with_max_rollbacks(100_000),
                )
                .with_analysis(AnalysisConfig::new())
                .with_churn(ChurnConfig::new(trace))
                .build()
        })
        .map_err(|e| format!("all_pillars config: {e}"))?;
    tr.span("graph", || submit_chains(&mut rt, &flops, |c| chains[c]));
    tr.close();
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    tr.open("drive");
    let (report, events) = drive_batch(&mut rt, tr, true, &churn_at);
    tr.close();
    let drive_s = t1.elapsed().as_secs_f64();
    let report = report.map_err(|e| format!("all_pillars run: {e}"))?;

    let mut it = batch_iteration(&rt, &report, s.pillar_tasks, setup_s, drive_s, events);
    let findings = report.analysis.as_ref().map_or(0, |a| a.diagnostics.len());
    it.outputs.insert("analyze.findings", findings as f64);
    check_pillars(&rt, &report, &mut it.violations);
    Ok(it)
}

/// One `all_pillars` chain's task requirements.
fn chain_requirements(rng: &mut SplitMix64) -> Requirements {
    let u = rng.unit();
    let level = if u < ENCLAVE_SHARE {
        SecurityLevel::Enclave
    } else if u < ENCLAVE_SHARE + CONFIDENTIAL_SHARE {
        SecurityLevel::Confidential
    } else {
        SecurityLevel::Public
    };
    let critical = level == SecurityLevel::Public && rng.unit() < CRITICAL_SHARE;
    Requirements::new()
        .with_security(level)
        .with_criticality(if critical {
            Criticality::Critical
        } else {
            Criticality::Normal
        })
}

/// Every enclave task ran on TEE-capable devices only, and every task is
/// placed, failed, or poisoned downstream of a failed task.
fn check_pillars(rt: &Runtime, report: &RunReport, violations: &mut Vec<String>) {
    let graph = rt.graph();
    let mut placed = vec![false; graph.len()];
    for p in &report.placements {
        placed[p.task.index()] = true;
        let enclave = graph
            .descriptor(p.task)
            .is_ok_and(|d| d.requirements.security.requires_enclave());
        if enclave
            && !p
                .devices
                .iter()
                .all(|&d| rt.devices()[d].spec.tee.has_enclave())
        {
            violations.push(format!(
                "all_pillars: enclave task {} ran off-TEE",
                p.task.0
            ));
        }
    }
    for f in &report.failed {
        placed[f.index()] = true;
    }
    for (i, _) in placed.iter().enumerate().filter(|(_, &ok)| !ok) {
        let id = TaskId(i as u64);
        let poisoned = graph.state(id) == Ok(TaskState::Poisoned)
            && graph.root_cause(id).is_ok_and(|roots| !roots.is_empty());
        if !poisoned {
            violations.push(format!(
                "all_pillars: task {i} neither placed, failed nor poisoned"
            ));
        }
    }
}

/// Drive a batch runtime to quiescence, re-entering after per-task
/// deferral expiries (the only refusal churn may legally raise).
///
/// Untraced: `Runtime::run`. Traced: `Runtime::step`, one `engine` span
/// per event, then one `report` span. A step that runs the configured
/// analysis pass before its event is an `analyze` span instead: the
/// first step when `analysis` is on, and the step after each churn
/// event (`churn_at`, sorted), since every fleet change invalidates the
/// analysis memo that `Runtime::step` re-checks on entry.
fn drive_batch(
    rt: &mut Runtime,
    tr: &mut Tracer,
    analysis: bool,
    churn_at: &[f64],
) -> (Result<RunReport, RuntimeError>, Option<u64>) {
    if !tr.enabled() {
        loop {
            match rt.run() {
                Err(RuntimeError::DeferralExpired(_)) => {}
                other => return (other, None),
            }
        }
    }
    let mut events = 0u64;
    let mut analyzes = analysis;
    loop {
        let layer = if analyzes { "analyze" } else { "engine" };
        match tr.span(layer, || rt.step()) {
            Ok(Some(t)) => {
                events += 1;
                analyzes = analysis && churn_at.binary_search_by(|c| c.total_cmp(&t.0)).is_ok();
            }
            Ok(None) => break,
            Err(RuntimeError::DeferralExpired(_)) => analyzes = false,
            Err(e) => return (Err(e), Some(events)),
        }
    }
    (Ok(tr.span("report", || rt.report())), Some(events))
}

/// Nearest-rank percentile `q` of `values` (sorted in place).
#[must_use]
pub(crate) fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Outputs and host figures shared by the batch workloads.
fn batch_iteration(
    rt: &Runtime,
    report: &RunReport,
    tasks: usize,
    setup_s: f64,
    drive_s: f64,
    events: Option<u64>,
) -> Iteration {
    let mut finishes: Vec<f64> = report.placements.iter().map(|p| p.finish.0).collect();
    let completed = report.placements.len() as u64;
    let mut out = Outputs::new();
    out.insert("sim_makespan_s", report.makespan.0);
    out.insert("sim_energy_j", report.total_energy.0);
    // Every batch task is submitted at virtual time zero.
    out.insert("sim_p99_latency_s", percentile(&mut finishes, 0.99));
    out.insert("completion_ratio", completed as f64 / tasks as f64);
    out.insert("placement.evals", rt.placement_evals() as f64);
    out.insert("graph.tasks", tasks as f64);
    pillar_counters(&mut out, &[report]);
    Iteration {
        setup_s,
        drive_s,
        attempted: tasks as u64,
        completed,
        failed: tasks as u64 - completed,
        step: Latency::of(&mut [drive_s * 1e6]),
        events,
        report_calls: 1,
        outputs: out,
        violations: Vec::new(),
        slowdown: 1.0,
    }
}

/// Simulated per-layer counters summed over `reports` (one per engine
/// generation).
fn pillar_counters(out: &mut Outputs, reports: &[&RunReport]) {
    let mut add = |k: &'static str, v: f64| *out.entry(k).or_insert(0.0) += v;
    for r in reports {
        let replicas: usize = r.placements.iter().map(|p| p.devices.len()).sum();
        let useful: f64 = r.placements.iter().map(|p| (p.finish - p.start).0).sum();
        add("replication.replicas", replicas as f64);
        add("replication.placements", r.placements.len() as f64);
        add("resilience.useful_s", useful);
        let sec = r.security.unwrap_or_default();
        add("security.enclave_tasks", sec.enclave_tasks as f64);
        add("security.confidential_tasks", sec.confidential_tasks as f64);
        add("security.attestations", sec.attestations as f64);
        add("security.sealed_bytes", sec.sealed_bytes.0 as f64);
        add("security.premium_s", (sec.enclave_time + sec.seal_time).0);
        let res = r.resilience.unwrap_or_default();
        add("resilience.checkpoints", res.checkpoints as f64);
        add("resilience.rollbacks", res.rollbacks as f64);
        add("resilience.checkpoint_bytes", res.checkpoint_bytes.0 as f64);
        add("resilience.wasted_s", res.wasted_work.0);
        let en = r.energy.unwrap_or_default();
        add("energy.busy_j", r.busy_energy.0);
        add("energy.idle_j", (r.total_energy - r.busy_energy).0);
        add("energy.bound_relaxations", en.bound_relaxations as f64);
        let ch = r.churn.unwrap_or_default();
        add("churn.departures", ch.departures as f64);
        add("churn.crashes", ch.crashes as f64);
        add("churn.migrations", ch.migrations as f64);
        add("churn.respreads", ch.respreads as f64);
        add("churn.deferred_placements", ch.deferred_placements as f64);
        add("churn.wasted_s", ch.wasted_work.0);
    }
}

/// Every `SEAL_EVERY` rounds the caller seals all sessions.
const SEAL_EVERY: usize = 4;
/// Traced `tenant_stream` iterations time one extra `Runtime::report`
/// on the engine's state after every `SHADOW_EVERY`-th step.
const SHADOW_EVERY: u64 = 16;

/// One tenant's service-level parameters.
fn tenant_spec(t: usize) -> TenantSpec {
    let spec = TenantSpec::new().with_share(1.0 + (t % 4) as f64);
    let spec = if t % 8 == 7 {
        spec.confidential()
    } else {
        spec
    };
    if t % 5 == 4 {
        spec.with_budget(3)
    } else {
        spec
    }
}

/// Dispatch times of one engine generation: engine task ids
/// `[first, next first)` were dispatched at the paired virtual time.
#[derive(Default)]
struct Dispatches(Vec<(u64, f64)>);

impl Dispatches {
    fn mark(&mut self, rt: &Runtime) {
        self.0.push((rt.graph().len() as u64, rt.now().0));
    }

    fn latencies(&self, report: &RunReport, into: &mut Vec<f64>) {
        for p in &report.placements {
            let k = self.0.partition_point(|&(first, _)| first <= p.task.0);
            into.push(p.finish.0 - self.0[k - 1].1);
        }
    }
}

fn tenant_stream(s: &Sizes, seed: u64, tr: &mut Tracer) -> Result<Iteration, String> {
    let err = |what: &str, e: RuntimeError| format!("tenant_stream {what}: {e}");
    let t0 = Instant::now();
    tr.open("setup");
    let per_tenant = s.backlog + s.rounds * PER_ROUND;
    let (fleet, flops) = tr.span("inputs", || {
        let flops = task_flops(
            &mut SplitMix64::new(seed, 4),
            s.tenants * per_tenant,
            0.5e12,
        );
        (round_robin_fleet(SMALL_FLEET), flops)
    });
    let region_sizes: HashMap<RegionId, Bytes> =
        (0..4).map(|r| (RegionId(r), Bytes::mib(16 << r))).collect();
    let mut svc = tr
        .span("config", || {
            ServiceConfig::new(
                EngineConfig::new()
                    .with_devices(fleet)
                    .with_policy(Policy::Performance)
                    .with_seed(seed),
            )
            .with_region_sizes(region_sizes)
            .build()
        })
        .map_err(|e| err("config", e))?;
    tr.span("service.register", || {
        (0..s.tenants).try_for_each(|t| svc.register(tenant_spec(t)).map(|_| ()))
    })
    .map_err(|e| err("register", e))?;
    let mut next = vec![0usize; s.tenants];
    let mut admitted = 0u64;
    let mut submit_round = |svc: &mut Service, tr: &mut Tracer, count: usize| {
        for (t, k) in next.iter_mut().enumerate() {
            for _ in 0..count {
                let desc =
                    TaskDescriptor::named("svc").with_work(Work::flops(flops[t * per_tenant + *k]));
                let region = (*k % 4) as u64;
                *k += 1;
                let r = tr.span("service.submit", || {
                    svc.submit(TenantId(t as u32), desc, [(region, AccessMode::InOut)])
                });
                match r {
                    Ok(_) => admitted += 1,
                    Err(RuntimeError::AdmissionRejected { .. }) => {}
                    Err(e) => return Err(err("submit", e)),
                }
            }
        }
        Ok(())
    };
    submit_round(&mut svc, tr, s.backlog)?;
    tr.close();
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut untimed = 0.0;
    tr.open("drive");
    let mut step_us = Vec::with_capacity(4 * s.tenants * per_tenant);
    let (mut events, mut steps, mut report_calls) = (0u64, 0u64, 0u64);
    let mut latencies = Vec::new();
    let mut dispatches = Dispatches::default();
    let mut generations: Vec<RunReport> = Vec::new();
    let mut evals = 0u64;
    // Restart after a round no seal covers, so that round re-executes.
    let restart_after = s.rounds / 2 + 2;
    debug_assert_ne!((restart_after + 1) % SEAL_EVERY, 0);
    for round in 0..=s.rounds {
        if round > 0 {
            submit_round(&mut svc, tr, PER_ROUND)?;
        }
        dispatches.mark(svc.engine());
        loop {
            let t = Instant::now();
            let r = tr.span("service.step", || svc.step());
            step_us.push(t.elapsed().as_secs_f64() * 1e6);
            steps += 1;
            report_calls += 1;
            if tr.enabled() && steps % SHADOW_EVERY == 0 {
                let _ = tr.span("report", || svc.engine().report());
            }
            match r {
                Ok(Some(_)) => events += 1,
                Ok(None) => break,
                Err(e) => return Err(err("step", e)),
            }
        }
        if (round + 1) % SEAL_EVERY == 0 {
            tr.span("service.seal", || svc.seal());
        }
        if round == restart_after {
            let u = Instant::now();
            let gen = svc.engine().report();
            dispatches.latencies(&gen, &mut latencies);
            dispatches = Dispatches::default();
            generations.push(gen);
            evals += svc.engine().placement_evals();
            untimed += u.elapsed().as_secs_f64();
            tr.span("service.restart", || svc.restart())
                .map_err(|e| err("restart", e))?;
        }
    }
    dispatches.mark(svc.engine());
    let last = tr
        .span("service.run", || svc.run())
        .map_err(|e| err("run", e))?;
    report_calls += 1;
    let meters: Vec<_> = tr.span("service.meter", || {
        (0..s.tenants)
            .map(|t| *svc.tenant_report(TenantId(t as u32)))
            .collect()
    });
    tr.close();
    let drive_s = t1.elapsed().as_secs_f64() - untimed;
    dispatches.latencies(&last, &mut latencies);
    generations.push(last);

    let attempted = (s.tenants * per_tenant) as u64;
    let placements: u64 = generations.iter().map(|g| g.placements.len() as u64).sum();
    let failed: u64 = generations.iter().map(|g| g.failed.len() as u64).sum();
    let queued: usize = (0..s.tenants).map(|t| svc.queued(TenantId(t as u32))).sum();
    let metered_done: u64 = meters.iter().map(|m| m.tasks_completed).sum();
    let rejected: u64 = meters.iter().map(|m| m.admission_rejections).sum();
    // The Service's own account of what it admitted: `run()` seals every
    // completed task, so each admitted task is now either in its tenant's
    // session record (once) or still queued.
    let completed: u64 = (0..s.tenants)
        .filter_map(|t| svc.session(TenantId(t as u32)))
        .map(|c| c.completed.len() as u64)
        .sum();
    let svc_admitted = completed + queued as u64;

    let mut violations = Vec::new();
    if svc_admitted + rejected != attempted || svc_admitted != admitted {
        violations.push(format!(
            "tenant_stream: service admitted {svc_admitted} (sealed {completed} + queued {queued}) \
             + metered rejections {rejected} != attempted {attempted}, or != {admitted} accepted submissions"
        ));
    }
    if metered_done != placements {
        violations.push(format!(
            "tenant_stream: metered completions {metered_done} != completed placements {placements}"
        ));
    }
    if queued != 0 || failed != 0 {
        violations.push(format!(
            "tenant_stream: {queued} queued, {failed} failed after run()"
        ));
    }

    let mut out = Outputs::new();
    out.insert(
        "sim_makespan_s",
        generations.iter().map(|g| g.makespan.0).sum(),
    );
    out.insert(
        "sim_energy_j",
        generations.iter().map(|g| g.total_energy.0).sum(),
    );
    out.insert("sim_p99_latency_s", percentile(&mut latencies, 0.99));
    out.insert("completion_ratio", completed as f64 / attempted as f64);
    out.insert(
        "placement.evals",
        (evals + svc.engine().placement_evals()) as f64,
    );
    out.insert("graph.tasks", admitted as f64);
    out.insert("analyze.findings", 0.0);
    out.insert("service.admitted", admitted as f64);
    out.insert("service.rejected", rejected as f64);
    out.insert("service.reexecuted", (placements - completed) as f64);
    pillar_counters(&mut out, &generations.iter().collect::<Vec<_>>());
    Ok(Iteration {
        setup_s,
        drive_s,
        attempted,
        completed,
        failed,
        step: Latency::of(&mut step_us),
        events: tr.enabled().then_some(events),
        report_calls,
        outputs: out,
        violations,
        slowdown: 1.0,
    })
}
