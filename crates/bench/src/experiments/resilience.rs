//! E9 — fault injection: checkpoint/restart vs retry-only execution.
//!
//! The paper's §IV claim is about *sustained execution*: task-aware
//! checkpointing lets the same application survive systems with several
//! times smaller MTBF at a fixed overhead. This experiment reproduces
//! the shape end to end on the event engine:
//!
//! * a ≥ 1k-task fan-out/fan-in graph of reliability-`High` tasks (dual
//!   replication — faults are *detected*, so the retry budget is the
//!   recovery mechanism of record);
//! * per-device fault probabilities derived from a scenario MTBF via the
//!   exponential failure law `p = 1 − exp(−t̄/MTBF)` over the mean task
//!   duration;
//! * three execution modes: retry-only (a failure poisons the downstream
//!   cone), and checkpoint/restart under the FTI `Initial` and `Async`
//!   strategies.
//!
//! At generous MTBFs all modes finish everything. As the MTBF shrinks,
//! retry-only starts losing large parts of the graph while
//! checkpoint/restart keeps completing it — and `Async` pays visibly
//! less makespan overhead than `Initial` for the same protection, the
//! Fig. 6 gap surfaced at the application level. `tests/full_stack.rs`
//! asserts both, and the `resilience` criterion bench records the rows
//! in `BENCH_resilience.json`.

use std::collections::HashMap;

use legato_core::requirements::{Criticality, Requirements};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskKind, Work};
use legato_core::units::{Bytes, Seconds};
use legato_fti::Strategy;
use legato_runtime::{EngineConfig, Policy, ResilienceConfig, Runtime};

use super::goals::reference_devices;

/// Region carrying the scatter task's fan-out output.
const SCATTER_REGION: u64 = 0;
/// First region id used by chains (one private region per chain).
const CHAIN_REGION_BASE: u64 = 1;

/// How the engine reacts to a task that exhausts its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptMode {
    /// Retry-only: the failure poisons the downstream cone.
    RetryOnly,
    /// Checkpoint/restart with the synchronous FTI strategy.
    Initial,
    /// Checkpoint/restart with the asynchronous FTI strategy.
    Async,
}

impl CkptMode {
    /// All three modes, retry-only first.
    pub const ALL: [CkptMode; 3] = [CkptMode::RetryOnly, CkptMode::Initial, CkptMode::Async];

    /// Human-readable label (used in bench ids and tables).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CkptMode::RetryOnly => "retry-only",
            CkptMode::Initial => "ckpt-initial",
            CkptMode::Async => "ckpt-async",
        }
    }
}

/// The fault-injection workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Number of independent chains behind the scatter task.
    pub chains: usize,
    /// Tasks per chain.
    pub depth: usize,
    /// Work per task.
    pub work: Work,
    /// Declared size of each chain's data region.
    pub region_bytes: Bytes,
    /// Retry budget per task (small, so the checkpoint path matters).
    pub max_retries: u32,
}

impl Scenario {
    /// The reference scenario: ≥ 1k seconds-scale tasks across 64 chains.
    #[must_use]
    pub fn reference() -> Self {
        Scenario {
            chains: 64,
            depth: 16,
            work: Work::flops(2e12),
            region_bytes: Bytes::mib(8),
            max_retries: 1,
        }
    }

    /// Total tasks the scenario submits (scatter + chains + gather).
    #[must_use]
    pub fn tasks(&self) -> usize {
        self.chains * self.depth + 2
    }

    /// Mean task duration on the reference devices under the performance
    /// policy (the fastest device's time — what the scheduler layer
    /// predicts for every placement).
    #[must_use]
    pub fn mean_task_duration(&self) -> Seconds {
        reference_devices()
            .iter()
            .map(|d| d.time_for(self.work, TaskKind::Compute))
            .fold(Seconds(f64::INFINITY), Seconds::min)
    }

    /// Declared per-region sizes (scatter + one region per chain).
    #[must_use]
    pub fn region_sizes(&self) -> HashMap<RegionId, Bytes> {
        let mut sizes = HashMap::new();
        sizes.insert(RegionId(SCATTER_REGION), self.region_bytes);
        for c in 0..self.chains as u64 {
            sizes.insert(RegionId(CHAIN_REGION_BASE + c), self.region_bytes);
        }
        sizes
    }

    /// Submit the scatter → chains → gather graph into `rt`. Every chain
    /// task is reliability-`High` (dual replication), so device faults
    /// are detected rather than silent.
    pub fn build(&self, rt: &mut Runtime) {
        rt.submit(
            TaskDescriptor::named("scatter").with_work(Work::flops(1e9)),
            [(SCATTER_REGION, AccessMode::Out)],
        );
        for c in 0..self.chains as u64 {
            let region = CHAIN_REGION_BASE + c;
            for d in 0..self.depth {
                let mut accesses = vec![(region, AccessMode::InOut)];
                if d == 0 {
                    accesses.push((SCATTER_REGION, AccessMode::In));
                }
                // Static task-type label (see the engine scenario): no
                // per-instance name allocation inside the timed build.
                rt.submit(
                    TaskDescriptor::named("chain")
                        .with_kind(TaskKind::Compute)
                        .with_work(self.work)
                        .with_requirements(Requirements::new().with_criticality(Criticality::High)),
                    accesses,
                );
            }
        }
        rt.submit(
            TaskDescriptor::named("gather").with_work(Work::flops(1e9)),
            (0..self.chains as u64)
                .map(|c| (CHAIN_REGION_BASE + c, AccessMode::In))
                .collect::<Vec<_>>(),
        );
    }
}

/// Per-execution fault probability of a device with the given `mtbf`,
/// for tasks of mean duration `mean_task`: the exponential failure law
/// `p = 1 − exp(−t̄ / MTBF)`.
#[must_use]
pub fn fault_prob_for_mtbf(mtbf: Seconds, mean_task: Seconds) -> f64 {
    (1.0 - (-mean_task.0 / mtbf.0.max(1e-12)).exp()).clamp(0.0, 1.0)
}

/// One `(MTBF, mode)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct ResilienceRow {
    /// Scenario MTBF.
    pub mtbf: Seconds,
    /// Execution mode label.
    pub mode: &'static str,
    /// Tasks in the graph.
    pub tasks: usize,
    /// Tasks that completed.
    pub completed: usize,
    /// Tasks that failed outright (retry budget and — for checkpoint
    /// modes — rollback budget exhausted).
    pub failed: usize,
    /// Completion time of the last completed task.
    pub makespan: Seconds,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Completed work discarded by rollbacks.
    pub wasted: Seconds,
    /// Total checkpoint traffic (task-aware frontier volumes).
    pub checkpoint_bytes: Bytes,
}

impl ResilienceRow {
    /// Whether the whole graph completed.
    #[must_use]
    pub fn survived(&self) -> bool {
        self.completed == self.tasks
    }
}

/// Execute `scenario` once at the given MTBF and mode. Deterministic per
/// `seed`.
#[must_use]
pub fn run_scenario(scenario: Scenario, mtbf: Seconds, mode: CkptMode, seed: u64) -> ResilienceRow {
    let mut cfg = EngineConfig::new()
        .with_devices(reference_devices())
        .with_policy(Policy::Performance)
        .with_seed(seed)
        .with_max_retries(scenario.max_retries);
    match mode {
        CkptMode::RetryOnly => {}
        CkptMode::Initial | CkptMode::Async => {
            let strategy = if mode == CkptMode::Initial {
                Strategy::Initial
            } else {
                Strategy::Async
            };
            cfg = cfg.with_resilience(
                ResilienceConfig::new(mtbf)
                    .with_strategy(strategy)
                    .with_region_sizes(scenario.region_sizes())
                    .with_max_rollbacks(10_000),
            );
        }
    }
    let p = fault_prob_for_mtbf(mtbf, scenario.mean_task_duration());
    for i in 0..reference_devices().len() {
        cfg = cfg.with_fault_prob(i, p);
    }
    let mut rt = cfg.build().expect("valid engine config");
    scenario.build(&mut rt);
    let report = rt.run().expect("devices present");
    let res = report.resilience.unwrap_or_default();
    ResilienceRow {
        mtbf,
        mode: mode.label(),
        tasks: scenario.tasks(),
        completed: report.placements.len(),
        failed: report.failed.len(),
        makespan: report.makespan,
        checkpoints: res.checkpoints,
        rollbacks: res.rollbacks,
        wasted: res.wasted_work,
        checkpoint_bytes: res.checkpoint_bytes,
    }
}

/// The reference MTBF grid, generous → hostile, in units of the mean
/// task duration (`t̄ × {256, 64, 16}`), with the labels the `resilience`
/// bench records them under. This is the single definition of the grid —
/// the bench iterates it, so `BENCH_resilience.json` rows can never
/// drift from the experiment.
#[must_use]
pub fn reference_mtbfs(scenario: Scenario) -> Vec<(&'static str, Seconds)> {
    let t = scenario.mean_task_duration();
    vec![
        ("mtbf_256x", t * 256.0),
        ("mtbf_64x", t * 64.0),
        ("mtbf_16x", t * 16.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_wide_enough() {
        let s = Scenario::reference();
        assert!(s.tasks() >= 1000, "need ≥ 1k tasks, got {}", s.tasks());
        let mut rt = EngineConfig::new()
            .with_devices(reference_devices())
            .with_policy(Policy::Performance)
            .with_seed(1)
            .build()
            .expect("valid engine config");
        s.build(&mut rt);
        assert_eq!(rt.graph().len(), s.tasks());
        assert_eq!(rt.graph().ready().len(), 1, "only the scatter is ready");
    }

    #[test]
    fn fault_law_is_monotone_in_mtbf() {
        let t = Seconds(0.5);
        let hostile = fault_prob_for_mtbf(Seconds(1.0), t);
        let benign = fault_prob_for_mtbf(Seconds(1_000.0), t);
        assert!(hostile > benign);
        assert!((0.0..=1.0).contains(&hostile));
        assert!(benign < 0.001);
    }

    #[test]
    fn benign_mtbf_everyone_survives() {
        let s = Scenario::reference();
        let mtbf = s.mean_task_duration() * 100_000.0;
        for mode in CkptMode::ALL {
            let row = run_scenario(s, mtbf, mode, 42);
            assert!(row.survived(), "{} lost tasks: {row:?}", row.mode);
        }
    }

    #[test]
    fn hostile_mtbf_checkpointing_survives_retry_only_does_not() {
        let s = Scenario::reference();
        let mtbf = s.mean_task_duration() * 16.0;
        let retry = run_scenario(s, mtbf, CkptMode::RetryOnly, 42);
        let ckpt = run_scenario(s, mtbf, CkptMode::Async, 42);
        assert!(
            !retry.survived(),
            "retry-only should lose the cone: {retry:?}"
        );
        assert!(ckpt.survived(), "checkpointing must survive: {ckpt:?}");
        assert!(ckpt.rollbacks > 0 && ckpt.checkpoints > 0);
    }

    #[test]
    fn async_overhead_below_initial_at_same_mtbf() {
        let s = Scenario::reference();
        let mtbf = s.mean_task_duration() * 64.0;
        let initial = run_scenario(s, mtbf, CkptMode::Initial, 42);
        let async_ = run_scenario(s, mtbf, CkptMode::Async, 42);
        assert!(initial.survived() && async_.survived());
        assert!(
            async_.makespan < initial.makespan,
            "async {} vs initial {}",
            async_.makespan,
            initial.makespan
        );
    }
}
