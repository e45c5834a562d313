//! Equivalence properties pinning the allocation-free engine refactor.
//!
//! The hot-path rework (inline replica sets, scratch buffers, the
//! ready-FIFO/heap split, bitmap ready/completed tracking, incremental
//! live-region volumes) must not change *what* the engine computes, only
//! how fast. Three contracts pin that:
//!
//! * **Streaming ≡ batched** — driving the engine with interleaved
//!   `submit()`/`step()` waves produces the identical [`RunReport`] and
//!   rollback trace as `run()` over the same waves, with and without
//!   resilience enabled (checkpoints, rollbacks and all).
//! * **Closed form on serial chains** — fault-free, every device is
//!   idle whenever the next chain task becomes ready, so each task lands
//!   on the policy's top-`k` devices for its own estimates and the
//!   chain runs back to back: placements, starts, finishes and makespan
//!   follow exactly. Under an active fault model every task is still
//!   accounted for exactly once (placed, failed or poisoned), replica
//!   and retry counters match the chain, and no task starts before its
//!   predecessor finished.
//! * **Report shape** — placements come out sorted by task id with at
//!   most one outcome per task, whatever order completions happened in
//!   (the outcome log is indexed, not sorted; this pins the invariant).
//! * **Security equivalences** — with confidential tasks in the mix,
//!   the same seed still yields a bit-identical report (including
//!   [`SecurityStats`]) through either interface, enclave-only tasks
//!   only ever land on TEE devices, and an all-public workload on a
//!   security-configured runtime is bit-identical to one on a runtime
//!   that never heard of security (the layer is pay-for-what-you-use).
//!
//! [`RunReport`]: legato_runtime::RunReport
//! [`SecurityStats`]: legato_runtime::SecurityStats

use std::collections::HashMap;

use legato_core::graph::TaskState;
use legato_core::requirements::{Criticality, Requirements, SecurityLevel};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskId, TaskKind, Work};
use legato_core::units::{Bytes, Seconds};
use legato_hw::device::DeviceSpec;
use legato_runtime::{
    EngineConfig, Estimate, Policy, ResilienceConfig, RunReport, Runtime, Scheduler, SecurityConfig,
};
use proptest::prelude::*;

/// Chains → tasks → (flops, criticality selector, security selector).
type ChainSpec = Vec<Vec<(f64, u8, u8)>>;

fn chains_strategy() -> impl Strategy<Value = ChainSpec> {
    prop::collection::vec(
        prop::collection::vec((5e11f64..4e12, 0u8..3, 0u8..3), 1..8),
        1..6,
    )
}

/// Like [`chains_strategy`] but every task is public.
fn public_chains_strategy() -> impl Strategy<Value = ChainSpec> {
    prop::collection::vec(
        prop::collection::vec((5e11f64..4e12, 0u8..3, Just(0u8)), 1..8),
        1..6,
    )
}

fn devices() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::xeon_x86(),
        DeviceSpec::gtx1080(),
        DeviceSpec::fpga_kintex(),
    ]
}

fn criticality(sel: u8) -> Criticality {
    match sel {
        0 => Criticality::Normal,
        1 => Criticality::High,
        _ => Criticality::Critical,
    }
}

fn security(sel: u8) -> SecurityLevel {
    match sel {
        0 => SecurityLevel::Public,
        1 => SecurityLevel::Confidential,
        _ => SecurityLevel::Enclave,
    }
}

/// Submit every chain task; chain `c` serializes on its private region.
fn submit_wave(rt: &mut Runtime, chains: &ChainSpec) {
    for (c, chain) in chains.iter().enumerate() {
        for &(flops, crit, sec) in chain {
            rt.submit(
                TaskDescriptor::named("t")
                    .with_work(Work::flops(flops))
                    .with_requirements(
                        Requirements::new()
                            .with_criticality(criticality(crit))
                            .with_security(security(sec)),
                    ),
                [(c as u64, AccessMode::InOut)],
            );
        }
    }
}

fn sizes(chains: &ChainSpec) -> HashMap<RegionId, Bytes> {
    (0..chains.len() as u64)
        .map(|c| (RegionId(c), Bytes::mib(16)))
        .collect()
}

fn runtime(seed: u64, resilient: bool, chains: &ChainSpec) -> Runtime {
    let mut cfg = EngineConfig::new()
        .with_devices(devices())
        .with_policy(Policy::Weighted(0.5))
        .with_seed(seed)
        .with_max_retries(1)
        .with_security(SecurityConfig::new().with_region_sizes(sizes(chains)));
    if resilient {
        cfg = cfg.with_resilience(
            ResilienceConfig::new(Seconds(5.0))
                .with_region_sizes(sizes(chains))
                .with_max_rollbacks(10_000),
        );
    }
    cfg.with_fault_prob(1, 0.4)
        .build()
        .expect("valid engine config")
}

/// Split one chain spec into two submission waves at `split` tasks.
fn waves(chains: &ChainSpec, split: usize) -> (ChainSpec, ChainSpec) {
    let mut first: ChainSpec = vec![Vec::new(); chains.len()];
    let mut second: ChainSpec = vec![Vec::new(); chains.len()];
    let mut seen = 0usize;
    for (c, chain) in chains.iter().enumerate() {
        for &task in chain {
            if seen < split {
                first[c].push(task);
            } else {
                second[c].push(task);
            }
            seen += 1;
        }
    }
    (first, second)
}

fn assert_report_shape(report: &RunReport) {
    for pair in report.placements.windows(2) {
        assert!(
            pair[0].task < pair[1].task,
            "placements must be strictly sorted by task id"
        );
    }
}

proptest! {
    /// Feeding the same two submission waves through `run()` twice or
    /// through a manual `step()` drain twice yields bit-identical
    /// reports and rollback traces — the streaming interface is the
    /// batched interface, resilience included.
    #[test]
    fn streaming_equals_batched(
        chains in chains_strategy(),
        split_frac in 0.0f64..1.0,
        seed in 0u64..300,
        resilient in any::<bool>(),
    ) {
        let total: usize = chains.iter().map(Vec::len).sum();
        let split = ((total as f64) * split_frac) as usize;
        let (wave1, wave2) = waves(&chains, split);

        let mut batched = runtime(seed, resilient, &chains);
        submit_wave(&mut batched, &wave1);
        let _ = batched.run().expect("devices present");
        submit_wave(&mut batched, &wave2);
        let batched_report = batched.run().expect("devices present");

        let mut streamed = runtime(seed, resilient, &chains);
        submit_wave(&mut streamed, &wave1);
        while streamed.step().expect("devices present").is_some() {}
        submit_wave(&mut streamed, &wave2);
        while streamed.step().expect("devices present").is_some() {}
        let streamed_report = streamed.report();

        prop_assert_eq!(&batched_report, &streamed_report);
        prop_assert_eq!(batched.rollback_trace(), streamed.rollback_trace());
        assert_report_shape(&batched_report);
        prop_assert!(batched_report.placements.len() <= batched.graph().len());
    }

    /// Fault-free, a serial chain follows a closed form task by task:
    /// every device is idle when the next task becomes ready at the
    /// previous task's finish, so the task runs on the policy's top-`k`
    /// devices for its own estimates (finish = ready + duration, energy =
    /// busy power × duration), starts at that ready time, and joins
    /// when its slowest replica finishes. The makespan is the sum of
    /// those joined durations.
    #[test]
    fn serial_chain_matches_closed_form(
        chain in prop::collection::vec((5e11f64..4e12, 0u8..3, Just(0u8)), 1..16),
        policy in prop_oneof![
            Just(Policy::Performance),
            Just(Policy::Energy),
            Just(Policy::Edp),
            (0.0f64..=1.0).prop_map(Policy::Weighted),
        ],
        seed in 0u64..300,
    ) {
        let mut rt = EngineConfig::new()
            .with_devices(devices())
            .with_policy(policy)
            .with_seed(seed)
            .build()
            .expect("valid engine config");
        let chains = vec![chain];
        submit_wave(&mut rt, &chains);
        let report = rt.run().expect("devices present");
        prop_assert!(report.is_correct());
        prop_assert_eq!(report.placements.len(), chains[0].len());

        let specs = devices();
        let mut ready = Seconds::ZERO;
        for (outcome, &(flops, crit, _)) in report.placements.iter().zip(&chains[0]) {
            let work = Work::flops(flops);
            let durations: Vec<Seconds> =
                specs.iter().map(|s| s.time_for(work, TaskKind::Compute)).collect();
            let estimates: Vec<Estimate> = specs
                .iter()
                .zip(&durations)
                .map(|(s, &d)| Estimate::new(ready + d, s.busy_power * d))
                .collect();
            let k = criticality(crit).replica_count().min(specs.len());
            let mut best = [0usize; 3];
            prop_assert_eq!(policy.select_k(&estimates, &mut best[..k]), k);
            prop_assert_eq!(outcome.devices.as_slice(), &best[..k]);
            prop_assert_eq!(outcome.start, ready);
            let finish = best[..k]
                .iter()
                .map(|&d| ready + durations[d])
                .fold(Seconds::ZERO, Seconds::max);
            prop_assert_eq!(outcome.finish, finish);
            ready = finish;
        }
        prop_assert_eq!(report.makespan, ready);
    }

    /// Under an active fault model (no resilience) serial chains keep
    /// their accounting identities: every task is placed, failed or
    /// poisoned exactly once; every claimed task charges its replica
    /// count; each detected fault is either retried or fails its task;
    /// and no task starts before its predecessor's accepted finish.
    #[test]
    fn faulty_chains_keep_replication_accounting(
        chains in public_chains_strategy(),
        seed in 0u64..300,
    ) {
        let mut rt = runtime(seed, false, &chains);
        submit_wave(&mut rt, &chains);
        let report = rt.run().expect("devices present");
        let outcome = |id: TaskId| report.placements.iter().find(|p| p.task == id);

        let (mut unreplicated, mut replica_executions) = (0u64, 0u64);
        let mut id = 0u64;
        for chain in &chains {
            let mut predecessor_finish = None;
            for &(_, crit, _) in chain {
                let task = TaskId(id);
                id += 1;
                let placed = outcome(task);
                let failed = report.failed.contains(&task);
                let state = rt.graph().state(task).expect("submitted");
                let poisoned = state == TaskState::Poisoned;
                prop_assert!(
                    u8::from(placed.is_some()) + u8::from(failed) + u8::from(poisoned) == 1,
                    "{} in state {:?}",
                    task,
                    state
                );
                if poisoned {
                    continue;
                }
                match criticality(crit).replica_count() {
                    1 => unreplicated += 1,
                    k => replica_executions += k as u64 - 1,
                }
                if let Some(p) = placed {
                    if let Some(before) = predecessor_finish {
                        prop_assert!(p.start >= before, "{} starts before its predecessor", task);
                    }
                    predecessor_finish = Some(p.finish);
                }
            }
        }
        prop_assert_eq!(report.stats.unreplicated, unreplicated);
        prop_assert_eq!(report.stats.replica_executions, replica_executions);
        prop_assert!(report.stats.retries <= report.stats.detected);
        prop_assert_eq!(
            report.stats.detected,
            report.stats.retries + report.failed.len() as u64
        );
    }

    /// With confidential tasks in the mix (sealed-io and enclave-only,
    /// under faults and optionally resilience), the same seed produces
    /// bit-identical reports — `SecurityStats` included — and the
    /// engine's enclave placement rule holds on every accepted outcome:
    /// enclave-only tasks only ever run on TEE-capable devices.
    #[test]
    fn confidential_runs_are_deterministic_and_respect_placement(
        chains in chains_strategy(),
        seed in 0u64..300,
        resilient in any::<bool>(),
    ) {
        let run = |seed| {
            let mut rt = runtime(seed, resilient, &chains);
            submit_wave(&mut rt, &chains);
            let report = rt.run().expect("devices present");
            (report, rt.rollback_trace().to_vec())
        };
        let (a, trace_a) = run(seed);
        let (b, trace_b) = run(seed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(trace_a, trace_b);
        assert_report_shape(&a);

        // Placement rule: enclave-only tasks stay on TEE devices.
        let rt = {
            let mut rt = runtime(seed, resilient, &chains);
            submit_wave(&mut rt, &chains);
            rt
        };
        let tee: Vec<usize> = rt
            .devices()
            .iter()
            .enumerate()
            .filter(|(_, d)| d.spec.tee.has_enclave())
            .map(|(i, _)| i)
            .collect();
        let mut flat = Vec::new();
        for chain in &chains {
            for &(_, _, sec) in chain {
                flat.push(security(sec));
            }
        }
        let mut enclave_ran = 0u64;
        for p in &a.placements {
            if flat[p.task.index()] == SecurityLevel::Enclave {
                enclave_ran += 1;
                for &d in &p.devices {
                    prop_assert!(
                        tee.contains(&d),
                        "enclave task {} on non-TEE device {}", p.task, d
                    );
                }
            }
        }
        // Each accepted enclave task executed at least one replica.
        let sec = a.security.unwrap_or_default();
        prop_assert!(sec.enclave_tasks >= enclave_ran);
        if enclave_ran > 0 {
            prop_assert!(sec.attestations > 0);
        }
    }

    /// Streaming ≡ batched holds with the security layer active too:
    /// interleaved `submit()`/`step()` waves of confidential tasks
    /// produce the identical report (security stats included) as `run()`
    /// over the same waves.
    #[test]
    fn streaming_equals_batched_with_security(
        chains in chains_strategy(),
        split_frac in 0.0f64..1.0,
        seed in 0u64..300,
    ) {
        let total: usize = chains.iter().map(Vec::len).sum();
        let split = ((total as f64) * split_frac) as usize;
        let (wave1, wave2) = waves(&chains, split);

        let mut batched = runtime(seed, false, &chains);
        submit_wave(&mut batched, &wave1);
        let _ = batched.run().expect("devices present");
        submit_wave(&mut batched, &wave2);
        let batched_report = batched.run().expect("devices present");

        let mut streamed = runtime(seed, false, &chains);
        submit_wave(&mut streamed, &wave1);
        while streamed.step().expect("devices present").is_some() {}
        submit_wave(&mut streamed, &wave2);
        while streamed.step().expect("devices present").is_some() {}
        let streamed_report = streamed.report();

        prop_assert_eq!(&batched_report, &streamed_report);
        prop_assert_eq!(batched.security_stats(), streamed.security_stats());
    }

    /// Pay-for-what-you-use: an all-public workload on a runtime with
    /// the security layer configured is bit-identical — report, trace
    /// and all — to the same workload on a runtime that never heard of
    /// security. The security wiring costs nothing until a confidential
    /// task exists.
    #[test]
    fn all_public_runs_are_bit_identical_to_security_unaware_runs(
        chains in public_chains_strategy(),
        seed in 0u64..300,
        resilient in any::<bool>(),
    ) {
        // `runtime()` configures security; this twin never does.
        let mut plain_cfg = EngineConfig::new()
            .with_devices(devices())
            .with_policy(Policy::Weighted(0.5))
            .with_seed(seed)
            .with_max_retries(1);
        if resilient {
            plain_cfg = plain_cfg.with_resilience(
                ResilienceConfig::new(Seconds(5.0))
                    .with_region_sizes(sizes(&chains))
                    .with_max_rollbacks(10_000),
            );
        }
        let mut plain = plain_cfg
            .with_fault_prob(1, 0.4)
            .build()
            .expect("valid engine config");
        submit_wave(&mut plain, &chains);
        let plain_report = plain.run().expect("devices present");

        let mut configured = runtime(seed, resilient, &chains);
        submit_wave(&mut configured, &chains);
        let configured_report = configured.run().expect("devices present");

        prop_assert_eq!(&plain_report, &configured_report);
        prop_assert_eq!(plain.rollback_trace(), configured.rollback_trace());
        prop_assert_eq!(configured_report.security, None);
    }
}
