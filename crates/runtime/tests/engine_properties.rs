//! Property-based tests of the event-driven execution engine.
//!
//! Two contracts:
//!
//! * **Determinism** — the same seed and the same graph produce an
//!   identical [`RunReport`], bit for bit, however the event heap
//!   interleaves placements (`time, seq` ordering is total).
//! * **Closed-form bounds on chains** — fault-free, a task with `k`
//!   replicas can never join before its `k`-th fastest device finishes,
//!   and greedy earliest-finish placement never leaves the fleet idle
//!   behind a ready task, so under the performance policy the longest
//!   chain's sum of those durations bounds the makespan from below and
//!   the sum over every task bounds it from above. Under the energy
//!   policy a device's energy for a task does not depend on when it
//!   runs, so busy energy is exactly the sum over tasks of the `k`
//!   cheapest per-device energies, whatever order the chains
//!   interleave in.
//!
//! [`RunReport`]: legato_runtime::RunReport

use legato_core::requirements::{Criticality, Requirements};
use legato_core::task::{AccessMode, TaskDescriptor, TaskKind, Work};
use legato_hw::device::DeviceSpec;
use legato_runtime::{EngineConfig, Policy, Runtime};
use proptest::prelude::*;

/// Chains → tasks → (flops, criticality selector).
type ChainSpec = Vec<Vec<(f64, u8)>>;

fn chains_strategy() -> impl Strategy<Value = ChainSpec> {
    prop::collection::vec(prop::collection::vec((1e9f64..8e10, 0u8..3), 1..12), 1..10)
}

fn devices() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::xeon_x86(),
        DeviceSpec::gtx1080(),
        DeviceSpec::fpga_kintex(),
        DeviceSpec::arm64(),
    ]
}

fn criticality(crit: u8) -> Criticality {
    match crit {
        0 => Criticality::Normal,
        1 => Criticality::High,
        _ => Criticality::Critical,
    }
}

/// A fault-free runtime over [`devices`].
fn runtime(policy: Policy) -> Runtime {
    EngineConfig::new()
        .with_devices(devices())
        .with_policy(policy)
        .with_seed(1)
        .build()
        .expect("valid engine config")
}

/// The `k` smallest values of `f(spec)` over the fleet, where `k` is the
/// replica count of a task of criticality selector `crit`.
fn k_smallest(crit: u8, f: impl Fn(&DeviceSpec) -> f64) -> Vec<f64> {
    let mut values: Vec<f64> = devices().iter().map(f).collect();
    values.sort_by(f64::total_cmp);
    values.truncate(criticality(crit).replica_count().min(values.len()));
    values
}

/// Submit every chain; chain `c` serializes on its private region `c`.
fn build(rt: &mut Runtime, chains: &ChainSpec) {
    for (c, chain) in chains.iter().enumerate() {
        for &(flops, crit) in chain {
            let criticality = criticality(crit);
            rt.submit(
                TaskDescriptor::named("t")
                    .with_work(Work::flops(flops))
                    .with_requirements(Requirements::new().with_criticality(criticality)),
                [(c as u64, AccessMode::InOut)],
            );
        }
    }
}

proptest! {
    /// Same seed + same graph ⇒ identical `RunReport`, with the fault
    /// model and replication voting active.
    #[test]
    fn engine_is_deterministic(chains in chains_strategy(), seed in 0u64..1000) {
        let run = || {
            let mut rt = EngineConfig::new()
                .with_devices(devices())
                .with_policy(Policy::Weighted(0.5))
                .with_seed(seed)
                .with_fault_prob(1, 0.2)
                .build()
                .expect("valid engine config");
            build(&mut rt, &chains);
            rt.run().expect("devices present")
        };
        prop_assert_eq!(run(), run());
    }

    /// Fault-free under the performance policy, each chain's sum of
    /// `k`-th fastest durations ≤ makespan ≤ the same sum over every
    /// task. On a single chain the two bounds meet.
    #[test]
    fn performance_makespan_is_bracketed_by_closed_form_bounds(chains in chains_strategy()) {
        let mut rt = runtime(Policy::Performance);
        build(&mut rt, &chains);
        let report = rt.run().expect("devices present");
        let kth_fastest = |&(flops, crit): &(f64, u8)| {
            let times = k_smallest(crit, |s| s.time_for(Work::flops(flops), TaskKind::Compute).0);
            times[times.len() - 1]
        };
        let critical_path = chains
            .iter()
            .map(|chain| chain.iter().map(kth_fastest).sum::<f64>())
            .fold(0.0, f64::max);
        let serial: f64 = chains.iter().flatten().map(kth_fastest).sum();
        let slack = 1e-9 * serial;
        let makespan = report.makespan.0;
        prop_assert!(report.is_correct());
        prop_assert!(
            critical_path - slack <= makespan && makespan <= serial + slack,
            "critical path {critical_path} <= makespan {makespan} <= serial {serial}"
        );
    }

    /// Fault-free under the energy policy, busy energy is the sum over
    /// tasks of the `k` cheapest per-device energies.
    #[test]
    fn energy_policy_busy_energy_is_the_sum_of_per_task_minima(chains in chains_strategy()) {
        let mut rt = runtime(Policy::Energy);
        build(&mut rt, &chains);
        let report = rt.run().expect("devices present");
        let expected: f64 = chains
            .iter()
            .flatten()
            .map(|&(flops, crit)| {
                k_smallest(crit, |s| s.energy_for(Work::flops(flops), TaskKind::Compute).0)
                    .iter()
                    .sum::<f64>()
            })
            .sum();
        let busy = report.busy_energy.0;
        prop_assert!(
            (busy - expected).abs() <= 1e-9 * expected,
            "busy energy {busy} J, closed form {expected} J"
        );
    }
}
