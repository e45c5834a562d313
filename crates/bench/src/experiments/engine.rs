//! E8 — the event-driven execution engine on wide graphs.
//!
//! Two wide-graph scenarios (≥ 1k tasks, fan-out/fan-in) exercise
//! scheduling in *readiness* order when many chains compete for the
//! same devices:
//!
//! * [`Scenario::Wide`] — a scatter task fans out to many independent
//!   dependency chains of uneven length and work, joined by a gather
//!   task. Devices saturate, so the makespan approaches the work bound.
//! * [`Scenario::Straggler`] — the same fan-out/fan-in shell around bulk
//!   chains *plus a few deep, thin chains submitted last*. Their roots
//!   are ready from the scatter on, so readiness-order placement
//!   interleaves them with the bulk from the start instead of queueing
//!   them behind it.
//!
//! [`MakespanBounds`] gives closed-form bounds any fault-free run of a
//! built scenario must respect. The `runtime_engine` criterion bench
//! times the scenarios; the tests here and in `tests/full_stack.rs` pin
//! their makespans inside those bounds.

use legato_core::requirements::{Criticality, Requirements};
use legato_core::task::TaskId;
use legato_core::task::{AccessMode, TaskDescriptor, TaskKind, Work};
use legato_core::units::Seconds;
use legato_runtime::Runtime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Region carrying the scatter task's fan-out output.
const SCATTER_REGION: u64 = 0;
/// First region id used by chains (one private region per chain).
const CHAIN_REGION_BASE: u64 = 1;

/// A wide-graph workload shape.
#[derive(Debug, Clone, Copy)]
pub enum Scenario {
    /// Saturating fan-out into `chains` uneven chains of mean `depth`.
    Wide {
        /// Number of independent chains.
        chains: usize,
        /// Mean chain depth; individual chains vary in `[depth/2, 2·depth]`.
        depth: usize,
    },
    /// Bulk chains plus a few deep, thin straggler chains submitted last.
    Straggler {
        /// Number of bulk chains.
        bulk_chains: usize,
        /// Depth of each bulk chain.
        bulk_depth: usize,
        /// Number of thin straggler chains.
        thin_chains: usize,
        /// Depth of each straggler chain.
        thin_depth: usize,
    },
}

impl Scenario {
    /// The reference saturating scenario (≥ 1k tasks across 64 chains).
    #[must_use]
    pub fn reference_wide() -> Self {
        Scenario::Wide {
            chains: 64,
            depth: 17,
        }
    }

    /// The reference straggler scenario (≥ 1k tasks; two 100-deep thin
    /// chains behind 40 bulk chains).
    #[must_use]
    pub fn reference_straggler() -> Self {
        Scenario::Straggler {
            bulk_chains: 40,
            bulk_depth: 20,
            thin_chains: 2,
            thin_depth: 100,
        }
    }

    /// Submit this scenario into `rt` (scatter → chains → gather) and
    /// return the number of tasks submitted. Deterministic per `seed`.
    pub fn build(self, rt: &mut Runtime, seed: u64) -> usize {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tasks = 0;
        // Fan-out source: every chain root reads the scatter output.
        rt.submit(
            TaskDescriptor::named("scatter").with_work(Work::flops(1e9)),
            [(SCATTER_REGION, AccessMode::Out)],
        );
        tasks += 1;
        let mut chain_regions: Vec<u64> = Vec::new();
        let chain = |rt: &mut Runtime,
                     rng: &mut SmallRng,
                     regions: &mut Vec<u64>,
                     depth: usize,
                     kinded: bool,
                     lo: f64,
                     hi: f64| {
            let region = CHAIN_REGION_BASE + regions.len() as u64;
            regions.push(region);
            let c = regions.len();
            for d in 0..depth {
                let kind = if kinded && (c + d).is_multiple_of(4) {
                    TaskKind::Inference
                } else {
                    TaskKind::Compute
                };
                let mut accesses = vec![(region, AccessMode::InOut)];
                if d == 0 {
                    accesses.push((SCATTER_REGION, AccessMode::In));
                }
                // A static task-type label: chain tasks are instances of
                // one type, and a per-instance `format!` name would put a
                // String allocation in every submission the bench times.
                rt.submit(
                    TaskDescriptor::named("chain")
                        .with_kind(kind)
                        .with_work(Work::flops(rng.gen_range(lo..hi)))
                        .with_requirements(
                            Requirements::new().with_criticality(Criticality::Normal),
                        ),
                    accesses,
                );
            }
            depth
        };
        match self {
            Scenario::Wide { chains, depth } => {
                for c in 0..chains {
                    let d = rng.gen_range((depth / 2).max(1)..=depth * 2);
                    // Heavier work on earlier chains: a submission-order
                    // placer would commit these far into the future
                    // before looking at later, lighter chains.
                    let scale = 1.0 + 4.0 * (chains - c) as f64 / chains as f64;
                    tasks += chain(
                        rt,
                        &mut rng,
                        &mut chain_regions,
                        d,
                        true,
                        scale * 5e9,
                        scale * 5e10,
                    );
                }
            }
            Scenario::Straggler {
                bulk_chains,
                bulk_depth,
                thin_chains,
                thin_depth,
            } => {
                for _ in 0..bulk_chains {
                    tasks += chain(
                        rt,
                        &mut rng,
                        &mut chain_regions,
                        bulk_depth,
                        true,
                        2e10,
                        2e11,
                    );
                }
                // The stragglers: long serial chains of mid-size tasks,
                // submitted after every bulk task. Their per-task work is
                // big enough that parking them on the slowest device is
                // never worthwhile.
                for _ in 0..thin_chains {
                    tasks += chain(
                        rt,
                        &mut rng,
                        &mut chain_regions,
                        thin_depth,
                        false,
                        4.8e11,
                        7.2e11,
                    );
                }
            }
        }
        // Fan-in sink over every chain's region.
        rt.submit(
            TaskDescriptor::named("gather").with_work(Work::flops(1e9)),
            chain_regions
                .iter()
                .map(|&r| (r, AccessMode::In))
                .collect::<Vec<_>>(),
        );
        tasks + 1
    }
}

/// Closed-form makespan bounds for a fault-free run of the tasks
/// submitted to a runtime, from each task's per-device durations (a task
/// with `k` replicas joins when the slowest of its `k` devices finishes,
/// so it takes at least the `k`-th smallest duration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MakespanBounds {
    /// Longest dependence path of per-task `k`-th smallest durations: no
    /// placement finishes sooner.
    pub critical_path: Seconds,
    /// Sum over every task of its `k`-th smallest duration. Greedy
    /// earliest-finish placement under
    /// [`Policy::Performance`](legato_runtime::Policy::Performance)
    /// starts each task no later than the fleet's latest busy horizon,
    /// so it never exceeds this.
    pub serial_fastest: Seconds,
    /// Sum over every task of its largest duration: the same argument
    /// bounds a greedy placement under any policy.
    pub serial_slowest: Seconds,
}

impl MakespanBounds {
    /// Bounds for the graph submitted to `rt`, over its devices.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has no devices.
    #[must_use]
    pub fn of(rt: &Runtime) -> Self {
        let graph = rt.graph();
        let mut finish = vec![Seconds::ZERO; graph.len()];
        let mut bounds = MakespanBounds {
            critical_path: Seconds::ZERO,
            serial_fastest: Seconds::ZERO,
            serial_slowest: Seconds::ZERO,
        };
        let mut durations = Vec::with_capacity(rt.devices().len());
        // Task ids are a topological order: dependences point backwards.
        for i in 0..graph.len() {
            let id = TaskId(i as u64);
            let desc = graph.descriptor(id).expect("id in range");
            durations.clear();
            durations.extend(
                rt.devices()
                    .iter()
                    .map(|d| d.spec.time_for(desc.work, desc.kind)),
            );
            durations.sort_by(|a, b| a.0.total_cmp(&b.0));
            let k = desc.requirements.criticality.replica_count();
            let kth = durations[k.min(durations.len()) - 1];
            let ready = graph
                .predecessors(id)
                .expect("id in range")
                .iter()
                .map(|p| finish[p.index()])
                .fold(Seconds::ZERO, Seconds::max);
            finish[i] = ready + kth;
            bounds.critical_path = bounds.critical_path.max(finish[i]);
            bounds.serial_fastest += kth;
            bounds.serial_slowest += durations[durations.len() - 1];
        }
        bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::goals::reference_devices;
    use legato_runtime::{EngineConfig, Policy};

    #[test]
    fn reference_scenarios_are_wide_enough() {
        for scenario in [Scenario::reference_wide(), Scenario::reference_straggler()] {
            let mut rt = EngineConfig::new()
                .with_devices(reference_devices())
                .build()
                .expect("valid engine config");
            let tasks = scenario.build(&mut rt, 42);
            assert!(tasks >= 1000, "need ≥ 1k tasks, built {tasks}");
            // Fan-out/fan-in: only the scatter task is initially ready.
            assert_eq!(rt.graph().ready().len(), 1);
        }
    }

    /// Runs `scenario` fault-free under `policy`, pins its makespan bit
    /// for bit (runs are deterministic) and checks it lies inside the
    /// closed-form [`MakespanBounds`].
    fn pinned_makespan(scenario: Scenario, policy: Policy, makespan: f64) -> Seconds {
        let mut rt = EngineConfig::new()
            .with_devices(reference_devices())
            .with_policy(policy)
            .with_seed(42)
            .build()
            .expect("valid engine config");
        scenario.build(&mut rt, 42);
        let bounds = MakespanBounds::of(&rt);
        let report = rt.run().expect("devices present");
        assert!(report.is_correct());
        assert_eq!(report.makespan.0, makespan, "{scenario:?}");
        let upper = match policy {
            Policy::Performance => bounds.serial_fastest,
            _ => bounds.serial_slowest,
        };
        assert!(
            bounds.critical_path <= report.makespan && report.makespan <= upper,
            "{scenario:?}: {bounds:?} vs makespan {}",
            report.makespan
        );
        report.makespan
    }

    /// The level-by-level topological sweep the engine replaced finished
    /// the wide reference graph in 13.29030343228683 s (recorded with the
    /// same devices, policy and seed before the sweep was deleted).
    #[test]
    fn engine_beats_sweep_on_saturating_wide_graph() {
        const SWEEP_MAKESPAN: f64 = 13.29030343228683;
        let engine = pinned_makespan(
            Scenario::reference_wide(),
            Policy::Performance,
            13.084341132953236,
        );
        assert!(
            engine.0 < SWEEP_MAKESPAN,
            "event-driven must win: engine {engine} vs sweep {SWEEP_MAKESPAN}"
        );
    }

    /// The sweep finished the straggler reference graph in
    /// 52.19160682687538 s (recorded as above); interleaving stragglers
    /// with ready work must stay a decisive win over that.
    #[test]
    fn engine_wins_big_on_stragglers() {
        const SWEEP_MAKESPAN: f64 = 52.19160682687538;
        let engine = pinned_makespan(
            Scenario::reference_straggler(),
            Policy::Weighted(0.5),
            30.29919451448777,
        );
        let speedup = SWEEP_MAKESPAN / engine.0;
        assert!(
            speedup > 1.3,
            "straggler interleaving should be a decisive win, got {speedup:.3} \
             ({engine} vs {SWEEP_MAKESPAN})"
        );
    }
}
