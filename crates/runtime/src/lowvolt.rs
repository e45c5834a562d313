//! Task-based low-voltage FPGA execution (OmpSs@FPGA under undervolting).
//!
//! §III-C of the paper describes the integration the project was building:
//! "we are working on the integration of the aggressive undervolting with
//! LEGaTO software stack such as task-based low-voltage OmpSs@FPGA". This
//! module provides that integration for the simulated stack: an FPGA
//! device whose BRAM rail is underscaled executes tasks cheaper but with a
//! voltage-dependent silent-fault probability, and the runtime's selective
//! replication absorbs the unreliability.
//!
//! The headline trade-off this enables: run the FPGA *below* the guardband
//! for large power savings, and spend a fraction of the saving on
//! replication to keep results trustworthy.

use legato_core::units::{Seconds, Volt};
use legato_fpga::{FpgaPlatform, VoltageRegion};
use legato_hw::device::{DeviceSpec, OperatingPoint};
use serde::{Deserialize, Serialize};

use crate::error::RuntimeError;

/// Fraction of an FPGA accelerator's busy power drawn by the BRAM
/// subsystem (the rail undervolting scales). On-chip memory dominates DNN
/// accelerator power; 0.4 is a representative mid-point.
pub const BRAM_POWER_SHARE: f64 = 0.4;

/// An FPGA device operating point: the spec adjusted for an underscaled
/// BRAM rail, plus the resulting per-task silent-fault probability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LowVoltageOperatingPoint {
    /// The rail voltage.
    pub vccbram: Volt,
    /// Voltage region at this point.
    pub region: VoltageRegion,
    /// Device spec with the scaled busy power.
    pub spec: DeviceSpec,
    /// Probability that a task picks up at least one bit-flip in its
    /// working set during execution.
    pub fault_probability: f64,
    /// Fractional busy-power saving versus the nominal-voltage spec.
    pub power_saving: f64,
}

/// Derive the operating point of `base` (an FPGA device spec) on
/// `platform` at rail voltage `v`, for tasks whose BRAM-resident working
/// set is `working_set_mbit` megabits and whose typical execution exposure
/// is `exposure`.
///
/// The fault probability assumes bit-flips arrive as a Poisson process at
/// the platform's fault density: `p = 1 − exp(−rate · mbit · exposure)`.
///
/// # Errors
///
/// Returns [`RuntimeError::InvalidParameter`] if `base` is not an
/// FPGA-kind device, or `working_set_mbit`/`exposure` are not positive
/// finite values (this validation used to panic; it now follows the same
/// panic→`Result` convention as the fti and secure crates).
pub fn operating_point(
    base: &DeviceSpec,
    platform: &FpgaPlatform,
    v: Volt,
    working_set_mbit: f64,
    exposure: Seconds,
) -> Result<LowVoltageOperatingPoint, RuntimeError> {
    if base.kind != legato_hw::device::DeviceKind::Fpga {
        return Err(RuntimeError::invalid_parameter(
            "base",
            format!(
                "low-voltage operation targets FPGA devices, got {:?} ({})",
                base.kind, base.name
            ),
        ));
    }
    if !(working_set_mbit > 0.0 && working_set_mbit.is_finite()) {
        return Err(RuntimeError::invalid_parameter(
            "working_set_mbit",
            format!("must be positive and finite, got {working_set_mbit}"),
        ));
    }
    if !(exposure.0 > 0.0 && exposure.0.is_finite()) {
        return Err(RuntimeError::invalid_parameter(
            "exposure",
            format!("must be positive and finite, got {exposure}"),
        ));
    }
    let region = platform.region_at(v);
    let power_ratio = platform.power_at(v) / platform.nominal_power();
    // Only the BRAM share scales with the rail.
    let busy = base.busy_power * (1.0 - BRAM_POWER_SHARE)
        + base.busy_power * BRAM_POWER_SHARE * power_ratio;
    let idle = base.idle_power * (1.0 - BRAM_POWER_SHARE)
        + base.idle_power * BRAM_POWER_SHARE * power_ratio;
    let rate = platform.fault_rate_at(v).0;
    let fault_probability = if region == VoltageRegion::Crash {
        1.0
    } else {
        1.0 - (-rate * working_set_mbit * exposure.0).exp()
    };
    let mut spec = base.clone();
    spec.name = format!("{} @ {:.0} mV", base.name, v.millivolts());
    spec.busy_power = busy;
    spec.idle_power = idle;
    Ok(LowVoltageOperatingPoint {
        vccbram: v,
        region,
        spec,
        fault_probability,
        power_saving: 1.0 - busy / base.busy_power,
    })
}

/// Derive a [`DeviceSpec`] operating-point ladder from an FPGA
/// platform's BRAM rail: the nominal point followed by one rung per
/// requested voltage, in the given order. Each rung carries the Fig. 5
/// power scaling (only the BRAM share of the draw follows the rail) and
/// Poisson fault probability; execution speed is unchanged (undervolting
/// trades *reliability* for power, not clock rate), so `duration_scale`
/// stays 1.
///
/// Feed the result to [`DeviceSpec::with_operating_points`] and select
/// rungs through the runtime's `EnergyConfig`; a crash-region rung is
/// included with `fault_probability = 1.0` and will be refused at
/// selection time.
///
/// # Errors
///
/// Propagates [`RuntimeError::InvalidParameter`] from
/// [`operating_point`] (non-FPGA base, non-positive working set or
/// exposure).
pub fn undervolt_ladder(
    base: &DeviceSpec,
    platform: &FpgaPlatform,
    voltages: &[Volt],
    working_set_mbit: f64,
    exposure: Seconds,
) -> Result<Vec<OperatingPoint>, RuntimeError> {
    let mut ladder = vec![OperatingPoint::nominal()];
    for &v in voltages {
        let op = operating_point(base, platform, v, working_set_mbit, exposure)?;
        ladder.push(OperatingPoint::new(
            format!("{:.0} mV", v.millivolts()),
            op.spec.busy_power.0 / base.busy_power.0,
            1.0,
            op.fault_probability,
        ));
    }
    Ok(ladder)
}

/// One row of the low-voltage ablation: energy and correctness of a task
/// batch on an undervolted FPGA, with and without selective replication.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LowVoltRow {
    /// Rail voltage.
    pub vccbram: Volt,
    /// Region.
    pub region: VoltageRegion,
    /// Device power saving at this point.
    pub power_saving: f64,
    /// Per-task fault probability.
    pub fault_probability: f64,
    /// Fraction of correct runs without replication.
    pub unprotected_correct: f64,
    /// Fraction of correct runs with triple replication of every task.
    pub replicated_correct: f64,
    /// Busy-energy overhead of the replication (replicated / unprotected).
    pub replication_energy_factor: f64,
}

/// Run the ablation: `tasks` inference tasks on a CPU + undervolted-FPGA
/// pair across the given rail voltages, `trials` seeds each.
#[must_use]
pub fn undervolt_ablation(
    platform: &FpgaPlatform,
    voltages: &[Volt],
    tasks: usize,
    trials: u64,
) -> Vec<LowVoltRow> {
    use crate::config::EngineConfig;
    use crate::scheduler::Policy;
    use legato_core::requirements::{Criticality, Requirements};
    use legato_core::task::{AccessMode, TaskDescriptor, TaskKind, Work};

    let base = DeviceSpec::fpga_kintex();
    let mut rows = Vec::new();
    for &v in voltages {
        let op = operating_point(&base, platform, v, 0.5, Seconds(0.2))
            .expect("kintex base with positive working set and exposure");
        if op.region == VoltageRegion::Crash {
            rows.push(LowVoltRow {
                vccbram: v,
                region: op.region,
                power_saving: op.power_saving,
                fault_probability: 1.0,
                unprotected_correct: 0.0,
                replicated_correct: 0.0,
                replication_energy_factor: 1.0,
            });
            continue;
        }
        let run = |criticality: Criticality| -> (f64, f64) {
            let mut correct = 0u64;
            let mut energy = 0.0;
            for seed in 0..trials {
                // CPU (reliable) + two low-voltage FPGA instances (so
                // triple replication has three distinct devices).
                let mut rt = EngineConfig::new()
                    .with_devices(vec![DeviceSpec::arm64(), op.spec.clone(), op.spec.clone()])
                    .with_policy(Policy::Energy)
                    .with_seed(seed)
                    .with_fault_prob(1, op.fault_probability)
                    .with_fault_prob(2, op.fault_probability)
                    .build()
                    .expect("probabilities below the crash region");
                for i in 0..tasks as u64 {
                    rt.submit(
                        TaskDescriptor::named(format!("nn-{i}"))
                            .with_kind(TaskKind::Inference)
                            .with_work(Work::flops(2e10))
                            .with_requirements(Requirements::new().with_criticality(criticality)),
                        [(i, AccessMode::Out)],
                    );
                }
                let rep = rt.run().expect("devices present");
                if rep.is_correct() {
                    correct += 1;
                }
                energy += rep.busy_energy.0;
            }
            (correct as f64 / trials as f64, energy / trials as f64)
        };
        let (unprotected_correct, e_plain) = run(Criticality::Normal);
        let (replicated_correct, e_repl) = run(Criticality::Critical);
        rows.push(LowVoltRow {
            vccbram: v,
            region: op.region,
            power_saving: op.power_saving,
            fault_probability: op.fault_probability,
            unprotected_correct,
            replicated_correct,
            replication_energy_factor: if e_plain > 0.0 { e_repl / e_plain } else { 1.0 },
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_at(p: &FpgaPlatform, v: Volt) -> LowVoltageOperatingPoint {
        operating_point(&DeviceSpec::fpga_kintex(), p, v, 0.5, Seconds(0.2)).expect("valid inputs")
    }

    #[test]
    fn nominal_point_is_reliable_and_unsaving() {
        let p = FpgaPlatform::vc707();
        let op = op_at(&p, Volt(1.0));
        assert_eq!(op.region, VoltageRegion::Guardband);
        assert_eq!(op.fault_probability, 0.0);
        assert!(op.power_saving.abs() < 1e-9);
    }

    #[test]
    fn guardband_edge_saves_power_without_faults() {
        let p = FpgaPlatform::vc707();
        let op = op_at(&p, Volt(p.v_min.0 + 0.01));
        assert_eq!(op.fault_probability, 0.0);
        assert!(op.power_saving > 0.25, "saving {}", op.power_saving);
    }

    #[test]
    fn critical_region_trades_faults_for_power() {
        let p = FpgaPlatform::vc707();
        let deep = Volt(p.v_crash.0 + 0.005);
        let op = op_at(&p, deep);
        assert_eq!(op.region, VoltageRegion::Critical);
        assert!(op.fault_probability > 0.5, "p {}", op.fault_probability);
        assert!(op.power_saving > 0.3);
    }

    #[test]
    fn crash_point_is_unusable() {
        let p = FpgaPlatform::vc707();
        let op = op_at(&p, Volt(0.5));
        assert_eq!(op.fault_probability, 1.0);
    }

    #[test]
    fn power_scaling_only_touches_bram_share() {
        let p = FpgaPlatform::vc707();
        let op = op_at(&p, Volt(p.v_crash.0 + 1e-3));
        // Even at ~91 % BRAM saving, total saving caps at the BRAM share.
        assert!(op.power_saving <= BRAM_POWER_SHARE + 1e-9);
        assert!(op.power_saving > BRAM_POWER_SHARE * 0.8);
    }

    #[test]
    fn ablation_replication_rescues_correctness() {
        let p = FpgaPlatform::vc707();
        // A mid-critical point: per-task fault probability ≈ 0.4 — deep
        // enough to ruin unprotected runs, shallow enough that voting
        // (with the reliable CPU as one replica) still converges. Deeper
        // points approach p → 1 where even triplication cannot help,
        // which is the expected physics.
        let span = p.v_min.0 - p.v_crash.0;
        let v = Volt(p.v_min.0 - 0.5 * span);
        let rows = undervolt_ablation(&p, &[Volt(1.0), v], 6, 12);
        let nominal = &rows[0];
        let mid = &rows[1];
        assert!(nominal.unprotected_correct > 0.99);
        assert!(
            (0.1..0.7).contains(&mid.fault_probability),
            "expected mid-critical p: {mid:?}"
        );
        assert!(
            mid.unprotected_correct < 0.4,
            "faults must bite unprotected runs: {mid:?}"
        );
        assert!(
            mid.replicated_correct > 0.8,
            "replication must rescue mid-critical operation: {mid:?}"
        );
        assert!(mid.replication_energy_factor > 1.0);
        // And the saving that motivates it all is real.
        assert!(mid.power_saving > 0.25, "{mid:?}");
    }

    #[test]
    fn rejects_non_fpga() {
        let p = FpgaPlatform::vc707();
        let err = operating_point(&DeviceSpec::gtx1080(), &p, Volt(1.0), 0.5, Seconds(0.2))
            .expect_err("GPU must be rejected");
        assert!(
            matches!(err, RuntimeError::InvalidParameter { name: "base", .. }),
            "{err}"
        );
        assert!(err.to_string().contains("FPGA"), "{err}");
    }

    #[test]
    fn rejects_malformed_working_set_and_exposure() {
        let p = FpgaPlatform::vc707();
        let base = DeviceSpec::fpga_kintex();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = operating_point(&base, &p, Volt(1.0), bad, Seconds(0.2))
                .expect_err("bad working set");
            assert!(
                matches!(
                    err,
                    RuntimeError::InvalidParameter {
                        name: "working_set_mbit",
                        ..
                    }
                ),
                "{err}"
            );
        }
        for bad in [Seconds(0.0), Seconds(-0.2), Seconds(f64::NAN)] {
            let err = operating_point(&base, &p, Volt(1.0), 0.5, bad).expect_err("bad exposure");
            assert!(
                matches!(
                    err,
                    RuntimeError::InvalidParameter {
                        name: "exposure",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn undervolt_ladder_tracks_the_rail() {
        let p = FpgaPlatform::zc702();
        let base = DeviceSpec::fpga_kintex();
        let guard = Volt(p.v_min.0 + 0.01);
        let critical = Volt(p.v_min.0 - 0.5 * (p.v_min.0 - p.v_crash.0));
        let crash = Volt(p.v_crash.0 - 0.01);
        let ladder = undervolt_ladder(&base, &p, &[guard, critical, crash], 0.5, Seconds(0.2))
            .expect("valid inputs");
        assert_eq!(ladder.len(), 4);
        assert!(ladder[0].is_nominal());
        // Deeper rails save more power.
        assert!(ladder[1].power_scale < 1.0);
        assert!(ladder[2].power_scale < ladder[1].power_scale);
        // Undervolting does not slow the clock down.
        assert!(ladder.iter().all(|p| p.duration_scale == 1.0));
        // Guardband rung is fault-free; the critical rung faults; the
        // crash rung is marked unusable.
        assert_eq!(ladder[1].fault_probability, 0.0);
        assert!(ladder[2].fault_probability > 0.0 && ladder[2].fault_probability < 1.0);
        assert_eq!(ladder[3].fault_probability, 1.0);
        // Rungs compose with the hw-side spec derivation: busy power at
        // the rung matches the Fig. 5 model's scaled draw.
        let derated = base
            .clone()
            .with_operating_points(ladder.clone())
            .at_operating_point(2)
            .expect("rung 2");
        let reference = operating_point(&base, &p, critical, 0.5, Seconds(0.2)).expect("valid");
        assert!((derated.busy_power.0 - reference.spec.busy_power.0).abs() < 1e-9);
    }

    #[test]
    fn ladder_rejects_malformed_inputs() {
        let p = FpgaPlatform::vc707();
        let err = undervolt_ladder(&DeviceSpec::gtx1080(), &p, &[Volt(1.0)], 0.5, Seconds(0.2))
            .expect_err("GPU must be rejected");
        assert!(matches!(err, RuntimeError::InvalidParameter { .. }));
    }
}
