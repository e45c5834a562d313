//! Deterministic end-to-end scenarios for the malleability layer:
//! planned drain wastes nothing, crashes migrate queued work and charge
//! running work, transiently empty TEE pools defer instead of refusing,
//! expired deferrals fail cleanly, and the sharded placement path stays
//! bit-identical to the flat path while the fleet churns underneath it.

use legato_core::requirements::{Requirements, SecurityLevel};
use legato_core::task::{AccessMode, TaskDescriptor, TaskKind, Work};
use legato_core::units::Seconds;
use legato_hw::device::DeviceSpec;
use legato_runtime::{
    ChurnConfig, ChurnEvent, ChurnEventKind, ChurnTrace, DepartureKind, EngineConfig, Policy,
    PoolConfig, Runtime, RuntimeError,
};

const FLOPS: f64 = 2e12;

fn task_duration() -> Seconds {
    DeviceSpec::xeon_x86().time_for(Work::flops(FLOPS), TaskKind::Compute)
}

/// `n` independent equal tasks (distinct regions: no dependencies).
fn submit_independent(rt: &mut Runtime, n: u64) {
    for r in 0..n {
        rt.submit(
            TaskDescriptor::named("t").with_work(Work::flops(FLOPS)),
            [(r, AccessMode::InOut)],
        );
    }
}

fn two_xeons(trace: ChurnTrace) -> Runtime {
    EngineConfig::new()
        .with_devices(vec![DeviceSpec::xeon_x86(), DeviceSpec::xeon_x86()])
        .with_policy(Policy::Performance)
        .with_churn(ChurnConfig::new(trace))
        .build()
        .expect("valid engine config")
}

#[test]
fn planned_drain_completes_everything_with_zero_wasted_work() {
    let dur = task_duration();
    let trace = ChurnTrace::from_events(vec![ChurnEvent {
        at: Seconds(dur.0 * 0.5),
        kind: ChurnEventKind::Departure {
            device: 1,
            kind: DepartureKind::Planned,
        },
    }]);
    let mut rt = two_xeons(trace);
    submit_independent(&mut rt, 6);
    let report = rt.run().expect("drain completes the run");
    let churn = report.churn.expect("churn configured");
    assert_eq!(report.placements.len(), 6, "no task lost to the shrink");
    assert!(report.failed.is_empty());
    assert_eq!(churn.departures, 1);
    assert_eq!(churn.crashes, 0);
    assert_eq!(churn.migrations, 0, "drained work is never re-planned");
    assert_eq!(
        churn.wasted_work,
        Seconds::ZERO,
        "a planned shrink wastes nothing"
    );
}

#[test]
fn crash_migrates_queued_attempts_and_charges_running_ones() {
    let dur = task_duration();
    let trace = ChurnTrace::from_events(vec![ChurnEvent {
        at: Seconds(dur.0 * 0.5),
        kind: ChurnEventKind::Departure {
            device: 1,
            kind: DepartureKind::Crash,
        },
    }]);
    let mut rt = two_xeons(trace);
    // Six equal tasks over two equal devices: three stack up on each, so
    // at `0.5 * dur` device 1 has one running attempt and two queued.
    submit_independent(&mut rt, 6);
    let report = rt.run().expect("the survivor absorbs the crash");
    let churn = report.churn.expect("churn configured");
    assert_eq!(report.placements.len(), 6, "retry + migration recover all");
    assert!(report.failed.is_empty());
    assert_eq!(churn.departures, 1);
    assert_eq!(churn.crashes, 1);
    assert_eq!(churn.migrations, 2, "the queued attempts migrate");
    assert!(
        (churn.wasted_work.0 - dur.0 * 0.5).abs() < 1e-9,
        "the running attempt's partial execution is lost: got {}",
        churn.wasted_work
    );
    assert_eq!(
        report.stats.detected, 1,
        "the crash charges the retry budget"
    );
    assert_eq!(report.stats.retries, 1);
    // Every post-crash start is on the survivor.
    for p in &report.placements {
        if p.start.0 > dur.0 * 0.5 {
            assert_eq!(p.devices.as_slice(), &[0], "dead device re-used");
        }
    }
}

#[test]
fn enclave_task_defers_until_a_tee_device_arrives() {
    // No TEE device at build time: a fixed fleet would hard-refuse.
    let trace = ChurnTrace::from_events(vec![ChurnEvent {
        at: Seconds(5.0),
        kind: ChurnEventKind::Arrival {
            spec: DeviceSpec::xeon_x86(),
            pool: None,
            fault_prob: 0.0,
        },
    }]);
    let mut rt = EngineConfig::new()
        .with_devices(vec![DeviceSpec::gtx1080(), DeviceSpec::fpga_kintex()])
        .with_policy(Policy::Performance)
        .with_churn(ChurnConfig::new(trace))
        .build()
        .expect("valid engine config");
    rt.submit(
        TaskDescriptor::named("sealed")
            .with_work(Work::flops(FLOPS))
            .with_requirements(Requirements::new().with_security(SecurityLevel::Enclave)),
        [(0, AccessMode::InOut)],
    );
    let report = rt.run().expect("the arrival rescues the deferred task");
    let churn = report.churn.expect("churn configured");
    assert_eq!(report.placements.len(), 1);
    assert!(report.failed.is_empty());
    assert_eq!(churn.arrivals, 1);
    assert_eq!(churn.deferred_placements, 1, "the empty pool deferred once");
    let p = &report.placements[0];
    assert_eq!(
        p.devices.as_slice(),
        &[2],
        "placed on the arrived TEE device"
    );
    assert!(p.start >= Seconds(5.0), "cannot start before the arrival");
}

#[test]
fn expired_deferral_fails_the_task_cleanly() {
    // Churn armed but no arrival ever comes: the enclave task parks,
    // the window expires, and the refusal is the dedicated typed error
    // instead of an immediate `NoSecurePlacement`.
    let mut rt = EngineConfig::new()
        .with_devices(vec![DeviceSpec::gtx1080()])
        .with_policy(Policy::Performance)
        .with_churn(ChurnConfig::new(ChurnTrace::new()))
        .build()
        .expect("valid engine config");
    rt.submit(
        TaskDescriptor::named("sealed")
            .with_work(Work::flops(FLOPS))
            .with_requirements(Requirements::new().with_security(SecurityLevel::Enclave)),
        [(0, AccessMode::InOut)],
    );
    let err = rt.run().expect_err("no TEE device ever arrives");
    assert!(matches!(err, RuntimeError::DeferralExpired(_)));
    // The graph stays consistent: a follow-up run drains and reports.
    let report = rt.run().expect("clean after the refusal");
    assert_eq!(report.failed.len(), 1);
    assert!(report.placements.is_empty());
    assert_eq!(
        report.churn.expect("churn configured").deferred_placements,
        1
    );
}

#[test]
fn drain_crash_and_arrival_lose_no_task() {
    // One planned drain and one crash leave a single survivor of a
    // 3-device fleet; a later arrival widens it again. The survivor
    // absorbs the crashed work and the arrival joins the schedule.
    let dur = task_duration();
    let trace = ChurnTrace::from_events(vec![
        ChurnEvent {
            at: Seconds(dur.0 * 0.4),
            kind: ChurnEventKind::Departure {
                device: 2,
                kind: DepartureKind::Planned,
            },
        },
        ChurnEvent {
            at: Seconds(dur.0 * 0.8),
            kind: ChurnEventKind::Departure {
                device: 1,
                kind: DepartureKind::Crash,
            },
        },
        ChurnEvent {
            at: Seconds(dur.0 * 4.0),
            kind: ChurnEventKind::Arrival {
                spec: DeviceSpec::xeon_x86(),
                pool: None,
                fault_prob: 0.0,
            },
        },
    ]);
    let mut rt = EngineConfig::new()
        .with_devices(vec![
            DeviceSpec::xeon_x86(),
            DeviceSpec::xeon_x86(),
            DeviceSpec::xeon_x86(),
        ])
        .with_policy(Policy::Performance)
        .with_churn(ChurnConfig::new(trace))
        .build()
        .expect("valid engine config");
    submit_independent(&mut rt, 9);
    let report = rt.run().expect("the survivor absorbs the churn");
    let churn = report.churn.expect("churn configured");
    assert_eq!(churn.departures, 2);
    assert_eq!(churn.crashes, 1);
    assert_eq!(churn.arrivals, 1);
    assert!(report.failed.is_empty(), "no task lost to the churn");
    assert_eq!(report.placements.len(), 9);
}

#[test]
fn pooled_placement_stays_bit_identical_under_churn() {
    // Arrival + drain + crash over a pooled fleet: the sharded search
    // must keep making exactly the placements of the flat scan while
    // the shards grow and shrink (PR 7's equivalence, now under churn).
    let dur = task_duration();
    let specs = vec![
        DeviceSpec::xeon_x86(),
        DeviceSpec::xeon_x86(),
        DeviceSpec::gtx1080(),
        DeviceSpec::fpga_kintex(),
    ];
    let trace = ChurnTrace::from_events(vec![
        ChurnEvent {
            at: Seconds(dur.0 * 0.3),
            kind: ChurnEventKind::Arrival {
                spec: DeviceSpec::arm64(),
                pool: Some(1),
                fault_prob: 0.0,
            },
        },
        ChurnEvent {
            at: Seconds(dur.0 * 0.6),
            kind: ChurnEventKind::Departure {
                device: 1,
                kind: DepartureKind::Planned,
            },
        },
        ChurnEvent {
            at: Seconds(dur.0 * 0.9),
            kind: ChurnEventKind::Departure {
                device: 2,
                kind: DepartureKind::Crash,
            },
        },
    ]);
    let build = |pools: Option<PoolConfig>| {
        let mut cfg = EngineConfig::new()
            .with_devices(specs.clone())
            .with_policy(Policy::Performance)
            .with_churn(ChurnConfig::new(trace.clone()));
        if let Some(p) = pools {
            cfg = cfg.with_pools(p);
        }
        cfg.build().expect("valid engine config")
    };
    let mut flat = build(None);
    submit_independent(&mut flat, 12);
    let flat_report = flat.run().expect("flat run completes");

    let mut pooled = build(Some(PoolConfig::uniform(4, 2)));
    submit_independent(&mut pooled, 12);
    let pooled_report = pooled.run().expect("pooled run completes");

    assert_eq!(flat_report, pooled_report);
    assert!(flat_report.churn.expect("churn configured").departures == 2);
}
