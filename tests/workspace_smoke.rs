//! Workspace smoke test: every subsystem crate re-exported from the root
//! `legato` facade is reachable, and one representative type per crate
//! constructs successfully. This pins the workspace wiring itself — a
//! missing manifest edge or a broken re-export fails here before any
//! deeper test runs.

use legato::core::task::TaskDescriptor;
use legato::core::units::Bytes;
use legato::fpga::FpgaPlatform;
use legato::fti::ReedSolomon;
use legato::heats::{Heats, TaskRequest};
use legato::hw::device::DeviceSpec;
use legato::hw::Group;
use legato::mirror::geometry::BBox;
use legato::runtime::{EngineConfig, Policy};
use legato::secure::Platform;

#[test]
fn core_task_descriptor_constructs() {
    let task = TaskDescriptor::named("smoke");
    assert_eq!(task.name, "smoke");
}

#[test]
fn hw_device_and_communicator_construct() {
    let gpu = DeviceSpec::gtx1080();
    assert!(!gpu.name.is_empty());
    let endpoints = Group::endpoints(2);
    assert_eq!(endpoints.len(), 2);
}

#[test]
fn fpga_platform_constructs() {
    let platform = FpgaPlatform::vc707();
    assert!(!platform.name.is_empty());
}

#[test]
fn fti_reed_solomon_constructs() {
    let rs = ReedSolomon::new(4, 2).expect("valid geometry");
    let data = vec![vec![1u8; 8]; 4];
    let parity = rs.encode(&data).expect("encode");
    assert_eq!(parity.len(), 2);
}

#[test]
fn runtime_constructs_and_runs_empty() {
    let rt = EngineConfig::new()
        .with_devices(vec![DeviceSpec::gtx1080()])
        .with_policy(Policy::Energy)
        .with_seed(1)
        .build()
        .expect("valid engine config");
    drop(rt);
}

#[test]
fn heats_scheduler_type_constructs() {
    let request = TaskRequest::new(
        "smoke",
        1,
        Bytes::gib(1),
        legato::core::task::Work::flops(1.0e9),
        legato::core::task::TaskKind::Inference,
    );
    assert_eq!(request.name, "smoke");
    // The scheduler type itself must be nameable through the facade.
    let _ = std::any::type_name::<Heats>();
}

#[test]
fn secure_platform_constructs() {
    let platform = Platform::new(0xC0FFEE, true);
    drop(platform);
}

#[test]
fn mirror_bbox_constructs() {
    let unit = BBox::new(0.0, 0.0, 2.0, 2.0);
    assert!((unit.area() - 4.0).abs() < 1e-12);
}
