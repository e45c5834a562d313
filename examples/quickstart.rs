//! Quickstart: submit a small task graph to the heterogeneous runtime,
//! compare scheduling policies, and checkpoint application state.
//!
//! Run with: `cargo run --example quickstart`

use legato::core::task::{AccessMode, TaskDescriptor, TaskKind, Work};
use legato::core::units::{Bytes, Seconds};
use legato::fti::fti::Strategy;
use legato::fti::{CheckpointLevel, Fti, FtiConfig};
use legato::hw::device::DeviceSpec;
use legato::hw::memory::{AddrSpace, MemoryManager};
use legato::hw::storage::{StorageDevice, StorageTier};
use legato::runtime::{EngineConfig, Policy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A heterogeneous node: CPU + GPU + FPGA, as hosted by a RECS|BOX.
    let devices = vec![
        DeviceSpec::xeon_x86(),
        DeviceSpec::gtx1080(),
        DeviceSpec::fpga_kintex(),
    ];

    // 2. The same dataflow app under two scheduling policies.
    for (label, policy) in [
        ("performance", Policy::Performance),
        ("energy", Policy::Energy),
    ] {
        let mut rt = EngineConfig::new()
            .with_devices(devices.clone())
            .with_policy(policy)
            .with_seed(42)
            .build()
            .expect("valid engine config");
        // A tiny pipeline: preprocess -> 4x inference -> aggregate,
        // expressed purely through data-access annotations.
        rt.submit(
            TaskDescriptor::named("preprocess").with_work(Work::flops(5e9)),
            [(0u64, AccessMode::Out)],
        );
        for i in 0..4u64 {
            rt.submit(
                TaskDescriptor::named(format!("infer-{i}"))
                    .with_kind(TaskKind::Inference)
                    .with_work(Work::flops(66e9)),
                [(0u64, AccessMode::In), (10 + i, AccessMode::Out)],
            );
        }
        rt.submit(
            TaskDescriptor::named("aggregate").with_work(Work::flops(1e9)),
            (0..4u64)
                .map(|i| (10 + i, AccessMode::In))
                .collect::<Vec<_>>(),
        );
        let report = rt.run()?;
        println!(
            "{label:>12}: makespan {:>8.4} s, busy energy {:>7.2} J, correct: {}",
            report.makespan.0,
            report.busy_energy.0,
            report.is_correct()
        );
    }

    // 3. Checkpoint some state with the FTI-style API (Listing 1 flow).
    let mut mm = MemoryManager::new();
    let state = mm.alloc(AddrSpace::Unified, Bytes::mib(8))?;
    mm.write(state, 0, b"application state v1")?;

    let mut fti = Fti::new(FtiConfig::default(), 0);
    fti.protect(0, state, &mm)?;
    let mut nvme = StorageDevice::new(StorageTier::local_nvme());
    let ckpt = fti.checkpoint(
        &mut mm,
        &mut nvme,
        CheckpointLevel::L1,
        Strategy::Async,
        Seconds::ZERO,
    )?;
    println!(
        "\ncheckpointed {} in {:.3} s (async strategy)",
        ckpt.bytes,
        ckpt.duration().0
    );

    // Corrupt and recover.
    mm.write(state, 0, b"XXXXXXXXXXXXXXXXXXXX")?;
    fti.recover(&mut mm, &mut nvme, Strategy::Async, ckpt.finish)?;
    let restored = &mm.data(state)?[..20];
    println!("recovered state: {}", String::from_utf8_lossy(restored));
    assert_eq!(restored, b"application state v1");
    Ok(())
}
