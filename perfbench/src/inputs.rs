//! Seeded input generation: fleets, task sizes, churn traces.
//!
//! Every input the program under test receives is drawn here from the
//! `--seed` argument, so the same seed always produces the same fleet,
//! graph and stream, and the simulated outputs repeat bit for bit.

use legato_core::units::Seconds;
use legato_hw::device::DeviceSpec;
use legato_runtime::{ChurnEvent, ChurnEventKind, ChurnTrace, DepartureKind};

/// SplitMix64: a tiny, well-mixed generator that keeps the benchmark's
/// inputs independent of the generator the runtime uses internally.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator for `seed`, salted per input stream so the fleet, the
    /// graph and the trace of one seed do not share a sequence.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The four reference device classes, in round-robin order.
#[must_use]
pub fn reference_specs() -> [DeviceSpec; 4] {
    [
        DeviceSpec::xeon_x86(),
        DeviceSpec::gtx1080(),
        DeviceSpec::fpga_kintex(),
        DeviceSpec::arm64(),
    ]
}

/// A fleet of `n` devices cycling over [`reference_specs`].
#[must_use]
pub fn round_robin_fleet(n: usize) -> Vec<DeviceSpec> {
    let specs = reference_specs();
    (0..n).map(|i| specs[i % specs.len()].clone()).collect()
}

/// Task sizes in FLOP, uniform over `[lo, 2·lo)`.
#[must_use]
pub fn task_flops(rng: &mut SplitMix64, count: usize, lo: f64) -> Vec<f64> {
    (0..count).map(|_| lo * (1.0 + rng.unit())).collect()
}

/// Virtual seconds per task of the `all_pillars` churn horizon.
///
/// The churn trace is drawn over the fixed-fleet makespan. That makespan
/// is fixed here as a function of the input size rather than measured
/// by a calibration run, so the trace never depends on the program
/// under test: 100k tasks on the 64-device fleet ran 8,089–8,335 sim s
/// without churn (seeds 1–3) when the benchmark was defined.
pub const CHURN_HORIZON_PER_TASK: Seconds = Seconds(0.082);

/// A churn trace of `events` departures over `horizon`, one at a random
/// time in each of `events` equal slices of it: victims cycle over the
/// four device classes of a [`round_robin_fleet`] of `fleet` devices (a
/// random live device of the class each time), and departures alternate
/// crash and planned drain.
///
/// Stratifying the times and balancing the classes keeps the capacity a
/// trace removes — and so the simulated outputs — from swinging with
/// which classes one seed happens to hit, and when.
#[must_use]
pub fn churn_trace(
    rng: &mut SplitMix64,
    fleet: usize,
    horizon: Seconds,
    events: usize,
) -> ChurnTrace {
    let classes = reference_specs().len();
    let mut live: Vec<Vec<usize>> = (0..classes)
        .map(|c| (c..fleet).step_by(classes).collect())
        .collect();
    let mut events_out = Vec::with_capacity(events);
    for k in 0..events {
        let class = &mut live[k % classes];
        if class.len() <= 1 {
            break;
        }
        let device = class.swap_remove((rng.next_u64() % class.len() as u64) as usize);
        events_out.push(ChurnEvent {
            at: Seconds((k as f64 + rng.unit()) / events as f64 * horizon.0),
            kind: ChurnEventKind::Departure {
                device,
                kind: if k % 2 == 0 {
                    DepartureKind::Crash
                } else {
                    DepartureKind::Planned
                },
            },
        });
    }
    ChurnTrace::from_events(events_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::new(7, 1).next_u64()).collect();
        let mut g = SplitMix64::new(7, 1);
        let b: Vec<u64> = (0..4).map(|_| g.next_u64()).collect();
        assert!(a.iter().all(|&x| x == b[0]));
        assert_ne!(b[0], b[1]);
        assert_ne!(
            SplitMix64::new(7, 1).next_u64(),
            SplitMix64::new(7, 2).next_u64()
        );
    }

    #[test]
    fn unit_draws_stay_in_range() {
        let mut g = SplitMix64::new(3, 0);
        assert!((0..10_000)
            .map(|_| g.unit())
            .all(|u| (0.0..1.0).contains(&u)));
    }
}
