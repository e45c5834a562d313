//! End-to-end and per-layer benchmark of the legato runtime.
//!
//! Three closed-loop workloads, each driven by one caller on one thread
//! (see [`workloads`]); one run repeats a workload for a fixed wall time,
//! checks every repetition's outputs, and reduces the repetitions to
//! the metrics named in `BENCHMARK.json` (see [`bench`]). A traced run
//! records spans around every call into a layer from this crate's side
//! of the public API (see [`trace`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Wall-clock measurement is this crate's purpose; the repository's
// clippy.toml bans the host clock in simulator code and asks benches to
// mark themselves with this allow.
#![allow(clippy::disallowed_methods)]

pub mod bench;
pub mod inputs;
pub mod trace;
pub mod workloads;
