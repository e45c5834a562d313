//! One benchmark run: repeat a workload for the requested wall time,
//! check every repetition, and reduce the repetitions to metrics.
//!
//! Deterministic outputs must repeat bit for bit across repetitions (and
//! between traced and untraced repetitions), or the run is incorrect.
//!
//! Host times are normalized to a reference host speed. On a shared
//! machine the whole host slows by up to 2× in phases lasting seconds to
//! tens of minutes, far longer than a run, so no statistic over one run's
//! repetitions removes them. A fixed probe loop that uses no legato code
//! (`Probe`) is therefore timed after every repetition, and each
//! repetition's host times are divided by its slowdown — the mean of the
//! probe times before and after it (after only, for the first) over
//! [`REFERENCE_NOMINAL_S`] (rates are multiplied). The probe's memory is
//! allocated and touched once, so it times only its loop and not the
//! allocator state a repetition leaves behind. A slow phase stretches
//! probe and repetition alike; a change to the program moves only the
//! repetition. Each metric is then the median over the run's
//! repetitions; the raw medians and the median slowdown are printed
//! beside them.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

use crate::trace::Tracer;
use crate::workloads::{percentile, run_iteration, Iteration, Outputs, Sizes, Workload};

/// Repetitions made even when `seconds` runs out first.
pub const MIN_ITERATIONS: usize = 3;

/// `Probe::time_s` on an unloaded host: the speed host times are
/// normalized to.
pub const REFERENCE_NOMINAL_S: f64 = 0.04;

/// Host-speed probe: a fixed loop over a binary heap and a 16 MiB
/// random-access arena — the access pattern of an event queue and its
/// task tables — built from `std` types only so that no change to the
/// program under test can move it. Both are allocated and touched once,
/// in [`Probe::new`], and reused by every [`Probe::time_s`].
struct Probe {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    arena: Vec<u64>,
}

impl Probe {
    const HEAP: usize = 50_000;

    /// Allocate the probe's memory and run the loop once, untimed, so
    /// that every page is resident before the first timing.
    fn new() -> Probe {
        let mut p = Probe {
            heap: BinaryHeap::with_capacity(Self::HEAP + 1),
            arena: vec![1u64; 1 << 21],
        };
        p.time_s();
        p
    }

    /// Seconds taken by one pass of the loop.
    fn time_s(&mut self) -> f64 {
        let t = Instant::now();
        let (heap, arena) = (&mut self.heap, &mut self.arena);
        heap.clear();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            heap.push(Reverse((x >> 20, i)));
            if heap.len() > Self::HEAP {
                heap.pop();
            }
            let j = (x as usize) & (arena.len() - 1);
            arena[j] = arena[j].wrapping_add(i);
        }
        black_box((heap.len(), arena[7]));
        t.elapsed().as_secs_f64()
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Input sizes.
    pub sizes: Sizes,
    /// Input seed.
    pub seed: u64,
    /// Wall time to keep repeating for.
    pub seconds: f64,
    /// Traced run: alternate untraced and traced repetitions and report
    /// the per-layer metrics instead of the end-to-end ones.
    pub traced: bool,
}

/// A named metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Result of one run.
#[derive(Debug, Default)]
pub struct Summary {
    /// Tasks attempted over all repetitions.
    pub attempted: u64,
    /// Tasks failed over all repetitions, plus any repetition that
    /// failed outright.
    pub failed: u64,
    /// Correctness-check violations (empty = correct).
    pub violations: Vec<String>,
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
    /// Untraced repetitions made.
    pub untraced: Vec<Iteration>,
    /// Traced repetitions made.
    pub traced: Vec<Iteration>,
    /// The tracer, holding every traced span.
    pub tracer: Option<Tracer>,
    /// Peak resident set after the first repetition, MiB.
    pub peak_rss_mib: f64,
}

impl Summary {
    /// Whether every check passed and nothing failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }
}

/// Median of `values` (upper median for even counts; 0 when empty).
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    percentile(&mut v, 0.5)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Whether two output maps are bit-identical.
fn same_bits(a: &Outputs, b: &Outputs) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

/// Execute `plan`.
#[must_use]
pub fn run(plan: &Plan) -> Summary {
    let mut s = Summary::default();
    let mut tracer = Tracer::new(false);
    let start = Instant::now();
    // The probe is made after the first repetition's peak resident set
    // is read, so that figure is the program's, not the probe arena's.
    let mut probe: Option<Probe> = None;
    let mut last_probe_s = None;
    let mut n = 0u32;
    while n < MIN_ITERATIONS as u32 * (1 + u32::from(plan.traced))
        || start.elapsed().as_secs_f64() < plan.seconds
    {
        let traced = plan.traced && n % 2 == 1;
        tracer.set_enabled(traced);
        tracer.begin_iteration(n);
        let it = run_iteration(plan.workload, &plan.sizes, plan.seed, &mut tracer);
        tracer.end_iteration();
        if n == 0 {
            s.peak_rss_mib = peak_rss_mib();
        }
        n += 1;
        let mut it = match it {
            Ok(it) => it,
            Err(e) => {
                s.violations.push(e);
                s.failed += 1;
                break;
            }
        };
        let after = probe.get_or_insert_with(Probe::new).time_s();
        it.slowdown = (last_probe_s.unwrap_or(after) + after) / 2.0 / REFERENCE_NOMINAL_S;
        last_probe_s = Some(after);
        s.attempted += it.attempted;
        s.failed += it.failed;
        s.violations.extend(it.violations.iter().cloned());
        let first = s.untraced.first().or(s.traced.first());
        if let Some(first) = first {
            if !same_bits(&first.outputs, &it.outputs) {
                s.violations.push(format!(
                    "repetition {n} outputs differ from repetition 1: {:?} vs {:?}",
                    it.outputs, first.outputs
                ));
            }
        }
        s.notes.push(format!(
            "repetition {n}{}: at {:.3} s, slowdown {:.4}, raw setup {:.6} s, drive {:.6} s, \
             {:.1} tasks/s, step p50 {:.3} us, tail {:.3} us",
            if traced { " (traced)" } else { "" },
            start.elapsed().as_secs_f64(),
            it.slowdown,
            it.setup_s,
            it.drive_s,
            it.tasks_per_s(),
            it.step.p50_us,
            it.step.tail_us
        ));
        if traced {
            s.traced.push(it);
        } else {
            s.untraced.push(it);
        }
    }
    if s.untraced.is_empty() || (plan.traced && s.traced.is_empty()) {
        s.failed = s.failed.max(1);
        return s;
    }
    if plan.traced {
        per_layer(&mut s, &tracer);
        s.tracer = Some(tracer);
    } else {
        end_to_end(&mut s);
    }
    for (k, m) in &s.metrics {
        if !m.value.is_finite() {
            s.violations
                .push(format!("metric {k} is not finite: {}", m.value));
        }
    }
    s
}

fn end_to_end(s: &mut Summary) {
    let its = &s.untraced;
    let out = &its[0].outputs;
    let step = its[0].step;
    let m = &mut s.metrics;
    let mut put = |k, value, unit| {
        m.insert(k, Metric { value, unit });
    };
    // Host times are divided by each repetition's slowdown, rates
    // multiplied (see the module docs).
    let time = |f: fn(&Iteration) -> f64| median(its.iter().map(|i| f(i) / i.slowdown));
    let tasks_per_s = median(its.iter().map(|i| i.tasks_per_s() * i.slowdown));
    put("tasks_per_s", tasks_per_s, "1/s");
    put("setup_s", time(|i| i.setup_s), "s");
    put("peak_rss_mib", s.peak_rss_mib, "MiB");
    put("step_p50_us", time(|i| i.step.p50_us), "us");
    put("step_p99_us", time(|i| i.step.tail_us), "us");
    put("sim_makespan_s", out["sim_makespan_s"], "sim_s");
    put("sim_energy_j", out["sim_energy_j"], "J");
    put("sim_p99_latency_s", out["sim_p99_latency_s"], "sim_s");
    put("completion_ratio", out["completion_ratio"], "ratio");
    s.notes.push(format!(
        "repetitions: {}; per repetition {} blocking call(s), step_p99_us at p{:.2}; \
         median slowdown {:.4}; raw medians: tasks_per_s {:.1}, setup_s {:.6}",
        its.len(),
        step.samples,
        step.tail_q * 100.0,
        median(its.iter().map(|i| i.slowdown)),
        median(its.iter().map(Iteration::tasks_per_s)),
        median(its.iter().map(|i| i.setup_s)),
    ));
}

fn per_layer(s: &mut Summary, tracer: &Tracer) {
    let its = &s.traced;
    let out = &its[0].outputs;
    // Every layer figure is a host time: divide by the slowdown of the
    // traced repetition it was recorded in.
    let hist = tracer.history();
    let layer = |name: &str, f: &dyn Fn(&crate::trace::LayerTotals) -> f64| {
        median(
            hist.iter()
                .zip(its)
                .map(|(h, it)| h.get(name).map_or(0.0, f) / it.slowdown),
        )
    };
    let total_s = |name: &str| layer(name, &|l| l.total_ns as f64 / 1e9);
    let events = its[0].events.unwrap_or(0) as f64;
    let completed = its[0].completed as f64;
    let placements = out["replication.placements"];
    let report_calls = its[0].report_calls as f64;
    // On `tenant_stream` the engine and report layers are reached only
    // through `Service::step`: the per-event cost is the whole step, and
    // the report cost is sampled by the shadow `report` spans.
    let service = hist.iter().any(|h| h.contains_key("service.step"));
    let ns_per_event = if service {
        layer("service.step", &|l| l.total_ns as f64) / events
    } else {
        layer("engine", &|l| l.self_ns as f64 / l.calls as f64)
    };
    let report_s = if service {
        layer("report", &|l| l.total_ns as f64 / 1e9 / l.calls as f64) * report_calls
    } else {
        total_s("report")
    };
    let useful = out["resilience.useful_s"];
    let wasted = out["resilience.wasted_s"] + out["churn.wasted_s"];
    let untraced_tps = median(s.untraced.iter().map(|i| i.tasks_per_s() * i.slowdown));
    let traced_tps = median(its.iter().map(|i| i.tasks_per_s() * i.slowdown));

    let m = &mut s.metrics;
    let mut put = |k, value, unit| {
        m.insert(k, Metric { value, unit });
    };
    put("config.build_s", total_s("config"), "s");
    put("graph.build_s", total_s("graph"), "s");
    put("graph.tasks", out["graph.tasks"], "count");
    put("analyze.s", total_s("analyze"), "s");
    put("analyze.findings", out["analyze.findings"], "count");
    put("engine.events", events, "count");
    put("engine.events_per_task", events / completed, "events/task");
    put("engine.ns_per_event", ns_per_event, "ns");
    put("placement.evals", out["placement.evals"], "count");
    put(
        "placement.evals_per_task",
        out["placement.evals"] / placements,
        "evals/task",
    );
    put("report.calls", report_calls, "count");
    put("report.s", report_s, "s");
    put(
        "replication.replicas_per_task",
        out["replication.replicas"] / placements,
        "replicas/task",
    );
    for (k, unit) in [
        ("security.enclave_tasks", "count"),
        ("security.confidential_tasks", "count"),
        ("security.attestations", "count"),
        ("security.sealed_bytes", "B"),
        ("security.premium_s", "sim_s"),
        ("resilience.checkpoints", "count"),
        ("resilience.rollbacks", "count"),
        ("resilience.checkpoint_bytes", "B"),
        ("resilience.wasted_s", "sim_s"),
        ("energy.busy_j", "J"),
        ("energy.idle_j", "J"),
        ("energy.bound_relaxations", "count"),
        ("churn.departures", "count"),
        ("churn.crashes", "count"),
        ("churn.migrations", "count"),
        ("churn.respreads", "count"),
        ("churn.deferred_placements", "count"),
        ("churn.wasted_s", "sim_s"),
    ] {
        put(k, out[k], unit);
    }
    put(
        "resilience.useful_ratio",
        useful / (useful + wasted),
        "ratio",
    );
    for (k, span) in [
        ("service.submit_s", "service.submit"),
        ("service.step_s", "service.step"),
        ("service.seal_s", "service.seal"),
        ("service.restart_s", "service.restart"),
        ("service.meter_s", "service.meter"),
    ] {
        put(k, total_s(span), "s");
    }
    for k in ["service.admitted", "service.rejected", "service.reexecuted"] {
        put(k, out.get(k).copied().unwrap_or(0.0), "count");
    }
    put(
        "trace.overhead_pct",
        (untraced_tps - traced_tps) / untraced_tps * 100.0,
        "%",
    );
    s.notes.push(format!(
        "repetitions: {} untraced, {} traced; tasks_per_s untraced {untraced_tps:.1}, traced {traced_tps:.1}; spans kept: {}",
        s.untraced.len(),
        its.len(),
        tracer.spans().len()
    ));
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, values printed with every digit.
#[must_use]
pub fn result_json(s: &Summary) -> String {
    let metrics: Vec<String> = s
        .metrics
        .iter()
        .map(|(k, m)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.correct(),
        s.attempted.max(1),
        s.failed,
        metrics.join(", ")
    )
}

/// A JSON number for `v` (non-finite values have no JSON form; they are
/// printed as 0, and [`run`] has already marked the run incorrect).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}
