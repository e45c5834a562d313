//! Reduced-size smoke runs of every workload with all correctness checks
//! on, so a broken workload fails in seconds rather than in a full run;
//! plus a check that the metrics the benchmark prints are exactly the
//! ones `BENCHMARK.json` declares.

use legato_perfbench::bench::{self, Plan, Summary};
use legato_perfbench::workloads::{Sizes, Workload};

fn smoke(workload: Workload, seed: u64, traced: bool) -> Summary {
    let s = bench::run(&Plan {
        workload,
        sizes: Sizes::smoke(),
        seed,
        seconds: 0.0,
        traced,
    });
    assert!(
        s.correct(),
        "{} (traced: {traced}) failed: {:?}",
        workload.name(),
        s.violations
    );
    assert!(s.attempted > 0);
    s
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("closed string")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn printed(s: &Summary) -> Vec<(String, String)> {
    let mut v: Vec<_> = s
        .metrics
        .iter()
        .map(|(k, m)| ((*k).to_string(), m.unit.to_string()))
        .collect();
    v.sort();
    v
}

#[test]
fn every_workload_passes_its_checks_untraced_and_traced() {
    for w in Workload::ALL {
        let untraced = smoke(w, 5, false);
        let traced = smoke(w, 5, true);
        assert_eq!(untraced.untraced.len(), bench::MIN_ITERATIONS);
        assert_eq!(traced.traced.len(), bench::MIN_ITERATIONS);
        assert!(traced
            .tracer
            .as_ref()
            .is_some_and(|t| !t.spans().is_empty()));
    }
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let mut e2e = declared("end_to_end");
    let mut layers = declared("per_layer");
    e2e.sort();
    layers.sort();
    for w in Workload::ALL {
        assert_eq!(printed(&smoke(w, 9, false)), e2e, "{} end_to_end", w.name());
        assert_eq!(
            printed(&smoke(w, 9, true)),
            layers,
            "{} per_layer",
            w.name()
        );
    }
}

#[test]
fn simulated_outputs_repeat_per_seed_and_move_with_it() {
    for w in Workload::ALL {
        let a = smoke(w, 21, false);
        let b = smoke(w, 21, false);
        let c = smoke(w, 22, false);
        let sim = |s: &Summary| s.untraced[0].outputs.clone();
        assert_eq!(sim(&a), sim(&b), "{} not deterministic", w.name());
        assert_ne!(
            sim(&a)["sim_energy_j"],
            sim(&c)["sim_energy_j"],
            "{} ignores its seed",
            w.name()
        );
    }
}

#[test]
fn result_line_is_one_json_object_with_the_contract_keys() {
    let line = bench::result_json(&smoke(Workload::TenantStream, 1, false));
    assert!(!line.contains('\n'));
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(line.contains("\"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"tasks_per_s\": {\"value\": "));
}
