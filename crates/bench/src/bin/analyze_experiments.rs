//! CI gate: run the static analyzer over every reference experiment
//! graph — the exact graphs the criterion benches time and the figure
//! bins plot — and refuse the build if any of them carries an
//! analysis *error* (a race, an illegal confidential flow, an
//! infeasible placement, an unclosed checkpoint frontier).
//!
//! Each experiment is rebuilt under its own real pillar configuration
//! (the resilience scenario with its checkpoint config, the secure
//! offload scenario with its security config, …) so the lints see what
//! the runtime would see. One human-readable report per experiment plus
//! a machine-readable `summary.json` land in the output directory
//! (first CLI argument, default `analysis-reports/`), which CI uploads
//! as an artifact.
//!
//! Exit code 0 = every graph is error-free (warnings are reported but
//! do not gate); 1 = at least one experiment graph has an error.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use legato_bench::experiments::{engine, goals, resilience, secure_offload};
use legato_fti::Strategy;
use legato_runtime::{
    AnalysisReport, EnergyConfig, EngineConfig, Policy, ResilienceConfig, SecurityConfig,
};

/// One analyzed experiment graph.
struct Cell {
    /// Bench-style id, also the report file stem (`/` → `_`).
    name: &'static str,
    report: AnalysisReport,
}

fn analyze_all() -> Vec<Cell> {
    let seed = 42;
    let mut cells = Vec::new();

    // The two engine scenarios, exactly as `runtime_engine` times them.
    for (name, scenario, policy) in [
        (
            "engine/wide_graph_1k",
            engine::Scenario::reference_wide(),
            Policy::Performance,
        ),
        (
            "engine/straggler_1k",
            engine::Scenario::reference_straggler(),
            Policy::Weighted(0.5),
        ),
    ] {
        let mut rt = EngineConfig::new()
            .with_devices(goals::reference_devices())
            .with_policy(policy)
            .with_seed(seed)
            .build()
            .expect("valid engine config");
        scenario.build(&mut rt, seed);
        cells.push(Cell {
            name,
            report: rt.analyze(),
        });
    }

    // The goals app with reliability-critical stages (E7 shape).
    {
        let mut rt = EngineConfig::new()
            .with_devices(goals::reference_devices())
            .with_policy(Policy::Weighted(0.5))
            .with_seed(seed)
            .build()
            .expect("valid engine config");
        goals::build_app(&mut rt, 6, 8, 0.3, seed);
        cells.push(Cell {
            name: "goals/app_6x8_critical",
            report: rt.analyze(),
        });
    }

    // The resilience scenario under its checkpoint configuration, so the
    // checkpoint-closure lint sees the frontier the FTI layer would
    // roll back to.
    {
        let scenario = resilience::Scenario::reference();
        let mtbf = resilience::reference_mtbfs(scenario)[0].1;
        let mut rt = EngineConfig::new()
            .with_devices(goals::reference_devices())
            .with_policy(Policy::Performance)
            .with_seed(seed)
            .with_resilience(
                ResilienceConfig::new(mtbf)
                    .with_strategy(Strategy::Initial)
                    .with_region_sizes(scenario.region_sizes()),
            )
            .build()
            .expect("valid engine config");
        scenario.build(&mut rt);
        cells.push(Cell {
            name: "resilience/initial_ckpt",
            report: rt.analyze(),
        });
    }

    // Secure offload at the 50 % confidential cell, both crypto classes:
    // the flow and feasibility lints run against the same device mixes
    // the sweep places on.
    for crypto in secure_offload::CryptoClass::ALL {
        let scenario = secure_offload::Scenario::reference();
        let mut rt = EngineConfig::new()
            .with_devices(secure_offload::devices(crypto))
            .with_policy(Policy::Performance)
            .with_seed(seed)
            .with_security(SecurityConfig::new().with_region_sizes(scenario.region_sizes()))
            .build()
            .expect("valid engine config");
        scenario.build(&mut rt, 50);
        cells.push(Cell {
            name: match crypto {
                secure_offload::CryptoClass::Software => "secure_offload/sw_50pct",
                secure_offload::CryptoClass::Hardware => "secure_offload/hw_50pct",
            },
            report: rt.analyze(),
        });
    }

    // The energy frontier's eco cell (E11 shape).
    {
        let mut rt = EngineConfig::new()
            .with_devices(goals::reference_devices())
            .with_policy(Policy::Energy)
            .with_seed(seed)
            .with_energy(EnergyConfig::new().with_uniform_step(1))
            .build()
            .expect("reference devices carry the default ladder");
        engine::Scenario::reference_wide().build(&mut rt, seed);
        cells.push(Cell {
            name: "energy/eco_wide_graph",
            report: rt.analyze(),
        });
    }

    cells
}

/// Hand-rolled JSON, same policy as the rest of the workspace (no
/// serde_json in the tree): flat array of per-experiment verdicts.
fn summary_json(cells: &[Cell]) -> String {
    let mut out = String::from("[\n");
    for (i, cell) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"experiment\": \"{}\", \"tasks_analyzed\": {}, \"errors\": {}, \"warnings\": {}, \"clean\": {}}}",
            cell.name,
            cell.report.tasks_analyzed,
            cell.report.error_count(),
            cell.report.warning_count(),
            cell.report.is_clean(),
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

fn main() -> ExitCode {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "analysis-reports".to_string());
    let out_dir = Path::new(&out_dir);
    std::fs::create_dir_all(out_dir).expect("create report directory");

    let cells = analyze_all();
    let mut failed = false;
    for cell in &cells {
        let verdict = if cell.report.has_errors() {
            failed = true;
            "FAIL"
        } else if cell.report.warning_count() > 0 {
            "warn"
        } else {
            "ok"
        };
        println!("{:>4}  {:<28} {}", verdict, cell.name, cell.report);
        let path = out_dir.join(format!("{}.txt", cell.name.replace('/', "_")));
        std::fs::write(&path, format!("{}\n{}\n", cell.name, cell.report))
            .expect("write report file");
    }
    std::fs::write(out_dir.join("summary.json"), summary_json(&cells)).expect("write summary.json");

    println!(
        "\n{} experiment graph(s) analyzed, reports in {}",
        cells.len(),
        out_dir.display()
    );
    if failed {
        eprintln!("analysis errors found — failing the gate");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
