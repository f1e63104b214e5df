//! In-process half of the repository benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench-harness setup <workload> <input> <reps>
//! perfbench-harness trace <workload> <input> <out-dir> [<max-entries>]
//! ```
//!
//! `setup` times the workload's set-up (spec text to built engine
//! inputs) `reps` times. `trace` runs the traced replica of the
//! workload, calling each layer's `pub` functions under spans, writes
//! the spans to `<out-dir>/spans-<workload>.jsonl`, and reports each
//! layer's self time as `self_s.<layer>`. Both end by printing one JSON
//! object line that `run.py` reads; everything before it is for people.
//!
//! Inputs: `fig5c-nat` and `million-slammer` take a spec TOML file;
//! `serve-mix` takes the JSONL request lines of one session.

// Reading the clock is this crate's job; the repository's clippy.toml
// disallows `Instant::now` in the simulation code it measures.
#![allow(clippy::disallowed_methods)]

mod fig5c;
mod layers;
mod million;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::process::exit;

use hotspots_scenario::fold_sim_result;
use hotspots_sim::SimResult;
use hotspots_telemetry::json;
use hotspots_telemetry::ReportBuilder;

/// One result line: named numbers plus named booleans (output checks).
#[derive(Debug, Default)]
pub struct Out {
    pub metrics: Vec<(String, f64)>,
    pub samples: Vec<f64>,
    pub checks: Vec<(String, bool)>,
    pub values: Vec<(String, Vec<f64>)>,
}

impl Out {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("check failed: {name}");
        }
        self.checks.push((name.to_owned(), ok));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":{");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push(':');
            json::write_f64(&mut out, *v);
        }
        out.push_str("},\"samples\":");
        write_list(&mut out, &self.samples);
        out.push_str(",\"values\":{");
        for (i, (name, vs)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push(':');
            write_list(&mut out, vs);
        }
        out.push_str("},\"checks\":{");
        for (i, (name, ok)) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            let _ = write!(out, ":{ok}");
        }
        out.push_str("}}");
        out
    }
}

fn write_list(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_f64(out, *v);
    }
    out.push(']');
}

/// Engine phase totals in seconds, read from the run report the
/// scenario layer folds a [`SimResult`] into. The report carries phases
/// only when the engine collected them (its `telemetry` feature); the
/// list is empty otherwise.
pub fn engine_phases(result: &SimResult) -> Vec<(String, f64)> {
    let mut report = ReportBuilder::new("perfbench", "phases");
    fold_sim_result(&mut report, result);
    report.build().phases
}

/// The `Engine::run` calls of a traced replica, summed.
#[derive(Debug, Default)]
pub struct EngineRuns {
    /// Phase totals the engine collected; empty when it collected none.
    pub phases: Vec<(String, f64)>,
    pub probes: u64,
    pub delivered: u64,
    /// Wall of the runs.
    pub run_s: f64,
}

/// Adds the `sim.engine.*` metrics. Phase times are the engine's own
/// when it collected them. When it did not, they are estimated from the
/// stage replay recorded in `spans`: each stage's cost per operation
/// times the runs' operation counts, and `merge_s` as the rest of the
/// run's wall. Either way every metric is measured, so a build without
/// engine phases does not read as a stage that got free.
pub fn engine_metrics(
    out: &mut Out,
    runs: &EngineRuns,
    spans: &[trace::Span],
    counts: &layers::StreamCounts,
) {
    let phases = if runs.phases.is_empty() {
        eprintln!(
            "sim.engine phases: the engine collected none; estimated from the stage replay \
             (merge_s is the rest of the run)"
        );
        layers::engine_estimate(spans, counts, runs.probes, runs.delivered, runs.run_s)
    } else {
        ["target_gen", "routing", "lookup", "observe", "merge"]
            .into_iter()
            .map(|name| {
                let total = runs
                    .phases
                    .iter()
                    .filter(|(n, _)| n == name)
                    .map(|(_, s)| s)
                    .sum();
                (name, total)
            })
            .collect()
    };
    for (name, s) in phases {
        out.metric(&format!("sim.engine.{name}_s"), s);
    }
    out.metric(
        "sim.engine.probes_per_s",
        if runs.run_s > 0.0 {
            runs.probes as f64 / runs.run_s
        } else {
            0.0
        },
    );
}

/// Writes the spans and adds each layer's self time as `self_s.<layer>`.
pub fn finish_trace(out: &mut Out, spans: &[trace::Span], out_dir: &str, workload: &str) {
    let path = format!("{out_dir}/spans-{workload}.jsonl");
    if let Err(e) = std::fs::write(&path, trace::to_jsonl(spans)) {
        die(&format!("writing {path}: {e}"));
    }
    for (layer, s) in trace::layer_self_s(spans) {
        out.metric(&format!("self_s.{layer}"), s);
    }
}

fn die(message: &str) -> ! {
    eprintln!("perfbench-harness: {message}");
    exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = match args.as_slice() {
        ["setup", workload, input, reps] => {
            let reps: usize = reps
                .parse()
                .unwrap_or_else(|_| die("reps must be a positive integer"));
            let text = read(input);
            let samples = (0..reps.max(1))
                .map(|_| match *workload {
                    "fig5c-nat" => fig5c::setup_s(&text),
                    "million-slammer" => million::setup_s(&text),
                    "serve-mix" => serve::setup_s(&text),
                    other => die(&format!("unknown workload {other:?}")),
                })
                .collect::<Result<Vec<f64>, String>>()
                .unwrap_or_else(|e| die(&e));
            Out {
                samples,
                ..Out::default()
            }
        }
        ["trace", workload, input, out_dir, rest @ ..] => {
            let text = read(input);
            let result = match (*workload, rest) {
                ("fig5c-nat", []) => fig5c::trace(&text, out_dir),
                ("million-slammer", []) => million::trace(&text, out_dir),
                ("serve-mix", [max_entries]) => match max_entries.parse() {
                    Ok(m) => serve::trace(&text, out_dir, m),
                    Err(_) => die("max-entries must be a positive integer"),
                },
                _ => die(&format!("bad trace arguments for {workload:?}")),
            };
            result.unwrap_or_else(|e| die(&e))
        }
        _ => die("usage: perfbench-harness setup <workload> <input> <reps> | trace <workload> <input> <out-dir> [<max-entries>]"),
    };
    println!("{}", out.to_json());
}
