//! `serve-mix`: one `hotspots serve` session, replayed in process.
//!
//! The reference pass feeds the session's request lines to
//! `Server::handle_line`. The traced replica performs each submit from
//! the same `pub` calls the server makes — parse, canonicalize and hash,
//! store read, run, report, store write — under spans that carry the
//! request's index, and must answer every request with the same bytes.
//! Runs go through a `RunPool` as in the server; each missed spec is
//! then run once more outside the request path, split into run, report
//! and build calls.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hotspots_scenario::{run_spec, RunContext, ScenarioSpec};
use hotspots_serve::pool::RunJob;
use hotspots_serve::protocol::{self, Request, SpecFormat};
use hotspots_serve::{ResultStore, RunPool, RunSlot, ServeConfig, Server};
use hotspots_telemetry::hash::format_hash;

use crate::trace::{self, Tracer, ROOT};
use crate::{finish_trace, Out};

fn parse_spec(format: SpecFormat, text: &str) -> Result<ScenarioSpec, String> {
    match format {
        SpecFormat::Toml => ScenarioSpec::from_toml(text),
        SpecFormat::Json => ScenarioSpec::from_json(text),
    }
    .map_err(|e| e.to_string())
}

fn submits(session: &str) -> Result<Vec<(SpecFormat, String)>, String> {
    session
        .lines()
        .filter_map(|line| match protocol::parse_request(line) {
            Ok(Request::Submit { format, spec }) => Some(Ok((format, spec))),
            Ok(Request::Stats) => None,
            Err(e) => Some(Err(e)),
        })
        .collect()
}

/// Set-up time of the session's catalogue: every distinct spec it
/// submits, from text to built engine inputs.
pub fn setup_s(session: &str) -> Result<f64, String> {
    let mut specs = submits(session)?;
    specs.sort_by(|a, b| a.1.cmp(&b.1));
    specs.dedup_by(|a, b| a.1 == b.1);
    let t0 = Instant::now();
    for (format, text) in &specs {
        let built = parse_spec(*format, text)?
            .build()
            .map_err(|e| e.to_string())?;
        std::hint::black_box(built);
    }
    Ok(t0.elapsed().as_secs_f64())
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("clearing {}: {e}", path.display()))?;
    }
    Ok(())
}

fn mean(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

pub fn trace(session: &str, out_dir: &str, max_entries: usize) -> Result<Out, String> {
    let lines: Vec<&str> = session
        .lines()
        .filter(|l| {
            !l.trim().is_empty() && protocol::parse_request(l).is_ok_and(|r| r != Request::Stats)
        })
        .collect();
    let mut out = Out::default();

    // Reference pass: the server's own request path.
    let untraced_dir = Path::new(out_dir).join("serve-untraced");
    fresh_dir(&untraced_dir)?;
    let server = Server::open(&ServeConfig {
        cache_dir: untraced_dir,
        max_entries,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let expected: Vec<String> = lines.iter().map(|l| server.handle_line(l)).collect();
    drop(server);

    // Traced replica: the server's calls, in its order, through a run
    // pool of the server's shape.
    let traced_dir = Path::new(out_dir).join("serve-traced");
    fresh_dir(&traced_dir)?;
    let mut store = ResultStore::open(&traced_dir, max_entries).map_err(|e| e.to_string())?;
    let config = ServeConfig::default();
    let pool = RunPool::new(config.workers, config.queue_depth, config.threads);
    let tracer = Tracer::new();
    let mut missed = vec![false; lines.len()];
    let mut identical = true;
    for (i, line) in lines.iter().enumerate() {
        let req = i as u64;
        let response = tracer.span(
            "serve.request",
            ROOT,
            req,
            |rid| -> Result<String, String> {
                let Ok(Request::Submit { format, spec }) =
                    tracer.span("serve.parse_request", rid, req, |_| {
                        protocol::parse_request(line)
                    })
                else {
                    return Err(format!("request {i} is not a submit"));
                };
                let spec = tracer.span("scenario.from_toml", rid, req, |_| {
                    parse_spec(format, &spec)
                })?;
                let (canonical, hash) = tracer.span("scenario.canonical_hash", rid, req, |_| {
                    (spec.canonical_toml(), spec.content_hash())
                });
                let hash_text = format_hash(hash);
                let cached = tracer
                    .span("serve.store_get", rid, req, |_| store.get(hash))
                    .map_err(|e| e.to_string())?;
                if let Some(report) = cached {
                    return Ok(protocol::ok_submit(&hash_text, report.trim_end()));
                }
                missed[i] = true;
                let name = spec.meta.name.clone();
                let report = tracer.span("serve.pool_run", rid, req, |_| {
                    let slot = Arc::new(RunSlot::new());
                    let job = RunJob {
                        hash,
                        spec,
                        slot: Arc::clone(&slot),
                    };
                    pool.try_submit(job)
                        .map_err(|_| format!("request {i}: run queue full"))?;
                    slot.wait()
                })?;
                tracer
                    .span("serve.store_insert", rid, req, |_| {
                        store.insert(hash, &name, &canonical, &report)
                    })
                    .map_err(|e| e.to_string())?;
                Ok(protocol::ok_submit(&hash_text, report.trim_end()))
            },
        )?;
        identical &= response == expected[i];
    }
    drop(pool);
    out.check("serve-mix.replica_responses_equal_server", identical);

    // The pool's run, report and build split into their calls, outside
    // the request path: one pass per missed request.
    let ctx = RunContext::new("hotspots-serve").with_threads(config.threads);
    let mut run_ms = vec![0.0; lines.len()];
    for (i, line) in lines.iter().enumerate() {
        if !missed[i] {
            continue;
        }
        let Ok(Request::Submit { format, spec }) = protocol::parse_request(line) else {
            continue;
        };
        let spec = parse_spec(format, &spec)?;
        let req = i as u64;
        tracer
            .span("scenario.build", ROOT, req, |_| spec.build())
            .map_err(|e| e.to_string())?;
        let t_run = Instant::now();
        let run = tracer
            .span("scenario.run_spec", ROOT, req, |_| run_spec(&spec, &ctx))
            .map_err(|e| e.to_string())?;
        run_ms[i] = t_run.elapsed().as_secs_f64() * 1e3;
        tracer.span("telemetry.report", ROOT, req, |_| {
            std::hint::black_box(run.report.build().canonicalized().to_jsonl());
        });
    }
    let misses = missed.iter().filter(|&&m| m).count();

    let spans = tracer.into_spans();
    finish_trace(&mut out, &spans, out_dir, "serve-mix");
    let n = lines.len();
    let total = |name: &str| trace::total_s(&spans, name);
    out.metric(
        "scenario.parse_us",
        mean(total("scenario.from_toml") * 1e6, n),
    );
    out.metric(
        "scenario.canon_hash_us",
        mean(total("scenario.canonical_hash") * 1e6, n),
    );
    out.metric("scenario.build_s", mean(total("scenario.build"), misses));
    out.metric(
        "telemetry.report_us",
        mean(total("telemetry.report") * 1e6, misses),
    );
    out.metric(
        "serve.store_get_us",
        mean(total("serve.store_get") * 1e6, n),
    );
    out.metric(
        "serve.store_insert_ms",
        mean(total("serve.store_insert") * 1e3, misses),
    );
    out.metric("serve.evictions", store.evictions() as f64);
    out.metric("serve.hit_ratio", mean((n - misses) as f64, n));
    out.values.push(("run_ms".to_owned(), run_ms));
    Ok(out)
}
