//! `million-slammer`: one engine-path spec, built and run in process.
//!
//! Set-up is `ScenarioSpec::from_toml` plus `build`. The traced replica
//! also repeats the population's two halves, synthesis and store build,
//! as separate calls, and counts only when that population equals the
//! one `build` made; its engine run must equal `run_spec`'s ledger.

use std::time::Instant;

use hotspots_experiments::render;
use hotspots_scenario::{
    fold_sim_result, run_spec, Outcome, PopSpec, ReportBuilder, RunContext, ScenarioSpec,
};
use hotspots_sim::{zipf_slash8_population, Engine, FieldObserver, NullObserver, Population};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{self, Stream};
use crate::trace::{self, Tracer, ROOT};
use crate::{engine_metrics, engine_phases, finish_trace, EngineRuns, Out};

/// Targets replayed for the layer costs.
const REPLAY_TARGETS: u64 = 8_000_000;

pub fn setup_s(text: &str) -> Result<f64, String> {
    let t0 = Instant::now();
    let spec = ScenarioSpec::from_toml(text).map_err(|e| e.to_string())?;
    let built = spec.build().map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    drop(built);
    Ok(secs)
}

pub fn trace(text: &str, out_dir: &str) -> Result<Out, String> {
    let mut out = Out::default();

    // Reference: the run as `hotspots run` performs it.
    let spec = ScenarioSpec::from_toml(text).map_err(|e| e.to_string())?;
    let reference = run_spec(&spec, &RunContext::new("hotspots"))
        .map_err(|e| e.to_string())?
        .report
        .build();

    let tracer = Tracer::new();
    let spec = tracer.span("scenario.from_toml", ROOT, 0, |_| {
        ScenarioSpec::from_toml(text).map_err(|e| e.to_string())
    })?;
    let mut built = tracer
        .span("scenario.build", ROOT, 0, |_| spec.build())
        .map_err(|e| e.to_string())?;
    tracer.span("scenario.canonical_hash", ROOT, 0, |_| {
        std::hint::black_box((spec.canonical_toml(), spec.content_hash()));
    });

    if let (
        Some(PopSpec::Zipf {
            size,
            slash8s,
            seed,
            store,
        }),
        None,
    ) = (&spec.population, &spec.environment.nat)
    {
        let size = usize::try_from(*size).map_err(|_| "population.size overflows usize")?;
        let slash8s =
            usize::try_from(*slash8s).map_err(|_| "population.slash8s overflows usize")?;
        let addrs = tracer.span("sim.zipf_slash8_population", ROOT, 0, |_| {
            zipf_slash8_population(size, slash8s, &mut StdRng::seed_from_u64(*seed))
        });
        let population = tracer
            .span("sim.population_store_build", ROOT, 0, |_| {
                if store == "compressed" {
                    Population::try_compressed_from_public(&addrs)
                } else {
                    Population::try_from_public(addrs.iter().copied())
                }
            })
            .map_err(|e| e.to_string())?;
        out.check(
            "million-slammer.population_replica_equals_build",
            population.len() == built.population.len()
                && population.store_bytes() == built.population.store_bytes()
                && population
                    .public_addresses_iter()
                    .eq(built.population.public_addresses_iter()),
        );
    }
    out.metric("sim.store_bytes", built.population.store_bytes() as f64);

    let stream = Stream {
        population: &built.population,
        environment: &built.environment,
        worm: built.worm.as_ref(),
        service: built.worm.service(),
        burst: (built.config.scan_rate * built.config.dt).max(1.0) as usize,
        target_total: REPLAY_TARGETS,
    };
    let counts = tracer.span("perfbench.replay", ROOT, 0, |id| {
        layers::replay(&stream, built.detector.as_mut(), &tracer, id)
    });

    let service = built.worm.service();
    let mut engine = Engine::new(
        built.config,
        built.population,
        built.environment,
        built.worm,
    );
    let (result, field) = tracer.span("sim.engine_run", ROOT, 0, |_| match built.detector {
        Some(field) => {
            let mut observer = FieldObserver::with_service(field, service);
            let result = engine.run(&mut observer);
            (result, Some(observer.into_field()))
        }
        None => (engine.run(&mut NullObserver), None),
    });
    drop(engine);
    out.check(
        "million-slammer.replica_ledger_balances",
        result.ledger.delivered() + result.ledger.dropped_total() == result.probes_sent,
    );
    out.check(
        "million-slammer.replica_equals_run_spec",
        result.probes_sent == reference.probes_sent
            && result.ledger.delivered() == reference.delivered
            && result.ledger.dropped_total() == reference.dropped_total()
            && result.infected as u64 == reference.infections,
    );

    tracer.span("telemetry.report", ROOT, 0, |_| {
        let mut report = ReportBuilder::new("perfbench", "bench-million");
        fold_sim_result(&mut report, &result);
        std::hint::black_box(report.build().canonicalized().to_jsonl());
    });
    let mut runs = EngineRuns {
        phases: engine_phases(&result),
        probes: result.probes_sent,
        delivered: result.ledger.delivered(),
        run_s: 0.0,
    };
    let outcome = Outcome::Engine {
        result: Box::new(result),
        field,
    };
    tracer.span("experiments.render", ROOT, 0, |_| render::render(&outcome));

    let spans = tracer.into_spans();
    finish_trace(&mut out, &spans, out_dir, "million-slammer");
    for (name, v) in layers::metrics(&spans, &counts) {
        out.metric(name, v);
    }
    out.metric(
        "sim.population_synth_s",
        trace::total_s(&spans, "sim.zipf_slash8_population"),
    );
    out.metric(
        "sim.population_build_s",
        trace::total_s(&spans, "sim.population_store_build"),
    );
    runs.run_s = trace::total_s(&spans, "sim.engine_run");
    engine_metrics(&mut out, &runs, &spans, &counts);
    out.metric(
        "scenario.parse_us",
        trace::total_s(&spans, "scenario.from_toml") * 1e6,
    );
    out.metric(
        "scenario.canon_hash_us",
        trace::total_s(&spans, "scenario.canonical_hash") * 1e6,
    );
    out.metric("scenario.build_s", trace::total_s(&spans, "scenario.build"));
    out.metric(
        "telemetry.report_us",
        trace::total_s(&spans, "telemetry.report") * 1e6,
    );
    out.metric(
        "experiments.render_ms",
        trace::total_s(&spans, "experiments.render") * 1e3,
    );
    Ok(out)
}
