//! `fig5c-nat`: the Figure 5(c) study, one sub-run per sensor placement.
//!
//! The traced replica rebuilds each sub-run from `pub` functions in the
//! order `nat_run` calls them, so it draws the same random streams; it
//! counts only when its ledger, infections and alerted sensors equal
//! those of `nat_run` for the same placement.

use std::time::Instant;

use hotspots::scenarios::detection::{nat_run, DetectionStudy, Placement};
use hotspots_experiments::render;
use hotspots_ipspace::Prefix;
use hotspots_netmodel::Environment;
use hotspots_scenario::{fold_run, Outcome, ReportBuilder, RunSet, ScenarioSpec, StudySpec};
use hotspots_sim::{
    apply_nat_shared, CodeRed2Worm, Engine, FieldObserver, Population, SimConfig, WormModel,
};
use hotspots_telescope::{placement, DetectorField};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{self, Stream, StreamCounts};
use crate::trace::{self, Tracer, ROOT};
use crate::{engine_metrics, engine_phases, finish_trace, EngineRuns, Out};

/// Targets replayed per sub-run for the layer costs.
const REPLAY_TARGETS: u64 = 1_500_000;

struct Study {
    spec: ScenarioSpec,
    study: DetectionStudy,
    nat_fraction: f64,
    placements: Vec<Placement>,
}

fn usize_of(field: &str, v: u64) -> Result<usize, String> {
    usize::try_from(v).map_err(|_| format!("{field} = {v} does not fit in usize"))
}

fn parse(text: &str) -> Result<Study, String> {
    let spec = ScenarioSpec::from_toml(text).map_err(|e| e.to_string())?;
    let Some(StudySpec::NatDetection {
        detection: d,
        nat_fraction,
        sensors,
        top_k_slash8s,
    }) = &spec.study
    else {
        return Err("fig5c-nat needs a nat-detection study spec".to_owned());
    };
    let study = DetectionStudy {
        population: usize_of("study.detection.population", d.population)?,
        slash8s: usize_of("study.detection.slash8s", d.slash8s)?,
        paper_profile: d.paper_profile,
        seeds: usize_of("study.detection.seeds", d.seeds)?,
        scan_rate: d.scan_rate,
        alert_threshold: d.alert_threshold,
        max_time: d.max_time,
        stop_at_fraction: d.stop_at_fraction,
        rng_seed: d.rng_seed,
    };
    let sensors = usize_of("study.sensors", *sensors)?;
    let placements = vec![
        Placement::Random { sensors },
        Placement::TopSlash8s {
            sensors,
            k: usize_of("study.top_k_slash8s", *top_k_slash8s)?,
        },
        Placement::Inside192,
    ];
    let nat_fraction = *nat_fraction;
    Ok(Study {
        spec,
        study,
        nat_fraction,
        placements,
    })
}

/// One sub-run's engine inputs.
struct Inputs {
    population: Population,
    environment: Environment,
    sensors: Vec<Prefix>,
}

/// Builds one sub-run's inputs as `nat_run` does, under spans.
fn build_inputs(s: &Study, placement_kind: Placement, tracer: &Tracer, request: u64) -> Inputs {
    let study = &s.study;
    let addrs = tracer.span("sim.draw_population", ROOT, request, |_| {
        study.draw_population()
    });
    let mut rng = StdRng::seed_from_u64(study.rng_seed ^ 0xa117);
    let mut environment = Environment::new();
    let loci = tracer.span("sim.apply_nat_shared", ROOT, request, |_| {
        apply_nat_shared(&mut environment, &addrs, s.nat_fraction, &mut rng)
    });
    let sensors = tracer.span(
        "telescope.placement",
        ROOT,
        request,
        |_| match placement_kind {
            Placement::Random { sensors } => placement::random_slash24s(sensors, &[], &mut rng),
            Placement::TopSlash8s { sensors, k } => {
                placement::inside_top_slash8s(&addrs, k, sensors, &mut rng)
            }
            Placement::Inside192 => placement::inside_192_per_slash16(&mut rng),
        },
    );
    let population = tracer.span("sim.population_from_loci", ROOT, request, |_| {
        Population::from_loci(loci)
    });
    Inputs {
        population,
        environment,
        sensors,
    }
}

fn sim_config(study: &DetectionStudy) -> SimConfig {
    SimConfig {
        scan_rate: study.scan_rate,
        seeds: study.seeds,
        dt: 1.0,
        max_time: study.max_time,
        stop_at_fraction: Some(study.stop_at_fraction),
        rng_seed: study.rng_seed,
        ..SimConfig::default()
    }
}

/// Set-up time of the whole study: every sub-run's inputs, built.
pub fn setup_s(text: &str) -> Result<f64, String> {
    let s = parse(text)?;
    let tracer = Tracer::new();
    let t0 = Instant::now();
    for (i, &p) in s.placements.iter().enumerate() {
        drop(build_inputs(&s, p, &tracer, i as u64));
    }
    Ok(t0.elapsed().as_secs_f64())
}

pub fn trace(text: &str, out_dir: &str) -> Result<Out, String> {
    let tracer = Tracer::new();
    let s = tracer.span("scenario.from_toml", ROOT, 0, |_| parse(text))?;
    tracer.span("scenario.canonical_hash", ROOT, 0, |_| {
        std::hint::black_box((s.spec.canonical_toml(), s.spec.content_hash()));
    });
    let study = &s.study;
    let mut out = Out::default();

    // The study as `run_spec` runs it: sub-runs spread over RunSet
    // workers. Its results are the reference the replica must equal.
    let runset = RunSet::new();
    let jobs: Vec<(u64, Placement)> = (0u64..).zip(s.placements.iter().copied()).collect();
    let refs = tracer
        .span("scenario.runset", ROOT, 0, |id| {
            runset.run(jobs, |(i, p)| {
                tracer.span("core.nat_run", id, i, |_| nat_run(study, s.nat_fraction, p))
            })
        })
        .map_err(|e| e.to_string())?;

    let mut counts = StreamCounts::default();
    let mut runs = EngineRuns::default();
    let mut store_bytes = 0usize;
    for (i, &p) in s.placements.iter().enumerate() {
        let request = i as u64;
        let inputs = build_inputs(&s, p, &tracer, request);
        store_bytes = store_bytes.max(inputs.population.store_bytes());

        let mut replay_field = DetectorField::new(inputs.sensors.clone(), study.alert_threshold);
        let stream = Stream {
            population: &inputs.population,
            environment: &inputs.environment,
            worm: &CodeRed2Worm,
            service: CodeRed2Worm.service(),
            burst: study.scan_rate as usize,
            target_total: REPLAY_TARGETS,
        };
        let replayed = tracer.span("perfbench.replay", ROOT, request, |id| {
            layers::replay(&stream, Some(&mut replay_field), &tracer, id)
        });
        counts.add(&replayed);

        let field = DetectorField::new(inputs.sensors, study.alert_threshold);
        let mut observer = FieldObserver::new(field);
        let result = tracer.span("sim.engine_run", ROOT, request, |_| {
            Engine::new(
                sim_config(study),
                inputs.population,
                inputs.environment,
                Box::new(CodeRed2Worm),
            )
            .run(&mut observer)
        });
        let reference = &refs[i];
        out.check(
            &format!("fig5c-nat.replica_equals_nat_run.{p:?}"),
            result.ledger == reference.ledger
                && result.infected as u64 == reference.infected_hosts
                && observer.field().alerted() == reference.sensors_alerted,
        );
        runs.phases.extend(engine_phases(&result));
        runs.probes += result.probes_sent;
        runs.delivered += result.ledger.delivered();
    }

    let report_us = tracer.span("telemetry.report", ROOT, 0, |_| {
        let t0 = Instant::now();
        let mut report = ReportBuilder::new("perfbench", "Figure 5(c)");
        for run in &refs {
            fold_run(
                &mut report,
                &run.ledger,
                study.population_size() as u64,
                run.infected_hosts,
                run.sim_seconds,
            );
        }
        std::hint::black_box(report.build().canonicalized().to_jsonl());
        t0.elapsed().as_secs_f64() * 1e6
    });
    let outcome = Outcome::NatDetection {
        study: *study,
        nat_fraction: s.nat_fraction,
        runs: refs,
    };
    tracer.span("experiments.render", ROOT, 0, |_| render::render(&outcome));

    let spans = tracer.into_spans();
    finish_trace(&mut out, &spans, out_dir, "fig5c-nat");
    for (name, v) in layers::metrics(&spans, &counts) {
        out.metric(name, v);
    }
    out.metric(
        "sim.population_synth_s",
        trace::total_s(&spans, "sim.draw_population"),
    );
    out.metric(
        "sim.population_build_s",
        trace::total_s(&spans, "sim.population_from_loci"),
    );
    out.metric("sim.store_bytes", store_bytes as f64);
    runs.run_s = trace::total_s(&spans, "sim.engine_run");
    engine_metrics(&mut out, &runs, &spans, &counts);
    let subruns = trace::durations_s(&spans, "core.nat_run");
    out.metric(
        "core.subrun_s.max",
        subruns.iter().copied().fold(0.0, f64::max),
    );
    out.metric(
        "core.subrun_s.min",
        subruns.iter().copied().fold(f64::INFINITY, f64::min),
    );
    let busy: f64 = subruns.iter().sum();
    let wall = trace::total_s(&spans, "scenario.runset");
    out.metric(
        "scenario.runset_util",
        busy / (runset.threads().min(subruns.len()).max(1) as f64 * wall),
    );
    out.metric(
        "scenario.parse_us",
        trace::total_s(&spans, "scenario.from_toml") * 1e6,
    );
    out.metric(
        "scenario.canon_hash_us",
        trace::total_s(&spans, "scenario.canonical_hash") * 1e6,
    );
    out.metric("telemetry.report_us", report_us);
    out.metric(
        "experiments.render_ms",
        trace::total_s(&spans, "experiments.render") * 1e3,
    );
    Ok(out)
}
