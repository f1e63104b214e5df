//! Per-probe layer costs on a workload's own target stream.
//!
//! The engine's step loop runs target generation, routing, victim
//! lookup and observation back to back for each host. This replays that
//! pipeline stage by stage over a fixed sample of the workload's hosts,
//! calling each layer's `pub` function directly, and times every stage
//! as one span per round. Timing a whole stage keeps two clock reads per
//! round instead of per probe, so the spans add no per-probe cost.

use hotspots_netmodel::{Delivery, DeliveryLedger, Environment, Service};
use hotspots_sim::{Population, WormModel};
use hotspots_targeting::TargetGenerator;
use hotspots_telescope::DetectorField;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::{self, Tracer};

/// Hosts whose generators feed the stream.
const SAMPLE_HOSTS: usize = 4096;

/// What one replay counted; the times are in the tracer's spans.
#[derive(Debug, Default)]
pub struct StreamCounts {
    pub targets: u64,
    pub delivered: u64,
    pub lookups: u64,
    pub lookup_hits: u64,
    pub observed: u64,
    pub sensor_hits: u64,
}

impl StreamCounts {
    pub fn add(&mut self, other: &StreamCounts) {
        self.targets += other.targets;
        self.delivered += other.delivered;
        self.lookups += other.lookups;
        self.lookup_hits += other.lookup_hits;
        self.observed += other.observed;
        self.sensor_hits += other.sensor_hits;
    }
}

/// The inputs one replay needs, all borrowed from a built workload.
pub struct Stream<'a> {
    pub population: &'a Population,
    pub environment: &'a Environment,
    pub worm: &'a dyn WormModel,
    pub service: Service,
    /// Probes per host per round: the engine's per-step burst.
    pub burst: usize,
    /// Stop once this many targets were generated.
    pub target_total: u64,
}

/// Replays the stream, recording `targeting.fill_targets`,
/// `netmodel.route_batch`, `sim.find_victim` and `telescope.observe`
/// spans under `parent`.
pub fn replay(
    stream: &Stream<'_>,
    mut field: Option<&mut DetectorField>,
    tracer: &Tracer,
    parent: u64,
) -> StreamCounts {
    let pop = stream.population;
    let hosts = SAMPLE_HOSTS.min(pop.len());
    let loci: Vec<_> = (0..hosts)
        .map(|i| pop.locus(i * pop.len() / hosts))
        .collect();
    let mut generators: Vec<Box<dyn TargetGenerator + Send>> = loci
        .iter()
        .enumerate()
        .map(|(i, &locus)| stream.worm.generator(locus, 0x5eed_0000 + i as u64))
        .collect();
    let mut targets: Vec<Vec<_>> = vec![Vec::with_capacity(stream.burst); hosts];
    let mut deliveries: Vec<Vec<Delivery>> = vec![Vec::with_capacity(stream.burst); hosts];
    let mut rng = StdRng::seed_from_u64(0x00c0_ffee);
    let mut ledger = DeliveryLedger::new();
    let mut counts = StreamCounts::default();

    while counts.targets < stream.target_total {
        tracer.span("targeting.fill_targets", parent, 0, |_| {
            for (gen, out) in generators.iter_mut().zip(&mut targets) {
                out.clear();
                gen.fill_targets(stream.burst, out);
            }
        });
        tracer.span("netmodel.route_batch", parent, 0, |_| {
            for ((locus, batch), out) in loci.iter().zip(&targets).zip(&mut deliveries) {
                out.clear();
                stream.environment.route_batch(
                    *locus,
                    batch,
                    stream.service,
                    0.0,
                    &mut rng,
                    out,
                    &mut ledger,
                );
            }
        });
        let (lookups, hits) = tracer.span("sim.find_victim", parent, 0, |_| {
            let (mut lookups, mut hits) = (0u64, 0u64);
            for d in deliveries.iter().flatten() {
                let victim = match *d {
                    Delivery::Public(ip) => pop.find_public(ip),
                    Delivery::Local { realm, ip } => pop.find_private(realm, ip),
                    Delivery::Dropped(_) => continue,
                };
                lookups += 1;
                hits += u64::from(victim.is_some());
            }
            (lookups, hits)
        });
        counts.lookups += lookups;
        counts.lookup_hits += hits;
        if let Some(field) = field.as_deref_mut() {
            let (observed, hits) = tracer.span("telescope.observe", parent, 0, |_| {
                let (mut observed, mut hits) = (0u64, 0u64);
                for d in deliveries.iter().flatten() {
                    if let Delivery::Public(ip) = *d {
                        observed += 1;
                        hits += u64::from(field.observe(0.0, ip).is_some());
                    }
                }
                (observed, hits)
            });
            counts.observed += observed;
            counts.sensor_hits += hits;
        }
        counts.targets += targets.iter().map(|t| t.len() as u64).sum::<u64>();
    }
    counts.delivered = ledger.delivered();
    counts
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Engine phase totals, in seconds, estimated from one or more replays
/// recorded in `spans`: each stage's replayed cost per operation times
/// the operation counts of engine runs that sent `probes` probes and
/// delivered `delivered` of them. Observation is charged to the share of
/// deliveries the replay observed (public ones, and only with a field).
/// The replay has no merge stage, so `merge` is whatever of the runs'
/// wall `run_s` the four stages leave, and zero if they leave nothing.
pub fn engine_estimate(
    spans: &[trace::Span],
    counts: &StreamCounts,
    probes: u64,
    delivered: u64,
    run_s: f64,
) -> Vec<(&'static str, f64)> {
    let per_op = |name: &str, ops: u64| ratio(trace::total_s(spans, name), ops);
    let observed = delivered as f64 * ratio(counts.observed as f64, counts.lookups);
    let stages = [
        (
            "target_gen",
            per_op("targeting.fill_targets", counts.targets) * probes as f64,
        ),
        (
            "routing",
            per_op("netmodel.route_batch", counts.targets) * probes as f64,
        ),
        (
            "lookup",
            per_op("sim.find_victim", counts.lookups) * delivered as f64,
        ),
        (
            "observe",
            per_op("telescope.observe", counts.observed) * observed,
        ),
    ];
    let rest = run_s - stages.iter().map(|(_, s)| s).sum::<f64>();
    let mut out = stages.to_vec();
    out.push(("merge", rest.max(0.0)));
    out
}

/// The per-layer metrics of one or more replays recorded in `spans`.
pub fn metrics(spans: &[trace::Span], counts: &StreamCounts) -> Vec<(&'static str, f64)> {
    let ns = |name: &str| trace::total_s(spans, name) * 1e9;
    vec![
        (
            "targeting.fill_ns",
            ratio(ns("targeting.fill_targets"), counts.targets),
        ),
        (
            "netmodel.route_ns",
            ratio(ns("netmodel.route_batch"), counts.targets),
        ),
        (
            "netmodel.delivered_ratio",
            ratio(counts.delivered as f64, counts.targets),
        ),
        (
            "sim.lookup_ns",
            ratio(ns("sim.find_victim"), counts.lookups),
        ),
        (
            "sim.lookup_hit_ratio",
            ratio(counts.lookup_hits as f64, counts.lookups),
        ),
        (
            "telescope.observe_ns",
            ratio(ns("telescope.observe"), counts.observed),
        ),
        (
            "telescope.sensor_hit_ratio",
            ratio(counts.sensor_hits as f64, counts.observed),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Span, ROOT};

    fn span(id: u64, name: &'static str, dur_ns: u64) -> Span {
        Span {
            id,
            parent: ROOT,
            request: 0,
            name,
            start_ns: 0,
            end_ns: dur_ns,
        }
    }

    #[test]
    fn engine_estimate_scales_replayed_stage_costs_to_the_run() {
        let spans = [
            span(1, "targeting.fill_targets", 1_000),
            span(2, "netmodel.route_batch", 2_000),
            span(3, "sim.find_victim", 4_000),
            span(4, "telescope.observe", 1_000),
        ];
        let counts = StreamCounts {
            targets: 100,
            lookups: 50,
            observed: 25,
            ..StreamCounts::default()
        };
        // per op: fill 10 ns, route 20 ns, lookup 80 ns, observe 40 ns
        let est = engine_estimate(&spans, &counts, 1_000_000, 400_000, 0.1);
        let got = |name| est.iter().find(|(n, _)| *n == name).unwrap().1;
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(got("target_gen"), 0.010));
        assert!(close(got("routing"), 0.020));
        assert!(close(got("lookup"), 0.032));
        // half the deliveries were observed in the replay
        assert!(close(got("observe"), 0.008));
        assert!(close(got("merge"), 0.1 - 0.070));
        let names: Vec<_> = est.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["target_gen", "routing", "lookup", "observe", "merge"]
        );
    }
}
