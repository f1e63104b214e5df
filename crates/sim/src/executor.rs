//! The persistent sharded executor and the step pipeline it drives.
//!
//! Before this module existed the engine spawned a fresh set of scoped
//! threads *every step*; profiling showed that spawn cost — not the
//! serial merge — is what kept the parallel engine from winning. The
//! executor here is created once per run (or shared across runs via
//! [`Engine::run_on`](crate::Engine::run_on)): `parallelism - 1` workers
//! park on their job channels between steps, and each step hands them
//! owned shard payloads instead of borrowed slices.
//!
//! Ownership transfer is what keeps the pool compatible with
//! `#![forbid(unsafe_code)]`: a long-lived worker cannot borrow from the
//! engine's stack, so each [`StepPipeline::run_step`] peels the tail
//! chunks off the active-host vector into reusable carrier buffers,
//! ships them through `mpsc` channels, and splices them back in shard
//! order at the barrier. Two `memcpy`s of host structs per step replace
//! a thread spawn/join per step.
//!
//! Determinism argument: shards are contiguous chunks of the active
//! vector, merged back in chunk order, so the concatenated
//! probe/candidate sequence is identical whether a shard ran on the
//! driving thread or any worker. All randomness flows through per-host
//! id-keyed streams carried inside the shard payload; the executor adds
//! none (no work stealing, no completion-order effects: results land in
//! per-shard slots and are consumed in index order).

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

use std::time::Duration;

use hotspots_ipspace::Ip;
use hotspots_netmodel::{Delivery, DeliveryLedger, Environment, Locus, Service};
use hotspots_targeting::TargetGenerator;
use hotspots_telemetry::Timer;
use rand::rngs::StdRng;

use crate::bitset::HostBits;
use crate::observers::SimObserver;
use crate::population::Population;

/// Engine-side state of one currently infected host. Owned by the
/// engine between steps and by a shard payload while the probe phase
/// runs; all its randomness is keyed by host id, so *where* it executes
/// never changes *what* it does.
pub(crate) struct InfectedHost {
    pub(crate) id: usize,
    pub(crate) locus: Locus,
    /// Source address as seen on the public wire (constant per host,
    /// hoisted out of the probe loop).
    pub(crate) public_src: Ip,
    pub(crate) generator: Box<dyn TargetGenerator + Send>,
    /// This host's private stream (rate dispersion, removal, loss
    /// draws). Keyed by host id only, never by infection order.
    pub(crate) rng: StdRng,
    pub(crate) probes_per_step: f64,
    pub(crate) probe_credit: f64,
}

/// Target count at which a shard closes a chunk of consecutive hosts
/// and runs it through the stages ([`next_chunk`]). It bounds the
/// staging buffers (a host whose burst alone exceeds it forms its own
/// chunk), the driving thread's probe buffer (each of its chunks goes
/// to the observer as soon as it exists), and the phase clock
/// granularity: four reads per chunk, not per host.
pub(crate) const CHUNK_TARGETS: usize = 1024;

/// Reusable per-shard scratch for one step of the staged probe pipeline.
pub(crate) struct ProbeBatch {
    /// The current chunk's targets, host after host.
    pub(crate) targets: Vec<Ip>,
    /// The current chunk's verdicts, one per target.
    pub(crate) deliveries: Vec<Delivery>,
    /// Each host's burst in the current chunk (0 = the host is idle).
    bursts: Vec<usize>,
    /// Probes not yet observed: a worker shard's whole step, or the
    /// driving thread's current chunk.
    pub(crate) probes: Vec<(Ip, Delivery)>,
    pub(crate) candidates: Vec<usize>,
    /// Verdict counts for exactly the probes in `probes`.
    pub(crate) ledger: DeliveryLedger,
    pub(crate) target_gen: Duration,
    pub(crate) routing: Duration,
    pub(crate) lookup: Duration,
    /// Observer time spent on this shard's probes in the current step.
    pub(crate) observe: Duration,
}

impl ProbeBatch {
    /// An empty batch; `capacity` pre-sizes every buffer, so a worker
    /// that fills the batch grows memory the driving thread allocated.
    pub(crate) fn with_capacity(capacity: usize) -> ProbeBatch {
        ProbeBatch {
            targets: Vec::with_capacity(capacity),
            deliveries: Vec::with_capacity(capacity),
            bursts: Vec::with_capacity(capacity),
            probes: Vec::with_capacity(capacity),
            candidates: Vec::with_capacity(capacity),
            ledger: DeliveryLedger::new(),
            target_gen: Duration::ZERO,
            routing: Duration::ZERO,
            lookup: Duration::ZERO,
            observe: Duration::ZERO,
        }
    }

    /// Hands the buffered probes and their ledger to `observer`, folds
    /// the ledger into the run's `ledger`, and empties the buffer.
    pub(crate) fn hand_to_observer<O: SimObserver>(
        &mut self,
        time: f64,
        observer: &mut O,
        ledger: &mut DeliveryLedger,
    ) {
        let t0 = Timer::start();
        observer.on_probe_batch(time, &self.probes, &self.ledger);
        self.observe += t0.elapsed();
        ledger.merge(&self.ledger);
        self.ledger = DeliveryLedger::new();
        self.probes.clear();
    }
}

/// Read-only state every shard sees during one step's probe phase,
/// shipped to workers as `Arc` clones (a worker cannot hold a borrow of
/// the engine's stack). Shards see the start-of-step infection flags;
/// duplicate infection candidates collapse at the serial merge.
///
/// Every clone handed out for a step is dropped before
/// [`StepPipeline::run_step`] returns — the done-channel receive
/// happens-after the worker's drop — so the engine's own `Arc`s are
/// unique again at merge time and `Arc::make_mut` mutates in place.
#[derive(Clone)]
pub(crate) struct StepCtx {
    pub(crate) env: Arc<Environment>,
    pub(crate) population: Arc<Population>,
    pub(crate) service: Service,
    /// The step's simulation time, set serially before shards fan out —
    /// every shard routes against the same fault-schedule instant.
    pub(crate) time: f64,
    pub(crate) infected: Arc<HostBits>,
    pub(crate) removed: Arc<HostBits>,
    pub(crate) pending: Arc<HostBits>,
}

/// Settles the step's bursts of the hosts from `start` on and returns
/// the end of the chunk that begins there: consecutive hosts up to
/// `chunk_targets` targets, or one host whose burst alone exceeds it.
/// The chunk's bursts are left in `bursts`, one per host.
///
/// A host's burst is settled (its probe credit spent) only once the
/// host joins a chunk, so every host spends exactly its own credit,
/// in host order, whatever the chunk size.
fn next_chunk(
    hosts: &mut [InfectedHost],
    start: usize,
    bursts: &mut Vec<usize>,
    chunk_targets: usize,
) -> usize {
    bursts.clear();
    let mut pending = 0;
    for (i, host) in hosts.iter_mut().enumerate().skip(start) {
        let credit = host.probe_credit + host.probes_per_step;
        let burst = credit as usize;
        if pending > 0 && pending + burst > chunk_targets {
            return i;
        }
        host.probe_credit = credit - burst as f64;
        bursts.push(burst);
        pending += burst;
        if pending >= chunk_targets {
            return i + 1;
        }
    }
    hosts.len()
}

/// Drives one shard of active hosts through the target-gen → routing →
/// victim-lookup stages, accumulating results in the shard's scratch
/// batch. Touches only its own hosts and batch, so shards run on
/// independent threads without synchronization.
///
/// Consecutive hosts are grouped into chunks by [`next_chunk`], and
/// each chunk runs stage by stage. Every host still consumes exactly
/// its own generator and RNG draws, in host order, so the probe and
/// candidate sequences do not depend on `chunk_targets`; the engine
/// passes [`CHUNK_TARGETS`].
pub(crate) fn drive_shard(
    ctx: &StepCtx,
    hosts: &mut [InfectedHost],
    batch: &mut ProbeBatch,
    chunk_targets: usize,
) {
    let mut start = 0;
    while start < hosts.len() {
        let end = next_chunk(hosts, start, &mut batch.bursts, chunk_targets);
        drive_chunk(ctx, &mut hosts[start..end], batch);
        start = end;
    }
}

/// [`drive_shard`] for the driving thread's shard: each chunk goes to
/// `observer` (and its ledger into the run's `ledger`) as soon as its
/// probes exist, so the shard never buffers more than one chunk.
fn drive_observed<O: SimObserver>(
    ctx: &StepCtx,
    hosts: &mut [InfectedHost],
    batch: &mut ProbeBatch,
    chunk_targets: usize,
    observer: &mut O,
    ledger: &mut DeliveryLedger,
) {
    let mut start = 0;
    while start < hosts.len() {
        let end = next_chunk(hosts, start, &mut batch.bursts, chunk_targets);
        drive_chunk(ctx, &mut hosts[start..end], batch);
        batch.hand_to_observer(ctx.time, observer, ledger);
        start = end;
    }
}

/// Runs one chunk (`hosts`, with their bursts in `batch.bursts`) through
/// the three stages, appending its probes and candidates to `batch`.
fn drive_chunk(ctx: &StepCtx, hosts: &mut [InfectedHost], batch: &mut ProbeBatch) {
    let mut clock = Timer::start();
    batch.targets.clear();
    for (host, &burst) in hosts.iter_mut().zip(&batch.bursts) {
        if burst > 0 {
            host.generator.fill_targets(burst, &mut batch.targets);
        }
    }
    batch.target_gen += clock.lap();
    batch.deliveries.clear();
    let mut from = 0;
    for (host, &burst) in hosts.iter_mut().zip(&batch.bursts) {
        if burst > 0 {
            ctx.env.route_batch(
                host.locus,
                &batch.targets[from..from + burst],
                ctx.service,
                ctx.time,
                &mut host.rng,
                &mut batch.deliveries,
                &mut batch.ledger,
            );
            from += burst;
        }
    }
    batch.routing += clock.lap();
    // Two passes over the verdicts: candidate detection (branchy,
    // but misses short-circuit at the /16 presence bitmap), then
    // one bulk append of the probe records per host — a TrustedLen
    // extend compiles to a single reserve + streaming writes instead
    // of a per-probe capacity check.
    for &delivery in &batch.deliveries {
        let victim = match delivery {
            Delivery::Public(ip) => ctx.population.find_public(ip),
            Delivery::Local { realm, ip } => ctx.population.find_private(realm, ip),
            Delivery::Dropped(_) => None,
        };
        if let Some(v) = victim {
            if !ctx.infected.get(v) && !ctx.removed.get(v) && !ctx.pending.get(v) {
                batch.candidates.push(v);
            }
        }
    }
    let mut from = 0;
    for (host, &burst) in hosts.iter().zip(&batch.bursts) {
        let src = host.public_src;
        batch.probes.extend(
            batch.deliveries[from..from + burst]
                .iter()
                .map(|&d| (src, d)),
        );
        from += burst;
    }
    batch.lookup += clock.lap();
}

/// One shard's payload, shipped to a pool worker by ownership transfer.
struct ShardJob {
    shard: usize,
    hosts: Vec<InfectedHost>,
    batch: ProbeBatch,
    ctx: StepCtx,
    chunk_targets: usize,
    /// When the driving thread dispatched the job (wake-latency
    /// accounting).
    sent_at: Timer,
}

/// A finished shard, returned to the driving thread with its payload so
/// the carrier buffers are reused and the merge stays allocation-free.
struct ShardDone {
    shard: usize,
    hosts: Vec<InfectedHost>,
    batch: ProbeBatch,
    /// A panic captured while driving the shard, re-raised on the
    /// driving thread (scoped-spawn semantics without scoped threads).
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// How long the worker sat parked on its job channel before this
    /// job arrived.
    park: Duration,
    /// Dispatch-to-pickup latency for this job.
    wake: Duration,
}

/// A pool worker: parks on `jobs`, drives each shard it receives, and
/// returns the payload on `done`. Exits when the executor drops its job
/// sender. Panics inside the shard are caught and shipped back so the
/// driving thread can re-raise them instead of deadlocking at the
/// barrier.
fn worker_loop(jobs: Receiver<ShardJob>, done: SyncSender<ShardDone>) {
    loop {
        let mut clock = Timer::start();
        let Ok(job) = jobs.recv() else {
            break;
        };
        // One read at pickup ends the park lap and dates the wake.
        let park = clock.lap();
        let wake = clock.since(&job.sent_at);
        let ShardJob {
            shard,
            mut hosts,
            mut batch,
            ctx,
            chunk_targets,
            ..
        } = job;
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive_shard(&ctx, &mut hosts, &mut batch, chunk_targets);
        }))
        .err();
        // Drop the ctx Arc clones before signalling completion: the
        // barrier's receive then happens-after this drop, so the engine
        // sees unique Arcs at merge time.
        drop(ctx);
        if done
            .send(ShardDone {
                shard,
                hosts,
                batch,
                panic,
                park,
                wake,
            })
            .is_err()
        {
            break;
        }
    }
}

struct WorkerHandle {
    jobs: SyncSender<ShardJob>,
    thread: std::thread::JoinHandle<()>,
}

/// A persistent pool of shard workers.
///
/// Created once and reused across steps — and, via
/// [`Engine::run_on`](crate::Engine::run_on), across whole runs:
/// `ShardExecutor::new(p)` spawns `p - 1` workers that park between
/// jobs. The executor holds no simulation state, so reusing one is
/// bit-identical to building a fresh engine per run (pinned by test).
/// `ShardExecutor::new(1)` spawns nothing and every shard runs on the
/// calling thread.
///
/// The driving thread observes its own shard chunk by chunk as it
/// runs; worker shards are observed at the serial merge, in shard
/// order. So the observer's batch boundaries depend on the thread
/// count and the chunk size, and the concatenated probe and infection
/// sequence does not.
///
/// # Examples
///
/// ```
/// use hotspots_sim::ShardExecutor;
///
/// let pool = ShardExecutor::new(4);
/// assert!(pool.parallelism() >= 1);
/// ```
pub struct ShardExecutor {
    workers: Vec<WorkerHandle>,
    done_rx: Receiver<ShardDone>,
}

impl std::fmt::Debug for ShardExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardExecutor")
            .field("parallelism", &self.parallelism())
            .finish()
    }
}

impl ShardExecutor {
    /// Creates a pool sized for `parallelism` concurrent shards: the
    /// calling thread drives shard 0, and `parallelism - 1` spawned
    /// workers (named `hotspots-worker-N`, so profilers attribute shard
    /// time to the pool) drive the rest. `0` and `1` both mean "no
    /// workers".
    pub fn new(parallelism: usize) -> ShardExecutor {
        let wanted = parallelism.saturating_sub(1);
        // Bounded channels allocate their slots here, on the calling
        // thread: a worker holds at most one job and the barrier drains
        // every completion each step, so no send ever blocks or
        // allocates on a worker.
        let (done_tx, done_rx) = sync_channel(wanted);
        let mut workers = Vec::with_capacity(wanted);
        for i in 0..wanted {
            let (jobs_tx, jobs_rx) = sync_channel(1);
            let done = done_tx.clone();
            // A spawn failure (resource exhaustion) degrades
            // parallelism instead of failing the run: the pipeline
            // caps its shard count at `parallelism()`.
            if let Ok(thread) = std::thread::Builder::new()
                .name(format!("hotspots-worker-{}", i + 1))
                .spawn(move || worker_loop(jobs_rx, done))
            {
                workers.push(WorkerHandle {
                    jobs: jobs_tx,
                    thread,
                });
            }
        }
        ShardExecutor { workers, done_rx }
    }

    /// How many shards can execute concurrently (the calling thread
    /// plus the pool workers). Always at least 1.
    pub fn parallelism(&self) -> usize {
        self.workers.len() + 1
    }
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        for w in std::mem::take(&mut self.workers) {
            // Closing the job channel wakes the parked worker into its
            // exit path; join so no worker outlives the pool.
            drop(w.jobs);
            let _ = w.thread.join();
        }
    }
}

/// The per-run pipeline state: one scratch [`ProbeBatch`] per shard,
/// carrier buffers for the ownership transfer, and the pool-phase
/// accounting. The engine owns one per run; the executor it dispatches
/// to may outlive it.
pub(crate) struct StepPipeline {
    /// Per-shard scratch, index 0 = the driving thread's shard. The
    /// merge loop walks `batches[..shard_count]` in index order.
    batches: Vec<ProbeBatch>,
    /// [`next_chunk`]'s chunk bound.
    chunk_targets: usize,
    carriers: Vec<Vec<InfectedHost>>,
    slots: Vec<Option<(Vec<InfectedHost>, ProbeBatch)>>,
    /// Cumulative worker park time (blocked on the job channel).
    park: Duration,
    /// Cumulative dispatch-to-pickup latency.
    wake: Duration,
    /// Jobs actually shipped to pool workers (0 = the run was
    /// effectively serial and no park/wake phases are reported).
    dispatched: u64,
}

impl StepPipeline {
    /// A pipeline sized for `shards` concurrent shards (at least 1),
    /// driving them in chunks of `chunk_targets` targets.
    pub(crate) fn new(shards: usize, chunk_targets: usize) -> StepPipeline {
        let shards = shards.max(1);
        StepPipeline {
            batches: (0..shards)
                .map(|_| ProbeBatch::with_capacity(chunk_targets))
                .collect(),
            chunk_targets,
            carriers: (0..shards).map(|_| Vec::new()).collect(),
            slots: (0..shards).map(|_| None).collect(),
            park: Duration::ZERO,
            wake: Duration::ZERO,
            dispatched: 0,
        }
    }

    /// The per-shard scratch batches, for the serial merge.
    pub(crate) fn batches_mut(&mut self) -> &mut [ProbeBatch] {
        &mut self.batches
    }

    /// Total (park, wake) pool time, if any shard ran on a pool worker.
    pub(crate) fn pool_phases(&self) -> Option<(Duration, Duration)> {
        (self.dispatched > 0).then_some((self.park, self.wake))
    }

    /// Runs the probe stages (target_gen → routing → lookup) over all
    /// active hosts, sharding across `executor`'s workers, and returns
    /// how many scratch batches were filled.
    ///
    /// The driving thread's shard (batch 0) is observed chunk by chunk
    /// while it runs: each chunk goes to `observer` and its ledger into
    /// `ledger`, so batch 0 comes back with no probes. Worker shards
    /// come back buffered, for the merge to observe in shard order.
    ///
    /// Shards are contiguous chunks of `active`, reassembled in chunk
    /// order before returning, so `active`'s element order — and hence
    /// every per-host RNG stream — is exactly what a serial pass over
    /// the same vector would see. `ctx` and every clone of it are
    /// consumed before this returns.
    pub(crate) fn run_step<O: SimObserver>(
        &mut self,
        executor: &mut ShardExecutor,
        ctx: StepCtx,
        active: &mut Vec<InfectedHost>,
        observer: &mut O,
        ledger: &mut DeliveryLedger,
    ) -> usize {
        let shards = self
            .batches
            .len()
            .min(executor.parallelism())
            .min(active.len());
        let used = if shards > 1 {
            self.dispatch(executor, &ctx, active, shards)
        } else {
            1
        };
        // Shard 0 is whatever remains of `active`; driving it here
        // overlaps with the workers.
        drive_observed(
            &ctx,
            active,
            &mut self.batches[0],
            self.chunk_targets,
            observer,
            ledger,
        );
        drop(ctx);
        if used > 1 {
            self.collect(executor, active, used);
        }
        used
    }

    /// The pooled fan-out: peels tail chunks of `active` into carriers
    /// (last shard first, so each drain is a pure truncation) and
    /// dispatches shards `1..used` to workers in fixed shard→worker
    /// order. Returns `used`, the shard count including shard 0.
    fn dispatch(
        &mut self,
        executor: &mut ShardExecutor,
        ctx: &StepCtx,
        active: &mut Vec<InfectedHost>,
        shards: usize,
    ) -> usize {
        let chunk = active.len().div_ceil(shards);
        let used = active.len().div_ceil(chunk);
        for shard in (1..used).rev() {
            let mut hosts = std::mem::take(&mut self.carriers[shard]);
            hosts.extend(active.drain(shard * chunk..));
            let batch = std::mem::replace(&mut self.batches[shard], ProbeBatch::with_capacity(0));
            let sent_at = Timer::start();
            let job = ShardJob {
                shard,
                hosts,
                batch,
                ctx: ctx.clone(),
                chunk_targets: self.chunk_targets,
                sent_at,
            };
            // Deterministic shard→worker assignment (`used - 1 <=
            // workers` because `shards <= parallelism()`), so a shard
            // always runs on the same worker thread at a given count.
            if let Err(std::sync::mpsc::SendError(job)) = executor.workers[shard - 1].jobs.send(job)
            {
                // Unreachable in practice (workers outlive the
                // executor's senders); degrade by running inline.
                let ShardJob {
                    shard,
                    mut hosts,
                    mut batch,
                    ctx,
                    ..
                } = job;
                drive_shard(&ctx, &mut hosts, &mut batch, self.chunk_targets);
                self.slots[shard] = Some((hosts, batch));
            }
        }
        used
    }

    /// The barrier: waits for every dispatched shard, then splices the
    /// chunks back into `active` in shard order.
    fn collect(
        &mut self,
        executor: &mut ShardExecutor,
        active: &mut Vec<InfectedHost>,
        used: usize,
    ) {
        let mut outstanding = (1..used).filter(|&s| self.slots[s].is_none()).count();
        while outstanding > 0 {
            match executor.done_rx.recv() {
                Ok(done) => {
                    outstanding -= 1;
                    if let Some(payload) = done.panic {
                        std::panic::resume_unwind(payload);
                    }
                    self.park += done.park;
                    self.wake += done.wake;
                    self.dispatched += 1;
                    self.slots[done.shard] = Some((done.hosts, done.batch));
                }
                // Unreachable: workers hold their done senders for the
                // executor's whole lifetime. Stop waiting rather than
                // hang if it ever happens.
                Err(_) => break,
            }
        }

        // Splice the chunks back in shard order: `active` is restored
        // to the exact element order it had before the fan-out.
        for shard in 1..used {
            if let Some((mut hosts, batch)) = self.slots[shard].take() {
                active.append(&mut hosts);
                self.carriers[shard] = hosts;
                self.batches[shard] = batch;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_counts_the_driving_thread() {
        let pool = ShardExecutor::new(0);
        assert_eq!(pool.parallelism(), 1);
        let pool = ShardExecutor::new(1);
        assert_eq!(pool.parallelism(), 1);
    }

    #[test]
    fn pool_spawns_and_joins_workers() {
        let pool = ShardExecutor::new(4);
        assert_eq!(pool.parallelism(), 4);
        drop(pool); // must not hang: workers exit when senders drop
    }

    #[test]
    fn pipeline_always_has_a_shard_zero() {
        let p = StepPipeline::new(0, CHUNK_TARGETS);
        assert_eq!(p.batches.len(), 1);
    }
}
