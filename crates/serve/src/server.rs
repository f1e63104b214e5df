//! The server: protocol dispatch, memoization, and cache verification.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(test)]
use std::sync::Barrier;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hotspots_scenario::{run_spec, HotspotsError, RunContext, ScenarioSpec};
use hotspots_telemetry::hash::format_hash;

use crate::pool::{RunJob, RunPool, RunSlot};
use crate::protocol::{self, ErrorKind, Request, SpecFormat};
use crate::store::ResultStore;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root of the content-addressed result store.
    pub cache_dir: PathBuf,
    /// LRU bound on cached entries (minimum 1).
    pub max_entries: usize,
    /// Worker threads draining the run queue. Zero is legal: nothing
    /// drains, every uncached submission reports queue-full.
    pub workers: usize,
    /// Bound on queued (not yet running) jobs.
    pub queue_depth: usize,
    /// Engine threads per run (0 = auto).
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            cache_dir: PathBuf::from(".hotspots-cache"),
            max_entries: 64,
            workers: 1,
            queue_depth: 16,
            threads: 1,
        }
    }
}

/// Session counters, exposed over the `stats` op.
#[derive(Debug, Default)]
struct ServeStats {
    /// Submissions answered from the persistent store.
    hits: AtomicU64,
    /// Submissions not in the store at arrival.
    misses: AtomicU64,
    /// Jobs actually dispatched to the pool (deduplicated).
    runs: AtomicU64,
    /// Submissions rejected with queue-full backpressure.
    rejected: AtomicU64,
}

/// The scenario server. Shareable across client threads (`&self`
/// methods throughout): the store sits behind a mutex, in-flight
/// dedupe behind another, and the pool hands results back through
/// per-run slots. Whoever holds both locks takes the store's first.
#[derive(Debug)]
pub struct Server {
    store: Mutex<ResultStore>,
    inflight: Mutex<BTreeMap<u64, Arc<RunSlot>>>,
    pool: RunPool,
    stats: ServeStats,
    /// Holds the next submission that reaches the gate's step.
    #[cfg(test)]
    gate: Mutex<Option<Arc<Gate>>>,
}

/// A point in [`Server::handle_submit`] where a test can hold a thread.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The submission has registered its run (or joined one).
    Claimed,
    /// The registering submission has its result and has not stored it.
    Persisting,
}

/// A one-shot interleaving hook: the first thread to reach `step` meets
/// the test at `arrived`, then waits for it at `release`.
#[cfg(test)]
#[derive(Debug)]
struct Gate {
    step: Step,
    arrived: Barrier,
    release: Barrier,
}

impl Server {
    /// Opens the result store and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Store open failure (unwritable cache dir, corrupt or
    /// future-versioned manifest).
    pub fn open(config: &ServeConfig) -> Result<Server, HotspotsError> {
        let store = ResultStore::open(&config.cache_dir, config.max_entries)?;
        Ok(Server {
            store: Mutex::new(store),
            inflight: Mutex::new(BTreeMap::new()),
            pool: RunPool::new(config.workers, config.queue_depth, config.threads),
            stats: ServeStats::default(),
            #[cfg(test)]
            gate: Mutex::new(None),
        })
    }

    /// Handles one request line, returning the one response line
    /// (without trailing newline). Never panics and never kills the
    /// session: every failure becomes an error response.
    pub fn handle_line(&self, line: &str) -> String {
        match protocol::parse_request(line) {
            Ok(Request::Submit { format, spec }) => self.handle_submit(format, &spec),
            Ok(Request::Stats) => {
                let store = lock(&self.store);
                protocol::ok_stats(
                    store.len(),
                    self.stats.hits.load(Ordering::Relaxed),
                    self.stats.misses.load(Ordering::Relaxed),
                    self.stats.runs.load(Ordering::Relaxed),
                    self.stats.rejected.load(Ordering::Relaxed),
                    store.evictions(),
                )
            }
            Err(message) => protocol::error(ErrorKind::Protocol, &message),
        }
    }

    fn handle_submit(&self, format: SpecFormat, spec_text: &str) -> String {
        let parsed = match format {
            SpecFormat::Toml => ScenarioSpec::from_toml(spec_text),
            SpecFormat::Json => ScenarioSpec::from_json(spec_text),
        };
        let spec = match parsed {
            Ok(spec) => spec,
            Err(e) => return protocol::error(ErrorKind::Spec, &e.to_string()),
        };
        let canonical = spec.canonical_toml();
        let hash = spec.content_hash();
        let hash_text = format_hash(hash);
        let name = spec.meta.name.clone();

        // Lookup-or-register is one critical section (store lock, then
        // in-flight lock): a submission that misses the store finds the
        // slot of an identical run, or registers its own.
        let (slot, leader) = {
            let mut store = lock(&self.store);
            match store.get(hash) {
                Ok(Some(report)) => {
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    return protocol::ok_submit(&hash_text, report.trim_end());
                }
                Ok(None) => {
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => return protocol::error(ErrorKind::Runtime, &e.to_string()),
            }
            let mut inflight = lock(&self.inflight);
            if let Some(slot) = inflight.get(&hash) {
                (Arc::clone(slot), false)
            } else {
                let slot = Arc::new(RunSlot::new());
                let job = RunJob {
                    hash,
                    spec,
                    slot: Arc::clone(&slot),
                };
                if self.pool.try_submit(job).is_err() {
                    self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    return protocol::error(
                        ErrorKind::QueueFull,
                        "worker queue is full; resubmit later",
                    );
                }
                self.stats.runs.fetch_add(1, Ordering::Relaxed);
                inflight.insert(hash, Arc::clone(&slot));
                (slot, true)
            }
        };
        #[cfg(test)]
        self.pause(Step::Claimed);

        let result = slot.wait();
        if leader {
            #[cfg(test)]
            self.pause(Step::Persisting);
            // The registering submission persists the report, and only
            // then retires the slot: every later submission finds one
            // or the other.
            let mut store = lock(&self.store);
            let persisted = match &result {
                Ok(report) => store.insert(hash, &name, &canonical, report),
                Err(_) => Ok(()),
            };
            lock(&self.inflight).remove(&hash);
            drop(store);
            if let Err(e) = persisted {
                return protocol::error(ErrorKind::Runtime, &e.to_string());
            }
        }
        match result {
            Ok(report) => protocol::ok_submit(&hash_text, report.trim_end()),
            Err(message) => protocol::error(ErrorKind::Runtime, &message),
        }
    }

    /// Blocks at `step` if a test armed the gate for it.
    #[cfg(test)]
    fn pause(&self, step: Step) {
        let gate = {
            let mut armed = lock(&self.gate);
            if armed.as_ref().is_some_and(|gate| gate.step == step) {
                armed.take()
            } else {
                None
            }
        };
        if let Some(gate) = gate {
            gate.arrived.wait();
            gate.release.wait();
        }
    }

    /// Drives a JSONL session: one response line per non-empty request
    /// line, flushed as it goes, until EOF.
    ///
    /// # Errors
    ///
    /// I/O failure on either side of the session.
    pub fn serve<R: BufRead, W: Write>(&self, input: R, mut output: W) -> std::io::Result<()> {
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            writeln!(output, "{}", self.handle_line(&line))?;
            output.flush()?;
        }
        Ok(())
    }
}

/// One entry's verdict from a verification pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// The entry's content hash, formatted.
    pub hash: String,
    /// The spec's `meta.name`.
    pub name: String,
    /// `None` when the re-run reproduced the stored bytes exactly;
    /// otherwise what went wrong.
    pub failure: Option<String>,
}

/// Re-derives every cached entry — parse its stored canonical spec,
/// re-run it, canonicalize the fresh report — and diffs against the
/// stored bytes, byte for byte. The determinism audit as a first-class
/// operation: a mismatch means either the cache was corrupted or the
/// engine broke its own reproducibility contract.
///
/// Does not touch LRU state, so auditing never reorders eviction.
///
/// # Errors
///
/// Store open/read failure. Per-entry divergence is a [`CheckOutcome`]
/// failure, not an error.
pub fn check(config: &ServeConfig) -> Result<Vec<CheckOutcome>, HotspotsError> {
    let store = ResultStore::open(&config.cache_dir, config.max_entries)?;
    let ctx = RunContext::new("hotspots-serve").with_threads(config.threads);
    let mut outcomes = Vec::new();
    for (hash, name) in store.hashes() {
        let stored = store.read_report(hash)?;
        let spec_toml = store.read_spec(hash)?;
        let failure = match ScenarioSpec::from_toml(&spec_toml) {
            Err(e) => Some(format!("stored spec no longer parses: {e}")),
            Ok(spec) if spec.content_hash() != hash => Some(format!(
                "stored spec re-hashes to {} (entry dir says {})",
                format_hash(spec.content_hash()),
                format_hash(hash),
            )),
            Ok(spec) => match run_spec(&spec, &ctx) {
                Err(e) => Some(format!("re-run failed: {e}")),
                Ok(run) => {
                    let fresh = run.report.build().canonicalized().to_jsonl();
                    if fresh.trim_end() == stored.trim_end() {
                        None
                    } else {
                        Some(format!(
                            "re-run diverges from stored bytes\n  stored: {}\n   fresh: {}",
                            stored.trim_end(),
                            fresh.trim_end(),
                        ))
                    }
                }
            },
        };
        outcomes.push(CheckOutcome {
            hash: format_hash(hash),
            name,
            failure,
        });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn identical_submissions_coalesce_at_every_interleaving() {
        // A tiny engine-path spec (64 hosts, 5 simulated seconds).
        let spec = "[meta]\nname = \"serve-gate\"\n\n[worm]\nkind = \"uniform\"\n\n\
             [population]\nkind = \"range\"\nbase = \"10.0.0.0\"\ncount = 64\nstride = 1\n\n\
             [sim]\nscan_rate = 10.0\nseeds = 2\ndt = 1.0\nmax_time = 5.0\nrng_seed = 7\nthreads = 1\n";
        let mut request = String::from("{\"op\":\"submit\",\"spec\":");
        hotspots_telemetry::json::write_str(&mut request, spec);
        request.push('}');

        // Hold the first submission while its run is registered, then
        // after the run finished but before its report is stored, and
        // send the second one in that window.
        for (label, step) in [("claimed", Step::Claimed), ("persisting", Step::Persisting)] {
            let dir = std::env::temp_dir().join(format!(
                "hotspots-serve-gate-{label}-{}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let config = ServeConfig {
                cache_dir: dir.clone(),
                ..ServeConfig::default()
            };
            let server = Arc::new(Server::open(&config).expect("open"));
            let gate = Arc::new(Gate {
                step,
                arrived: Barrier::new(2),
                release: Barrier::new(2),
            });
            *lock(&server.gate) = Some(Arc::clone(&gate));

            let first = {
                let server = Arc::clone(&server);
                let request = request.clone();
                thread::spawn(move || server.handle_line(&request))
            };
            gate.arrived.wait();
            let second = server.handle_line(&request);
            gate.release.wait();
            let first = first.join().expect("first client");

            assert_eq!(first, second, "{label}: responses differ");
            assert!(first.starts_with("{\"ok\":true,"), "{label}: {first}");
            assert_eq!(
                server.handle_line("{\"op\":\"stats\"}"),
                "{\"ok\":true,\"entries\":1,\"hits\":0,\"misses\":2,\"runs\":1,\"rejected\":0,\"evictions\":0}",
                "{label}: two identical submissions must cost one run"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
