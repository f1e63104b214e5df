// lint-as: crates/telemetry/src/metrics.rs
// The telemetry crate is not a hot-path crate: `Timer` reads the clock
// here, so hot-path crates never have to.

use std::time::{Duration, Instant};

pub struct Timer {
    started: Instant,
}

impl Timer {
    pub fn start() -> Timer {
        Timer {
            started: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}
