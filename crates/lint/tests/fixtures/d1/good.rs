// lint-as: crates/sim/src/engine.rs
// Timing through `Timer` is clean, as are clock reads in test modules
// or strings; bare `Instant` type mentions are not calls.

use hotspots_telemetry::Timer;

pub fn step(deadline: Option<std::time::Instant>) -> std::time::Duration {
    let mut clock = Timer::start();
    let first = clock.lap();
    let _msg = "Instant::now and SystemTime in a string are data";
    let _ = deadline;
    first + clock.elapsed()
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    #[test]
    fn timing_in_tests_is_fine() {
        let _t = Instant::now();
    }
}
