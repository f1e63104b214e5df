// lint-as: crates/sim/src/engine.rs
// Direct clock reads in a hot-path crate: every one is a D1 hit, gated
// behind a cargo feature or not.

use std::time::{Instant, SystemTime}; //~ D1

pub fn step() -> f64 {
    let t0 = Instant::now(); //~ D1
    let _wall = SystemTime::now(); //~ D1
    t0.elapsed().as_secs_f64()
}

pub fn gated_step() {
    #[cfg(feature = "profiling")]
    let t0 = Instant::now(); //~ D1
    #[cfg(feature = "profiling")]
    {
        let _dt = t0.elapsed();
        let _again = Instant::now(); //~ D1
    }
}

#[cfg(feature = "profiling")]
pub fn gated_fn() -> Instant {
    Instant::now() //~ D1
}
