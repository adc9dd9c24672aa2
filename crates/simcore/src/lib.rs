//! # simcore — deterministic discrete-event simulation engine
//!
//! The substrate under the NORNS reproduction: everything that needs a
//! clock, an event queue or a bandwidth model builds on this crate.
//!
//! * [`sim::Sim`] — event loop over a user model, deterministic
//!   ordering, cancellable events, seeded RNG.
//! * [`fluid::FluidNetwork`] — fluid-flow max-min fair bandwidth
//!   sharing across arbitrary resource paths (NICs, fabric, OSTs,
//!   NVM devices); [`fluid_driver`] wires it into the event loop.
//! * [`server::FifoServer`] — bounded-concurrency FIFO queueing
//!   station (metadata servers, worker pools).
//! * [`metrics`] — counters, summaries, histograms, time-weighted
//!   stats and CSV output for the experiment harness.
//! * [`rng::SimRng`] — seeded RNG with the non-uniform variates the
//!   interference models need.
//! * [`slab::Slab`] — generational arena used for all churning ids.

pub mod fluid;
pub mod fluid_driver;
pub mod metrics;
pub mod rng;
pub mod server;
pub mod sim;
pub mod slab;
pub mod time;

pub use fluid::{CompletedFlow, FlowId, FlowSpec, FluidNetwork, ResourceId};
pub use fluid_driver::{cancel_flow, start_flow, with_fluid, FluidModel, FluidSystem};
pub use rng::SimRng;
pub use server::{FifoServer, Served};
pub use sim::{EventId, Sim};
pub use slab::{Key, Slab};
pub use time::{SimDuration, SimTime, NANOS_PER_SEC};

/// Convenience byte-size constants used across the workspace.
pub mod units {
    pub const KIB: u64 = 1024;
    pub const MIB: u64 = 1024 * KIB;
    pub const GIB: u64 = 1024 * MIB;
    pub const TIB: u64 = 1024 * GIB;
    pub const KB: u64 = 1000;
    pub const MB: u64 = 1000 * KB;
    pub const GB: u64 = 1000 * MB;
    pub const TB: u64 = 1000 * GB;

    /// Gibibytes/second as bytes/second.
    pub fn gib_per_s(x: f64) -> f64 {
        x * GIB as f64
    }

    /// Gigabits/second as bytes/second (network link ratings).
    pub fn gbit_per_s(x: f64) -> f64 {
        x * 1e9 / 8.0
    }

    /// Format a byte count human-readably.
    pub fn fmt_bytes(b: f64) -> String {
        if b >= TIB as f64 {
            format!("{:.2} TiB", b / TIB as f64)
        } else if b >= GIB as f64 {
            format!("{:.2} GiB", b / GIB as f64)
        } else if b >= MIB as f64 {
            format!("{:.2} MiB", b / MIB as f64)
        } else if b >= KIB as f64 {
            format!("{:.2} KiB", b / KIB as f64)
        } else {
            format!("{b:.0} B")
        }
    }

    /// Format a bandwidth in MiB/s or GiB/s.
    pub fn fmt_rate(bps: f64) -> String {
        if bps >= GIB as f64 {
            format!("{:.2} GiB/s", bps / GIB as f64)
        } else {
            format!("{:.1} MiB/s", bps / MIB as f64)
        }
    }
}

#[cfg(test)]
mod unit_tests {
    use super::units::*;

    #[test]
    fn conversions() {
        assert_eq!(GIB, 1_073_741_824);
        assert!((gbit_per_s(100.0) - 12.5e9).abs() < 1.0);
        assert!((gib_per_s(1.0) - GIB as f64).abs() < 1e-9);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(2.0 * MIB as f64), "2.00 MiB");
        assert_eq!(fmt_rate(1.5 * GIB as f64), "1.50 GiB/s");
        assert_eq!(fmt_rate(100.0 * MIB as f64), "100.0 MiB/s");
    }
}
