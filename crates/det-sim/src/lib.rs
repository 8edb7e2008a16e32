//! # det-sim — deterministic discrete-event simulation engine
//!
//! Foundation for the hydee-rs workspace: a virtual clock with picosecond
//! resolution, an event queue with *stable* (fully deterministic) ordering,
//! and deterministic pseudo-random number streams.
//!
//! Everything in this crate is deterministic by construction: given the same
//! seed and the same sequence of API calls, a simulation replays
//! bit-for-bit. That property is what lets the fault-tolerance tests compare
//! a recovered execution against the golden failure-free run of the same
//! seed.
//!
//! ```
//! use det_sim::prelude::*;
//!
//! let mut sched: Scheduler<&'static str> = Scheduler::new();
//! sched.schedule(SimTime::from_us(3), "late");
//! sched.schedule(SimTime::from_us(1), "early");
//! let (t, ev) = sched.pop().unwrap();
//! assert_eq!(ev, "early");
//! assert_eq!(t, SimTime::from_us(1));
//! ```

pub mod fx;
pub mod queue;
pub mod rng;
pub mod time;

pub use fx::{FxHashMap, FxHasher};
pub use queue::{EventHandle, Scheduler};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::queue::{EventHandle, Scheduler};
    pub use crate::rng::DetRng;
    pub use crate::time::{SimDuration, SimTime};
}
