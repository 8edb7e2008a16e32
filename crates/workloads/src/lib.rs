//! # workloads — applications for the HydEE evaluation
//!
//! Generators for every workload the paper measures plus supporting
//! patterns:
//!
//! * [`nas`] — communication skeletons of the six class-D NAS benchmarks
//!   (BT, CG, FT, LU, MG, SP) calibrated to Table I's byte volumes;
//! * [`netpipe`] — the ping-pong of Figure 5 with NetPIPE's size ladder;
//! * [`stencil`] — a generic 2D halo exchange (long-running GC / log
//!   growth experiments, wildcard-receive demonstrations);
//! * [`mod@master_worker`] — the canonical NON-send-deterministic pattern,
//!   used to show where HydEE's assumption is load-bearing.

pub mod grid;
pub mod master_worker;
pub mod nas;
pub mod netpipe;
pub mod registry;
pub mod stencil;

pub use grid::{Grid2D, Grid3D};
pub use master_worker::{master_worker, MasterWorkerConfig};
pub use nas::{NasBench, NasConfig};
pub use netpipe::{ping_pong, size_ladder};
pub use registry::WorkloadSpec;
pub use stencil::{stencil_2d, StencilConfig};
