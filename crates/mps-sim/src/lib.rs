//! # mps-sim — a deterministic message-passing runtime simulator
//!
//! The substrate standing in for MPICH2 + a physical cluster in the HydEE
//! reproduction (see `DESIGN.md`). It executes one op-stream program per
//! rank over FIFO reliable channels priced by `net-model`, with:
//!
//! * deterministic discrete-event execution (bit-for-bit reproducible),
//! * MPI-like matching: source-specific receives and `MPI_ANY_SOURCE`
//!   wildcards,
//! * a [`protocol::Protocol`] hook interface rich enough to implement
//!   checkpoint/restart, sender-based message logging, and HydEE's full
//!   recovery choreography (send gating, orphan suppression, log replay,
//!   channel-state capture),
//! * fail-stop failure injection (single and multiple concurrent),
//! * built-in correctness oracles: every re-emitted or replayed message is
//!   checked against its original identity, and per-rank state digests
//!   expose any divergence from the failure-free execution.
//!
//! ```
//! use mps_sim::prelude::*;
//!
//! // Two ranks, one ping-pong.
//! let mut app = Application::new(2);
//! app.rank_mut(Rank(0)).send(Rank(1), 1024, Tag(0));
//! app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
//! app.rank_mut(Rank(1)).send(Rank(0), 1024, Tag(0));
//! app.rank_mut(Rank(0)).recv(Rank(1), Tag(0));
//!
//! let report = Sim::new(app, SimConfig::default(), NullProtocol).run();
//! assert!(report.completed());
//! assert_eq!(report.metrics.app_messages, 2);
//! ```

pub mod app;
pub mod cluster;
pub mod collectives;
pub mod engine;
pub mod failure;
pub mod inbox;
pub mod metrics;
pub mod peer_map;
pub mod policy;
pub mod program;
pub mod protocol;
pub mod trace;
pub mod types;

pub use app::{AppState, DetMode};
pub use cluster::ClusterMap;
pub use engine::{
    Ctx, InFlightMsg, LogDelta, RankSnapshot, RemoteEnvelope, RunReport, RunStatus, ShardOutcome,
    ShardState, Sim, SimConfig,
};
pub use failure::{
    Cascade, CorrelatedCluster, FailureEvent, FailureModel, FixedSchedule, PoissonPerRank,
};
pub use inbox::{Arrived, Inbox};
pub use metrics::Metrics;
pub use peer_map::PeerMap;
pub use policy::{
    CheckpointPolicy, CheckpointPolicyConfig, LogPressure, Periodic, PolicyObs, YoungDaly,
};
pub use program::{
    Application, GenProgram, Op, OpStream, OpTemplate, Program, RankProgram, UnrolledProgram,
};
pub use protocol::{NullProtocol, Protocol, SendAction, SendDirective, SendInfo};
pub use trace::Trace;
pub use types::{ChannelId, Endpoint, Message, PbMeta, Rank, Tag};
// Observability layer (DESIGN.md §2.5): protocols and drivers attach
// recorders through [`Sim::set_recorder`] / [`Ctx::recorder`].
pub use telemetry::{Fanout, Gauges, NoopRecorder, Recorder, RecoveryPhase, StorageDir};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::app::DetMode;
    pub use crate::cluster::ClusterMap;
    pub use crate::engine::{Ctx, RunReport, RunStatus, Sim, SimConfig};
    pub use crate::failure::{
        Cascade, CorrelatedCluster, FailureEvent, FailureModel, FixedSchedule, PoissonPerRank,
    };
    pub use crate::program::{
        Application, GenProgram, Op, OpStream, OpTemplate, Program, RankProgram, UnrolledProgram,
    };
    pub use crate::protocol::{NullProtocol, Protocol, SendAction, SendDirective, SendInfo};
    pub use crate::types::{ChannelId, Endpoint, Message, PbMeta, Rank, Tag};
    pub use det_sim::{SimDuration, SimTime};
}
