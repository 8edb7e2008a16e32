//! # mps-sim — a deterministic message-passing runtime simulator
//!
//! The substrate standing in for MPICH2 + a physical cluster in the HydEE
//! reproduction (see `DESIGN.md`). It executes one lazy op-stream
//! program ([`GenProgram`]) per rank over FIFO reliable channels priced
//! by `net-model`, with:
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
//!   expose any divergence from the failure-free execution,
//! * one run driver, [`run_sharded`]: it runs the ranks on shards of
//!   whole clusters that step in lockstep through conservative time
//!   windows, and merges them into one [`RunReport`] bit-for-bit equal
//!   to the one-shard run (DESIGN.md §2.8). The one-shard case is
//!   [`Sim::run`] on the caller's thread.
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
mod shards;
pub mod trace;
pub mod types;

pub use app::{AppState, DetMode};
pub use cluster::ClusterMap;
pub use engine::{Ctx, InFlightMsg, RankSnapshot, RunReport, RunStatus, Sim, SimConfig};
pub use failure::{
    Cascade, CorrelatedCluster, FailureEvent, FailureModel, FixedSchedule, PoissonPerRank,
};
pub use inbox::{Arrived, Inbox};
pub use metrics::Metrics;
pub use peer_map::PeerMap;
pub use policy::{
    CheckpointPolicy, CheckpointPolicyConfig, LogPressure, Periodic, PolicyObs, YoungDaly,
};
pub use program::{Application, GenProgram, Op, OpStream, OpTemplate};
pub use protocol::{NullProtocol, Protocol, SendAction, SendDirective, SendInfo};
pub use shards::{effective_shards, run_sharded, ShardSlice};
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
    pub use crate::program::{Application, GenProgram, Op, OpStream, OpTemplate};
    pub use crate::protocol::{NullProtocol, Protocol, SendAction, SendDirective, SendInfo};
    pub use crate::types::{ChannelId, Endpoint, Message, PbMeta, Rank, Tag};
    pub use det_sim::{SimDuration, SimTime};
}

#[cfg(test)]
mod tests {
    //! The pure lockstep decision (`decide`), shard by shard, and the
    //! driver's shard planning.

    use super::*;
    use det_sim::{SimDuration, SimTime};
    use engine::key;
    use shards::{assign_shards, decide, Decision, ShardState};

    fn lookahead() -> SimDuration {
        SimDuration::from_ps(1_000)
    }

    /// A shard whose next event is `peek`, with `hot` non-timer
    /// events queued.
    fn state(peek: Option<(u64, u64)>, hot: u64, done: bool, events: u64) -> ShardState {
        ShardState {
            peek: peek.map(|(t, k)| (SimTime::from_ps(t), k)),
            pending_hot: hot,
            done,
            events,
        }
    }

    fn exec() -> u64 {
        key::exec(Rank(0), 0)
    }

    #[test]
    fn decide_stops_when_the_event_budget_is_spent() {
        let states = [
            state(Some((5, exec())), 1, false, 6),
            state(Some((3, exec())), 1, false, 5),
        ];
        assert_eq!(
            decide(&states, lookahead(), 10),
            Decision::Stop { limit_hit: true }
        );
        assert_eq!(
            decide(&states, lookahead(), 11),
            Decision::Window(SimTime::from_ps(1_003))
        );
    }

    #[test]
    fn decide_stops_when_drained() {
        // Done everywhere, nothing hot left: a pending timer is moot.
        let states = [
            state(Some((9, key::timer(1))), 0, true, 4),
            state(None, 0, true, 4),
        ];
        assert_eq!(
            decide(&states, lookahead(), 100),
            Decision::Stop { limit_hit: false }
        );
    }

    #[test]
    fn decide_stops_on_deadlock() {
        let states = [state(None, 0, false, 4), state(None, 0, true, 4)];
        assert_eq!(
            decide(&states, lookahead(), 100),
            Decision::Stop { limit_hit: false }
        );
    }

    #[test]
    fn decide_steps_the_global_minimum_timer_on_its_shard() {
        let states = [
            state(Some((7, exec())), 1, false, 0),
            state(Some((7, key::timer(3))), 0, false, 0),
            state(Some((8, key::timer(2))), 0, true, 0),
        ];
        // Exec outranks a timer at the same instant.
        assert_eq!(
            decide(&states, lookahead(), 100),
            Decision::Window(SimTime::from_ps(1_007))
        );
        let states = [
            state(Some((9, exec())), 1, false, 0),
            state(Some((7, key::timer(3))), 0, false, 0),
            state(Some((8, key::timer(2))), 0, true, 0),
        ];
        assert_eq!(
            decide(&states, lookahead(), 100),
            Decision::Step { shard: 1 }
        );
    }

    #[test]
    fn decide_discards_timers_after_global_completion() {
        // Every rank is done but an arrival is still in flight: the
        // earlier timer goes uncounted.
        let states = [
            state(Some((9, exec())), 1, true, 0),
            state(Some((7, key::timer(3))), 0, true, 0),
        ];
        assert_eq!(
            decide(&states, lookahead(), 100),
            Decision::DiscardTimer { shard: 1 }
        );
    }

    #[test]
    fn decide_steps_sequentially_without_lookahead() {
        let states = [
            state(Some((9, exec())), 1, false, 0),
            state(Some((4, exec())), 1, false, 0),
        ];
        assert_eq!(
            decide(&states, SimDuration::ZERO, 100),
            Decision::Step { shard: 1 }
        );
    }

    #[test]
    fn decide_opens_a_window_at_the_global_minimum() {
        let states = [
            state(Some((9, exec())), 1, false, 0),
            state(None, 0, true, 0),
            state(Some((4, exec())), 1, false, 0),
        ];
        assert_eq!(
            decide(&states, lookahead(), 100),
            Decision::Window(SimTime::from_ps(1_004))
        );
    }

    #[test]
    fn unbounded_lookahead_saturates_instead_of_wrapping() {
        // The one-shard run: the horizon pins at the end of time.
        let unbounded = SimDuration::from_ps(u64::MAX);
        let near_end = u64::MAX - 5;
        let states = [state(Some((near_end, exec())), 1, false, 0)];
        assert_eq!(
            decide(&states, unbounded, 100),
            Decision::Window(SimTime::MAX)
        );
        assert_eq!(
            decide(&[state(Some((3, exec())), 1, false, 0)], unbounded, 100),
            Decision::Window(SimTime::MAX)
        );
        // Nothing is before the end of time: an event there steps.
        let states = [state(Some((u64::MAX, exec())), 1, false, 0)];
        assert_eq!(decide(&states, unbounded, 100), Decision::Step { shard: 0 });
    }

    #[test]
    fn effective_shards_clamps_with_warning() {
        assert_eq!(effective_shards(4, 8), (4, None));
        assert_eq!(effective_shards(8, 8), (8, None));
        let (n, warn) = effective_shards(16, 8);
        assert_eq!(n, 8);
        let warn = warn.expect("clamping warns");
        assert!(warn.contains("16") && warn.contains("8"), "{warn}");
        // Degenerate requests still produce a runnable plan.
        assert_eq!(effective_shards(0, 8), (1, None));
        let (n, warn) = effective_shards(3, 1);
        assert_eq!(n, 1);
        assert!(warn.is_some());
    }

    #[test]
    fn assign_shards_is_contiguous_and_balanced() {
        let map = ClusterMap::blocks(64, 16); // 16 clusters of 4
        let (slices, sor) = assign_shards(&map, 4);
        assert_eq!(slices.len(), 4);
        // Contiguous cluster ranges covering everything exactly once.
        let all: Vec<u32> = slices.iter().flat_map(|s| s.clusters.clone()).collect();
        assert_eq!(all, (0..16).collect::<Vec<u32>>());
        // Uniform clusters balance exactly.
        for s in &slices {
            assert_eq!(s.ranks, 16);
        }
        // The rank table matches the slices.
        for slice in &slices {
            for &c in &slice.clusters {
                for &r in map.members(c) {
                    assert_eq!(sor[r.idx()], slice.shard);
                }
            }
        }
    }

    #[test]
    fn assign_shards_balances_uneven_clusters() {
        // 3 clusters of 5,1,1 ranks over 2 shards: the greedy split puts
        // the big cluster alone (5 >= ceil(7/2)) and the rest together.
        let map = ClusterMap::new(vec![0, 0, 0, 0, 0, 1, 2]);
        let (slices, _) = assign_shards(&map, 2);
        assert_eq!(slices[0].clusters, vec![0]);
        assert_eq!(slices[1].clusters, vec![1, 2]);
        // Every shard owns at least one cluster even when early shards
        // would gladly swallow everything.
        let map = ClusterMap::new(vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3]);
        let (slices, _) = assign_shards(&map, 4);
        assert!(slices.iter().all(|s| !s.clusters.is_empty()));
    }
}
