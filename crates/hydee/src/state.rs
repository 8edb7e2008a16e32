//! Per-process protocol state.
//!
//! The persistent part (date, phase, RPP, sender log, GC bookkeeping) is
//! exactly what Algorithm 1 line 21 saves with the checkpoint; the
//! recovery-transient part exists only between a failure and the end of
//! recovery and is never checkpointed.

use crate::log::SenderLog;
use crate::rpp::Rpp;
use mps_sim::{PeerMap, Rank};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Role of a process in the current recovery (if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RecoveryRole {
    #[default]
    None,
    /// Member of a rolled-back cluster (runs Algorithm 2 + the
    /// Algorithm 3 duties toward *other* rolled clusters).
    Rolled,
    /// Not rolled back (runs Algorithm 3).
    Survivor,
}

/// Protocol state of one process.
#[derive(Debug, Clone, Default)]
pub struct HydeeState {
    // ---- persistent (checkpointed) ----
    /// Event date: incremented on every send and every delivery
    /// (Algorithm 1 lines 6 and 17).
    pub date: u64,
    /// Current phase (phases start at 1 in the paper's example).
    pub phase: u64,
    pub rpp: Rpp,
    pub log: SenderLog,
    /// Own date at the last checkpoint (GC: peers may prune RPP entries
    /// for this channel below it).
    pub ckpt_date: u64,
    /// `rpp.maxdate` per channel at the last checkpoint (GC: tells each
    /// sender how far its log is covered by our checkpoint).
    pub ckpt_maxdates: PeerMap<u64>,
    /// External peers that still owe a CkptAck for the current checkpoint
    /// epoch (ack rides on the first delivery from each): built sorted from
    /// `rpp.sources()` at each checkpoint, then only removed from.
    pub ack_pending: Vec<Rank>,

    // ---- recovery-transient (never checkpointed) ----
    pub role: RecoveryRole,
    /// Suppression horizon per external peer: last date of ours the peer
    /// has received (`LastDate` answers). `None` until answered.
    pub orphan_date: BTreeMap<Rank, u64>,
    /// Peers whose `LastDate` we still await before our first send.
    pub waiting_lastdate: BTreeSet<Rank>,
    /// Rolled-back peers (outside our cluster) whose `Rollback` we await
    /// before compiling reports.
    pub waiting_rollback: BTreeSet<Rank>,
    /// Rollback info received: peer -> (own_date, maxdate_from_you).
    pub rollback_info: BTreeMap<Rank, (u64, u64)>,
    /// `NotifySendMsg` received.
    pub notify_recv: bool,
    /// Logged entries selected for replay, pending `NotifySendLog`,
    /// date-ascending.
    pub resent_logs: Vec<crate::log::LogEntry>,
    /// Rolled process still inside the suppression window (Algorithm 2
    /// line 21: switches back to failure-free once its date passes every
    /// orphan horizon).
    pub suppressing: bool,
}

impl HydeeState {
    pub fn new() -> Self {
        HydeeState {
            phase: 1,
            ..Default::default()
        }
    }

    /// The state as saved in a checkpoint: persistent fields only,
    /// transient recovery fields reset.
    pub fn checkpoint_view(&self) -> HydeeState {
        HydeeState {
            date: self.date,
            phase: self.phase,
            rpp: self.rpp.clone(),
            log: self.log.clone(),
            ckpt_date: self.ckpt_date,
            ckpt_maxdates: self.ckpt_maxdates.clone(),
            ack_pending: self.ack_pending.clone(),
            ..HydeeState::new()
        }
    }

    /// Has this rolled-back process passed every orphan horizon (so its
    /// sends can no longer be orphan re-emissions)?
    pub fn past_all_orphans(&self) -> bool {
        self.orphan_date.values().all(|&od| self.date > od)
    }

    /// Bytes this state contributes to a checkpoint (metadata + logs).
    pub fn checkpoint_bytes(&self) -> u64 {
        64 + self.log.bytes() + 16 * self.rpp.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_state_starts_in_phase_one() {
        let st = HydeeState::new();
        assert_eq!(st.phase, 1);
        assert_eq!(st.date, 0);
        assert_eq!(st.role, RecoveryRole::None);
    }

    #[test]
    fn checkpoint_view_clears_transients() {
        let mut st = HydeeState::new();
        st.date = 10;
        st.phase = 3;
        st.notify_recv = true;
        st.suppressing = true;
        st.waiting_lastdate.insert(Rank(1));
        st.orphan_date.insert(Rank(1), 5);
        let v = st.checkpoint_view();
        assert_eq!(v.date, 10);
        assert_eq!(v.phase, 3);
        assert!(!v.notify_recv);
        assert!(!v.suppressing);
        assert!(v.waiting_lastdate.is_empty());
        assert!(v.orphan_date.is_empty());
        assert_eq!(v.role, RecoveryRole::None);
    }

    #[test]
    fn past_all_orphans_logic() {
        let mut st = HydeeState::new();
        assert!(st.past_all_orphans(), "no horizons => trivially past");
        st.orphan_date.insert(Rank(1), 5);
        st.orphan_date.insert(Rank(2), 8);
        st.date = 8;
        assert!(!st.past_all_orphans());
        st.date = 9;
        assert!(st.past_all_orphans());
    }
}
