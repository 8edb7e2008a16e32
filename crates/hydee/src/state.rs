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
use std::collections::BTreeMap;

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

/// Remove `r` from the ascending `ranks`, if present.
pub(crate) fn remove_sorted(ranks: &mut Vec<Rank>, r: Rank) {
    if let Ok(i) = ranks.binary_search(&r) {
        ranks.remove(i);
    }
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
    /// Peers whose `LastDate` we still await before our first send,
    /// ascending. Refilled in place at each failure, then removed from
    /// by binary search.
    pub waiting_lastdate: Vec<Rank>,
    /// Rolled-back peers (outside our cluster) whose `Rollback` we await
    /// before compiling reports, ascending, like `waiting_lastdate`.
    pub waiting_rollback: Vec<Rank>,
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

    /// Write the state as saved in a checkpoint into `dst`: persistent
    /// fields copied through `clone_from`, which reuses `dst`'s buffers,
    /// and transient recovery fields reset. A checkpoint captures with
    /// it, and a rollback restores the live state with it.
    pub fn checkpoint_into(&self, dst: &mut HydeeState) {
        let HydeeState {
            date,
            phase,
            rpp,
            log,
            ckpt_date,
            ckpt_maxdates,
            ack_pending,
            role,
            orphan_date,
            waiting_lastdate,
            waiting_rollback,
            rollback_info,
            notify_recv,
            resent_logs,
            suppressing,
        } = dst;
        *date = self.date;
        *phase = self.phase;
        rpp.clone_from(&self.rpp);
        log.clone_from(&self.log);
        *ckpt_date = self.ckpt_date;
        ckpt_maxdates.clone_from(&self.ckpt_maxdates);
        ack_pending.clone_from(&self.ack_pending);
        *role = RecoveryRole::None;
        orphan_date.clear();
        waiting_lastdate.clear();
        waiting_rollback.clear();
        rollback_info.clear();
        *notify_recv = false;
        resent_logs.clear();
        *suppressing = false;
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
        st.waiting_lastdate.push(Rank(1));
        st.orphan_date.insert(Rank(1), 5);
        // A dirty destination: every transient set, persistent tables
        // longer than the source's.
        let mut v = st.clone();
        v.role = RecoveryRole::Rolled;
        v.waiting_rollback.push(Rank(2));
        v.rollback_info.insert(Rank(2), (1, 1));
        v.ack_pending = vec![Rank(4), Rank(5)];
        v.log.append(crate::log::LogEntry {
            date: 1,
            phase: 1,
            dst: Rank(4),
            tag: mps_sim::Tag(0),
            bytes: 8,
            payload: 0,
            channel_seq: 1,
        });
        v.rpp.record(Rank(4), 1, 1);
        *v.ckpt_maxdates.get_or_default(Rank(4)) = 1;
        st.checkpoint_into(&mut v);
        assert_eq!(v.date, 10);
        assert_eq!(v.phase, 3);
        assert!(!v.notify_recv);
        assert!(!v.suppressing);
        assert!(v.waiting_lastdate.is_empty());
        assert!(v.waiting_rollback.is_empty());
        assert!(v.rollback_info.is_empty());
        assert!(v.orphan_date.is_empty());
        assert_eq!(v.role, RecoveryRole::None);
        assert!(v.log.is_empty() && v.log.iter().next().is_none());
        assert!(v.rpp.is_empty() && v.rpp.sources().next().is_none());
        assert!(v.ack_pending.is_empty());
        assert_eq!(v.ckpt_maxdates.iter().count(), 0);
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
