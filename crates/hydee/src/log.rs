//! Sender-based message log — Algorithm 1, lines 7–8.
//!
//! Every inter-cluster message is copied into its sender's local memory
//! (the simulated payload identity plus metadata; the `memcpy` cost is
//! charged by the protocol at send time). The log supports:
//!
//! * replay selection after a peer's rollback: entries destined to the
//!   peer with sender date beyond what the peer's restored state has
//!   (Algorithm 3, lines 10–12);
//! * garbage collection on checkpoint acknowledgements (§III-E).
//!
//! Logs are part of the process checkpoint (Algorithm 1, line 21): a
//! checkpoint copies the log over its previous copy with `clone_from`,
//! reusing every per-destination buffer, and a rollback copies it back
//! the same way.
//!
//! ## Layout
//!
//! A [`PeerMap`] from destination to its entries in date order (sends are
//! sequential, so `append` pushes); replay selection and pruning cut a
//! channel's entries at a binary search.

use mps_sim::{Message, PeerMap, Rank, Tag};
use serde::{Deserialize, Serialize};

/// One logged message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Sender's date at the send (Algorithm 1 line 8).
    pub date: u64,
    /// Sender's phase at the send.
    pub phase: u64,
    pub dst: Rank,
    pub tag: Tag,
    pub bytes: u64,
    pub payload: u64,
    pub channel_seq: u64,
}

impl LogEntry {
    /// Reconstruct the on-wire message for replay.
    pub fn to_message(&self, src: Rank) -> Message {
        Message {
            src,
            dst: self.dst,
            tag: self.tag,
            bytes: self.bytes,
            payload: self.payload,
            channel_seq: self.channel_seq,
            meta: mps_sim::PbMeta {
                date: self.date,
                phase: self.phase,
            },
            replayed: true,
        }
    }
}

/// Sender-side log of one process, organised per destination.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SenderLog {
    by_dst: PeerMap<Vec<LogEntry>>,
    total_bytes: u64,
    total_messages: u64,
}

impl Clone for SenderLog {
    fn clone(&self) -> Self {
        SenderLog {
            by_dst: self.by_dst.clone(),
            total_bytes: self.total_bytes,
            total_messages: self.total_messages,
        }
    }

    /// Overwrite `self` with `src`, reusing its per-destination buffers.
    fn clone_from(&mut self, src: &Self) {
        self.by_dst.clone_from(&src.by_dst);
        self.total_bytes = src.total_bytes;
        self.total_messages = src.total_messages;
    }
}

impl SenderLog {
    pub fn new() -> Self {
        SenderLog::default()
    }

    /// Append a logged message. Entries per destination arrive in
    /// increasing date order (sends are sequential on a process).
    pub fn append(&mut self, entry: LogEntry) {
        debug_assert!(
            self.by_dst
                .get(entry.dst)
                .and_then(|v| v.last())
                .map(|last| last.date < entry.date)
                .unwrap_or(true),
            "log dates must increase per destination"
        );
        self.total_bytes += entry.bytes;
        self.total_messages += 1;
        self.by_dst.get_or_default(entry.dst).push(entry);
    }

    /// Entries destined to `dst` with sender date strictly greater than
    /// `have_up_to` (the peer's restored `maxdate` for this channel), in
    /// date order — the replay set of Algorithm 3.
    pub fn replay_set(&self, dst: Rank, have_up_to: u64) -> Vec<LogEntry> {
        self.by_dst
            .get(dst)
            .map(|v| {
                let start = v.partition_point(|e| e.date <= have_up_to);
                v[start..].to_vec()
            })
            .unwrap_or_default()
    }

    /// Garbage-collect entries destined to `dst` with sender date at or
    /// below `acked_up_to`. Returns `(messages, bytes)` reclaimed.
    pub fn prune(&mut self, dst: Rank, acked_up_to: u64) -> (u64, u64) {
        let Some(v) = self.by_dst.get_mut(dst) else {
            return (0, 0);
        };
        let cut = v.partition_point(|e| e.date <= acked_up_to);
        let (msgs, bytes) = v[..cut]
            .iter()
            .fold((0u64, 0u64), |(m, b), e| (m + 1, b + e.bytes));
        v.drain(..cut);
        self.total_messages -= msgs;
        self.total_bytes -= bytes;
        (msgs, bytes)
    }

    pub fn bytes(&self) -> u64 {
        self.total_bytes
    }

    pub fn messages(&self) -> u64 {
        self.total_messages
    }

    pub fn is_empty(&self) -> bool {
        self.total_messages == 0
    }

    /// Iterate all entries (destination order, then date order).
    pub fn iter(&self) -> impl Iterator<Item = &LogEntry> {
        self.by_dst.iter().flat_map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(dst: u32, date: u64, phase: u64, bytes: u64) -> LogEntry {
        LogEntry {
            date,
            phase,
            dst: Rank(dst),
            tag: Tag(0),
            bytes,
            payload: date * 1000,
            channel_seq: date,
        }
    }

    #[test]
    fn append_accumulates_totals() {
        let mut log = SenderLog::new();
        log.append(entry(1, 1, 1, 100));
        log.append(entry(2, 2, 1, 50));
        log.append(entry(1, 3, 2, 25));
        assert_eq!(log.bytes(), 175);
        assert_eq!(log.messages(), 3);
        assert_eq!(log.iter().count(), 3);
    }

    #[test]
    fn replay_set_is_strictly_after() {
        let mut log = SenderLog::new();
        for d in [2u64, 5, 9] {
            log.append(entry(1, d, 1, 10));
        }
        let r = log.replay_set(Rank(1), 5);
        assert_eq!(r.iter().map(|e| e.date).collect::<Vec<_>>(), vec![9]);
        let all = log.replay_set(Rank(1), 0);
        assert_eq!(all.len(), 3);
        assert!(log.replay_set(Rank(1), 9).is_empty());
        assert!(log.replay_set(Rank(7), 0).is_empty());
    }

    #[test]
    fn prune_reclaims() {
        let mut log = SenderLog::new();
        for d in [2u64, 5, 9] {
            log.append(entry(1, d, 1, 10));
        }
        log.append(entry(2, 3, 1, 40));
        let (m, b) = log.prune(Rank(1), 5);
        assert_eq!((m, b), (2, 20));
        assert_eq!(log.messages(), 2);
        assert_eq!(log.bytes(), 50);
        // channel 2 untouched
        assert_eq!(log.replay_set(Rank(2), 0).len(), 1);
        assert_eq!(log.prune(Rank(9), 100), (0, 0));
    }

    #[test]
    fn to_message_restores_identity() {
        let e = entry(4, 7, 3, 64);
        let m = e.to_message(Rank(2));
        assert_eq!(m.src, Rank(2));
        assert_eq!(m.dst, Rank(4));
        assert_eq!(m.meta.date, 7);
        assert_eq!(m.meta.phase, 3);
        assert!(m.replayed);
        assert_eq!(m.channel_seq, 7);
    }

    #[test]
    fn clone_is_snapshot() {
        let mut log = SenderLog::new();
        log.append(entry(1, 1, 1, 10));
        let snap = log.clone();
        log.append(entry(1, 2, 1, 10));
        assert_eq!(snap.messages(), 1);
        assert_eq!(log.messages(), 2);
    }
}
