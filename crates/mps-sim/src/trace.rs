//! Execution trace: the send-determinism oracle.
//!
//! Its one consumer is the correctness check. Every application send is
//! recorded under its stable identity `(channel, channel_seq)`. A
//! recovered execution re-emits some sends; if any re-emission differs in
//! size or payload from the original, the execution violated
//! send-determinism (or the protocol replayed the wrong thing) and the
//! conflict is recorded. Identities sit in per-channel arrays, one
//! [`PeerMap`] per sender rank keyed by receiver, so a send finds its
//! channel with one index and one short binary search, memory grows with
//! the messages on the channels actually used (never with ranks²), and
//! sharded runs move whole per-sender tables into one merged report. The
//! clustering graph does not come from here: it is built from declared
//! traffic (`clustering::CommGraph::from_application`).

use crate::peer_map::PeerMap;
use crate::types::{ChannelId, Message};
use std::collections::BTreeMap;

/// Identity record of one application send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendIdentity {
    pub bytes: u64,
    pub payload: u64,
}

/// Execution trace with built-in determinism oracle.
///
/// Identities are **interned per channel**: `channel_seq` is consecutive
/// from 1 on every directed channel, so each channel's identities live in
/// a dense arena indexed by `seq - 1` — an O(1) append on first emission
/// and an O(1) probe on re-emission, instead of a per-message tree node
/// (one `BTreeMap` entry per message for the whole run was both the
/// allocation hot spot and the memory hog of large sims). `sparse` catches
/// the out-of-sequence case (a replay racing ahead of the recorded
/// prefix), which cannot happen under the engine's FIFO channels but keeps
/// the oracle total.
#[derive(Debug, Default)]
pub struct Trace {
    /// First-seen identity of each message, densely interned per channel:
    /// `dense[src][dst][seq - 1]`. Grows on a sender's first send.
    dense: Vec<PeerMap<Vec<SendIdentity>>>,
    /// Identities whose `channel_seq` arrived beyond the dense prefix.
    sparse: BTreeMap<(ChannelId, u64), SendIdentity>,
    /// Oracle violations discovered during the run.
    pub violations: Vec<String>,
    /// Count of re-emissions that matched their original (replays and
    /// re-executed sends during recovery).
    pub consistent_reemissions: u64,
}

impl Trace {
    /// Look up the first-seen identity of `(channel, seq)`.
    fn identity(&self, channel: ChannelId, seq: u64) -> Option<&SendIdentity> {
        let dense = self.dense.get(channel.src.idx());
        match dense.and_then(|t| t.get(channel.dst)) {
            Some(v) if seq >= 1 && (seq as usize) <= v.len() => Some(&v[seq as usize - 1]),
            _ => self.sparse.get(&(channel, seq)),
        }
    }

    /// Record a send (fresh, re-executed, or suppressed-as-orphan; replayed
    /// log deliveries are *not* recorded here — they are copies, checked on
    /// delivery instead). A first emission interns its identity; any
    /// later emission of the same `(channel, seq)` is checked against it.
    /// The channel's table is found once, for the probe and the append.
    pub fn record_send(&mut self, msg: &Message) {
        let channel = msg.channel();
        let seq = msg.channel_seq;
        let id = SendIdentity {
            bytes: msg.bytes,
            payload: msg.payload,
        };
        let orig = if seq == 0 {
            self.sparse.get(&(channel, seq)).copied()
        } else {
            let src = channel.src.idx();
            if src >= self.dense.len() {
                self.dense.resize_with(src + 1, PeerMap::new);
            }
            let v = self.dense[src].get_or_default(channel.dst);
            match v.get(seq as usize - 1) {
                Some(&orig) => Some(orig),
                None => match self.sparse.get(&(channel, seq)) {
                    Some(&orig) => Some(orig),
                    None if seq as usize == v.len() + 1 => {
                        v.push(id);
                        return;
                    }
                    None => None,
                },
            }
        };
        match orig {
            None => {
                self.sparse.insert((channel, seq), id);
            }
            Some(orig) if orig == id => self.consistent_reemissions += 1,
            Some(orig) => self.violations.push(format!(
                "send-determinism violation on {src}->{dst} seq {seq}: \
                 original ({ob} B, payload {op:#x}), re-emission ({nb} B, payload {np:#x})",
                src = msg.src,
                dst = msg.dst,
                ob = orig.bytes,
                op = orig.payload,
                nb = msg.bytes,
                np = msg.payload,
            )),
        }
    }

    /// Verify a replayed (logged) message against the original emission.
    pub fn check_replay(&mut self, msg: &Message) {
        match self.identity(msg.channel(), msg.channel_seq).copied() {
            Some(orig) if orig.bytes == msg.bytes && orig.payload == msg.payload => {
                self.consistent_reemissions += 1;
            }
            Some(orig) => self.violations.push(format!(
                "replay mismatch on {src}->{dst} seq {seq}: logged ({nb} B, {np:#x}) vs \
                 original ({ob} B, {op:#x})",
                src = msg.src,
                dst = msg.dst,
                seq = msg.channel_seq,
                nb = msg.bytes,
                np = msg.payload,
                ob = orig.bytes,
                op = orig.payload,
            )),
            None => self.violations.push(format!(
                "replay of never-sent message {src}->{dst} seq {seq}",
                src = msg.src,
                dst = msg.dst,
                seq = msg.channel_seq,
            )),
        }
    }

    /// Merge another shard's trace into this one (sharded runs,
    /// DESIGN.md §2.8). Sends are recorded on the *sender's* shard, so
    /// the per-sender tables of two shards are disjoint and the merge
    /// moves whole tables — a union, never a conflict resolution.
    /// Violations concatenate and re-emission counts add.
    pub fn absorb(&mut self, other: Trace) {
        if self.dense.len() < other.dense.len() {
            self.dense.resize_with(other.dense.len(), PeerMap::new);
        }
        for (src, (mine, theirs)) in self.dense.iter_mut().zip(other.dense).enumerate() {
            if !theirs.is_empty() {
                debug_assert!(mine.is_empty(), "sender P{src} recorded on two shards");
                *mine = theirs;
            }
        }
        for (k, id) in other.sparse {
            let prev = self.sparse.insert(k, id);
            debug_assert!(prev.is_none(), "sparse identity {k:?} on two shards");
        }
        self.violations.extend(other.violations);
        self.consistent_reemissions += other.consistent_reemissions;
    }

    /// Number of distinct application messages observed.
    pub fn distinct_messages(&self) -> usize {
        let dense: usize = self
            .dense
            .iter()
            .flat_map(PeerMap::values)
            .map(Vec::len)
            .sum();
        dense + self.sparse.len()
    }

    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PbMeta, Rank, Tag};

    fn msg(seq: u64, bytes: u64, payload: u64) -> Message {
        Message {
            src: Rank(0),
            dst: Rank(1),
            tag: Tag(0),
            bytes,
            payload,
            channel_seq: seq,
            meta: PbMeta::default(),
            replayed: false,
        }
    }

    #[test]
    fn reemission_identical_is_consistent() {
        let mut t = Trace::default();
        t.record_send(&msg(1, 100, 0xAB));
        t.record_send(&msg(1, 100, 0xAB));
        assert!(t.is_consistent());
        assert_eq!(t.consistent_reemissions, 1);
        // the message is interned once
        assert_eq!(t.distinct_messages(), 1);
    }

    #[test]
    fn reemission_differing_payload_is_violation() {
        let mut t = Trace::default();
        t.record_send(&msg(1, 100, 0xAB));
        t.record_send(&msg(1, 100, 0xCD));
        assert!(!t.is_consistent());
        assert!(t.violations[0].contains("send-determinism violation"));
    }

    #[test]
    fn replay_checks_against_original() {
        let mut t = Trace::default();
        t.record_send(&msg(3, 64, 0x1));
        t.check_replay(&msg(3, 64, 0x1));
        assert!(t.is_consistent());
        t.check_replay(&msg(3, 64, 0x2));
        assert!(!t.is_consistent());
    }

    #[test]
    fn replay_of_unknown_message_flagged() {
        let mut t = Trace::default();
        t.check_replay(&msg(9, 8, 0x9));
        assert!(t.violations[0].contains("never-sent"));
    }

    #[test]
    fn sequential_sends_intern_densely() {
        let mut t = Trace::default();
        for seq in 1..=1000u64 {
            t.record_send(&msg(seq, 8, seq));
        }
        assert_eq!(t.distinct_messages(), 1000);
        assert!(t.sparse.is_empty(), "FIFO seqs must stay in the arena");
        // Re-emissions of interned identities are matched exactly.
        t.record_send(&msg(500, 8, 500));
        assert!(t.is_consistent());
        assert_eq!(t.consistent_reemissions, 1);
        t.record_send(&msg(500, 8, 999));
        assert!(!t.is_consistent());
    }

    #[test]
    fn absorb_unions_disjoint_shard_traces() {
        let theirs = |payload| Message {
            src: Rank(2),
            dst: Rank(0),
            tag: Tag(0),
            bytes: 7,
            payload,
            channel_seq: 1,
            meta: PbMeta::default(),
            replayed: false,
        };
        let mut a = Trace::default();
        a.record_send(&msg(1, 100, 0xA));
        a.record_send(&msg(1, 100, 0xA)); // re-emission
        let mut b = Trace::default();
        b.record_send(&theirs(0xB));
        b.violations.push("shard-local violation".into());
        a.absorb(b);
        assert_eq!(a.distinct_messages(), 2);
        assert_eq!(a.consistent_reemissions, 1);
        assert_eq!(a.violations.len(), 1);
        // Both shards' identities answer the oracle after the union...
        a.check_replay(&msg(1, 100, 0xA));
        a.check_replay(&theirs(0xB));
        assert_eq!(a.consistent_reemissions, 3);
        assert_eq!(a.violations.len(), 1);
        // ...and a changed payload on either shard's channel is caught.
        a.check_replay(&theirs(0xC));
        a.check_replay(&msg(1, 100, 0xD));
        assert_eq!(a.violations.len(), 3);
        assert!(a.violations[1..]
            .iter()
            .all(|v| v.contains("replay mismatch")));
    }

    #[test]
    fn out_of_sequence_seq_falls_back_to_sparse() {
        let mut t = Trace::default();
        t.record_send(&msg(1, 8, 0xA));
        t.record_send(&msg(7, 8, 0xB)); // gap: seqs 2..=6 never seen
        assert_eq!(t.distinct_messages(), 2);
        assert_eq!(t.sparse.len(), 1);
        // Both identities remain addressable.
        t.check_replay(&msg(1, 8, 0xA));
        t.check_replay(&msg(7, 8, 0xB));
        assert!(t.is_consistent());
        t.check_replay(&msg(7, 8, 0xC));
        assert!(!t.is_consistent());
    }
}
