//! Per-rank receive buffers with deterministic matching.
//!
//! Arrived-but-undelivered messages wait here. Matching rules:
//!
//! * a specific receive `(src, tag)` takes the *oldest* pending message
//!   from that source with that tag (per-channel FIFO);
//! * a wildcard receive `(tag)` takes the pending message with that tag
//!   that arrived *earliest* (global arrival order), which is where
//!   timing-dependent nondeterminism enters the simulation.
//!
//! ## Layout (DESIGN.md §2.1)
//!
//! One `Vec` of pending messages in push order, scanned linearly. A rank
//! holds only the few messages that beat their receive, and workloads use
//! a fresh tag per iteration (DESIGN.md §3), so per-channel queues paid an
//! insert, a ring allocation and a removal per message, and a node-by-node
//! copy per snapshot, to index a handful of entries. Arrival stamps come
//! from one monotone engine counter, so the earliest-stamped match of a
//! tag is also the oldest of its channel: wildcards keep per-channel FIFO.
//!
//! The inbox is part of the rank's checkpointable state: cluster-coordinated
//! checkpoints capture it, and rollback restores it. Both copy into the
//! destination's existing `Vec` (`clone_from`, [`Inbox::clone_kept_from`])
//! rather than allocating a fresh one.

use crate::types::{Message, Rank, Tag};

/// A message sitting in the inbox, with its arrival metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrived {
    pub msg: Message,
    /// Arrival order stamp (engine-global, monotone). Lower = earlier.
    pub arrival_seq: u64,
    /// Receiver CPU time to charge on delivery (matching, copy-out).
    pub recv_cost: det_sim::SimDuration,
}

/// Receive buffer for one rank.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Inbox {
    /// Pending messages in push order.
    pending: Vec<Arrived>,
}

impl Clone for Inbox {
    fn clone(&self) -> Self {
        Inbox {
            pending: self.pending.clone(),
        }
    }

    /// Overwrite `self` with `src` in `self`'s existing buffer.
    fn clone_from(&mut self, src: &Self) {
        self.pending.clone_from(&src.pending);
    }
}

impl Inbox {
    pub fn new() -> Self {
        Inbox::default()
    }

    pub fn push(&mut self, msg: Message, arrival_seq: u64, recv_cost: det_sim::SimDuration) {
        self.pending.push(Arrived {
            msg,
            arrival_seq,
            recv_cost,
        });
    }

    /// Total number of pending messages.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Match a specific receive: oldest pending from `(src, tag)`.
    pub fn take_specific(&mut self, src: Rank, tag: Tag) -> Option<Arrived> {
        let i = self
            .pending
            .iter()
            .position(|a| a.msg.src == src && a.msg.tag == tag)?;
        Some(self.pending.remove(i))
    }

    /// Match a wildcard receive: earliest-arrived pending with `tag`,
    /// breaking exact ties by source rank (deterministic), then by push
    /// order.
    pub fn take_any(&mut self, tag: Tag) -> Option<Arrived> {
        let (i, _) = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, a)| a.msg.tag == tag)
            .min_by_key(|(_, a)| (a.arrival_seq, a.msg.src))?;
        Some(self.pending.remove(i))
    }

    /// Iterate pending messages in push order.
    pub fn iter(&self) -> impl Iterator<Item = &Arrived> {
        self.pending.iter()
    }

    /// Overwrite `self` with the messages of `src` that satisfy `keep`,
    /// in `src`'s order, reusing `self`'s buffer (checkpoints that
    /// exclude inter-cluster channel state, which sender-based logs own).
    pub fn clone_kept_from(&mut self, src: &Inbox, mut keep: impl FnMut(&Message) -> bool) {
        self.pending.clear();
        self.pending
            .extend(src.pending.iter().filter(|a| keep(&a.msg)).copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PbMeta;

    trait Push2 {
        fn push2(&mut self, msg: Message, seq: u64);
    }
    impl Push2 for Inbox {
        fn push2(&mut self, msg: Message, seq: u64) {
            self.push(msg, seq, det_sim::SimDuration::ZERO);
        }
    }

    fn msg(src: u32, tag: u32, seq: u64) -> Message {
        Message {
            src: Rank(src),
            dst: Rank(99),
            tag: Tag(tag),
            bytes: 8,
            payload: seq,
            channel_seq: seq,
            meta: PbMeta::default(),
            replayed: false,
        }
    }

    #[test]
    fn specific_is_fifo_per_channel() {
        let mut ib = Inbox::new();
        ib.push2(msg(1, 0, 1), 10);
        ib.push2(msg(1, 0, 2), 20);
        assert_eq!(
            ib.take_specific(Rank(1), Tag(0)).unwrap().msg.channel_seq,
            1
        );
        assert_eq!(
            ib.take_specific(Rank(1), Tag(0)).unwrap().msg.channel_seq,
            2
        );
        assert!(ib.take_specific(Rank(1), Tag(0)).is_none());
    }

    #[test]
    fn specific_respects_tag() {
        let mut ib = Inbox::new();
        ib.push2(msg(1, 7, 1), 10);
        assert!(ib.take_specific(Rank(1), Tag(0)).is_none());
        assert_eq!(ib.take_specific(Rank(1), Tag(7)).unwrap().msg.tag, Tag(7));
    }

    #[test]
    fn wildcard_takes_earliest_arrival() {
        let mut ib = Inbox::new();
        ib.push2(msg(5, 0, 1), 30);
        ib.push2(msg(2, 0, 1), 20);
        ib.push2(msg(9, 0, 1), 10);
        assert_eq!(ib.take_any(Tag(0)).unwrap().msg.src, Rank(9));
        assert_eq!(ib.take_any(Tag(0)).unwrap().msg.src, Rank(2));
        assert_eq!(ib.take_any(Tag(0)).unwrap().msg.src, Rank(5));
        assert!(ib.take_any(Tag(0)).is_none());
    }

    #[test]
    fn wildcard_tie_breaks_by_source() {
        let mut ib = Inbox::new();
        ib.push2(msg(5, 0, 1), 10);
        ib.push2(msg(2, 0, 1), 10);
        assert_eq!(ib.take_any(Tag(0)).unwrap().msg.src, Rank(2));
    }

    #[test]
    fn wildcard_filters_tag() {
        let mut ib = Inbox::new();
        ib.push2(msg(1, 3, 1), 10);
        ib.push2(msg(1, 4, 1), 20);
        assert_eq!(ib.take_any(Tag(4)).unwrap().msg.tag, Tag(4));
        assert!(ib.take_any(Tag(4)).is_none());
        assert_eq!(ib.take_any(Tag(3)).unwrap().msg.tag, Tag(3));
    }

    #[test]
    fn len_and_clone_roundtrip() {
        let mut ib = Inbox::new();
        assert!(ib.is_empty());
        ib.push2(msg(1, 0, 1), 1);
        ib.push2(msg(2, 0, 1), 2);
        assert_eq!(ib.len(), 2);
        let snapshot = ib.clone();
        ib.take_any(Tag(0));
        assert_eq!(ib.len(), 1);
        assert_eq!(snapshot.len(), 2, "snapshot must be unaffected");
    }

    #[test]
    fn ring_recycles_and_preserves_fifo_under_churn() {
        let mut ib = Inbox::new();
        let mut next_in = 1u64;
        let mut next_out = 1u64;
        // Interleave pushes and pops so the head cursor crosses the
        // compaction thresholds many times.
        for round in 0..200 {
            for _ in 0..(round % 5) + 1 {
                ib.push2(msg(1, 0, next_in), next_in);
                next_in += 1;
            }
            while ib.len() > 3 {
                let got = ib.take_specific(Rank(1), Tag(0)).unwrap();
                assert_eq!(got.msg.channel_seq, next_out, "FIFO violated");
                next_out += 1;
            }
        }
        while let Some(got) = ib.take_specific(Rank(1), Tag(0)) {
            assert_eq!(got.msg.channel_seq, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, next_in);
        assert!(ib.is_empty());
    }

    #[test]
    fn snapshots_compare_by_content_not_cursor() {
        // Two inboxes holding the same pending messages must be equal even
        // if one went through pop churn (different internal head cursor).
        let mut churned = Inbox::new();
        for i in 1..=40u64 {
            churned.push2(msg(1, 0, i), i);
        }
        for _ in 0..39 {
            churned.take_specific(Rank(1), Tag(0)).unwrap();
        }
        let mut fresh = Inbox::new();
        fresh.push2(msg(1, 0, 40), 40);
        assert_eq!(churned, fresh);
        assert_eq!(churned.len(), fresh.len());
    }

    #[test]
    fn retain_updates_len() {
        let mut src = Inbox::new();
        for i in 1..=10u64 {
            src.push2(msg(1, 0, i), i);
        }
        let mut ib = Inbox::new();
        for i in 1..=20u64 {
            ib.push2(msg(2, 0, i), i);
        }
        ib.clone_kept_from(&src, |m| m.channel_seq % 2 == 0);
        assert_eq!(ib.len(), 5);
        assert_eq!(ib.iter().count(), 5);
        assert!(ib.iter().all(|a| a.msg.src == Rank(1)), "no stale tail");
    }
}
