//! The flat inbox against the implementation it replaced.
//!
//! `mps_sim::Inbox` keeps pending messages in one push-ordered `Vec`. The
//! per-`(tag, src)` ring inbox it replaced is kept here as the reference
//! model, verbatim apart from its serde impls, its name and the two
//! probes the engine never called: random interleavings of push, both
//! receive kinds, `retain` and snapshot/restore clones must give
//! identical results and lengths on both after every step. The flat side
//! does `retain` as a filtered copy into a dirty buffer
//! (`Inbox::clone_kept_from`) and snapshot/restore as `clone_from` into
//! the existing inbox, as checkpoints and rollbacks do.
//!
//! Arrival stamps repeat, tie and run out of push order across channels,
//! so the wildcard rule (earliest stamp, then lowest source) is exercised
//! rather than push order. Within one channel they never decrease: the
//! engine stamps every arrival from one monotone counter, and under that
//! invariant a channel's oldest pending message is also its earliest.

use det_sim::SimDuration;
use mps_sim::{Arrived, Inbox, Message, PbMeta, Rank, Tag};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// FIFO queue over a recycled `Vec`: `push` appends, `pop_front` advances a
/// head cursor, and the dead prefix is reclaimed in amortised O(1) —
/// either wholesale when the ring drains or by compaction once the dead
/// prefix dominates.
#[derive(Debug, Clone, Default)]
struct Ring {
    buf: Vec<Arrived>,
    head: usize,
}

impl Ring {
    #[inline]
    fn live(&self) -> &[Arrived] {
        &self.buf[self.head..]
    }

    #[inline]
    fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    #[inline]
    fn push(&mut self, a: Arrived) {
        self.buf.push(a);
    }

    #[inline]
    fn front(&self) -> Option<&Arrived> {
        self.buf.get(self.head)
    }

    fn pop_front(&mut self) -> Option<Arrived> {
        let a = *self.buf.get(self.head)?;
        self.head += 1;
        if self.head == self.buf.len() {
            // Drained: reuse the allocation from the start.
            self.buf.clear();
            self.head = 0;
        } else if self.head >= 32 && self.head * 2 >= self.buf.len() {
            // Dead prefix dominates: slide the live tail down.
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(self.buf.len() - self.head);
            self.head = 0;
        }
        Some(a)
    }

    fn retain(&mut self, mut pred: impl FnMut(&Arrived) -> bool) {
        if self.head > 0 {
            self.buf.copy_within(self.head.., 0);
            let live = self.buf.len() - self.head;
            self.buf.truncate(live);
            self.head = 0;
        }
        self.buf.retain(|a| pred(a));
    }
}

/// Rings compare by live content only — the recycled dead prefix is an
/// implementation detail that must not distinguish snapshots.
impl PartialEq for Ring {
    fn eq(&self, other: &Self) -> bool {
        self.live() == other.live()
    }
}
impl Eq for Ring {}

/// Receive buffer for one rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefInbox {
    /// Pending messages per channel, FIFO by arrival. Keyed tag-major so a
    /// wildcard receive ranges over exactly the channels of its tag.
    by_channel: BTreeMap<(Tag, Rank), Ring>,
    /// Total pending messages (kept incrementally; `len()` must be O(1) —
    /// the engine reports it per rank at the end of every run).
    pending: usize,
}

impl RefInbox {
    pub fn new() -> Self {
        RefInbox::default()
    }

    pub fn push(&mut self, msg: Message, arrival_seq: u64, recv_cost: det_sim::SimDuration) {
        self.by_channel
            .entry((msg.tag, msg.src))
            .or_default()
            .push(Arrived {
                msg,
                arrival_seq,
                recv_cost,
            });
        self.pending += 1;
    }

    /// Total number of pending messages.
    pub fn len(&self) -> usize {
        self.pending
    }

    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Match a specific receive: oldest pending from `(src, tag)`.
    pub fn take_specific(&mut self, src: Rank, tag: Tag) -> Option<Arrived> {
        let ring = self.by_channel.get_mut(&(tag, src))?;
        let taken = ring.pop_front();
        if taken.is_some() {
            self.pending -= 1;
            if ring.len() == 0 {
                // Workloads tag each communication epoch (DESIGN.md §3), so
                // drained channels are dead weight: reclaim them or the map
                // grows with every epoch of the run.
                self.by_channel.remove(&(tag, src));
            }
        }
        taken
    }

    /// Match a wildcard receive: earliest-arrived pending with `tag`,
    /// breaking exact ties by source rank (deterministic).
    pub fn take_any(&mut self, tag: Tag) -> Option<Arrived> {
        let best_key = self
            .channels_of(tag)
            .filter_map(|(&key, ring)| ring.front().map(|a| (a.arrival_seq, key)))
            .min()
            .map(|(_, key)| key)?;
        self.pending -= 1;
        let ring = self.by_channel.get_mut(&best_key).unwrap();
        let taken = ring.pop_front();
        if ring.len() == 0 {
            self.by_channel.remove(&best_key);
        }
        taken
    }

    /// The channels of one tag (tag-major key order makes this a range).
    fn channels_of(&self, tag: Tag) -> impl Iterator<Item = (&(Tag, Rank), &Ring)> {
        self.by_channel
            .range((tag, Rank(0))..=(tag, Rank(u32::MAX)))
    }

    /// Iterate pending messages (arbitrary but deterministic order).
    pub fn iter(&self) -> impl Iterator<Item = &Arrived> {
        self.by_channel.values().flat_map(|r| r.live().iter())
    }

    /// Keep only pending messages satisfying `pred` (used when
    /// checkpointing: inter-cluster channel state is excluded because
    /// sender-based logs own it).
    pub fn retain(&mut self, mut pred: impl FnMut(&Message) -> bool) {
        let mut pending = 0;
        for q in self.by_channel.values_mut() {
            q.retain(|a| pred(&a.msg));
            pending += q.len();
        }
        self.by_channel.retain(|_, q| q.len() > 0);
        self.pending = pending;
    }
}

/// One step of the interleaving, decoded from fuzz input.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push from `src` with `tag`; the stamp is `raw`, raised to the
    /// channel's last stamp if below it.
    Push {
        src: u32,
        tag: u32,
        raw: u64,
    },
    TakeSpecific {
        src: u32,
        tag: u32,
    },
    TakeAny {
        tag: u32,
    },
    /// Keep messages whose id is not divisible by `modulus`.
    Retain {
        modulus: u64,
    },
    /// Save a clone of both inboxes.
    Snapshot,
    /// Replace both inboxes with clones of the saved snapshot.
    Restore,
}

/// Sources and tags are drawn from small ranges so channels collide.
fn decode(raw: &[(u8, u32, u32, u64)], stamps: u64) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, a, b, c)| {
            let (src, tag) = (a % 4, b % 3);
            match kind % 10 {
                // Pushes outweigh takes, so inboxes hold several messages.
                0..=3 => Op::Push {
                    src,
                    tag,
                    raw: c % stamps,
                },
                4 | 5 => Op::TakeSpecific { src, tag },
                6 | 7 => Op::TakeAny { tag },
                8 => match c % 3 {
                    0 => Op::Retain { modulus: 2 + c % 4 },
                    1 => Op::Snapshot,
                    _ => Op::Restore,
                },
                _ => Op::TakeAny { tag: (tag + 1) % 3 },
            }
        })
        .collect()
}

fn message(src: u32, tag: u32, id: u64) -> Message {
    Message {
        src: Rank(src),
        dst: Rank(9),
        tag: Tag(tag),
        bytes: 8,
        payload: id,
        channel_seq: id,
        meta: PbMeta::default(),
        replayed: false,
    }
}

/// Pending messages as a sorted multiset, to compare contents whatever
/// order each layout iterates in.
fn contents<'a>(it: impl Iterator<Item = &'a Arrived>) -> Vec<(u64, u64, u32, u32)> {
    let mut v: Vec<_> = it
        .map(|a| (a.msg.payload, a.arrival_seq, a.msg.src.0, a.msg.tag.0))
        .collect();
    v.sort_unstable();
    v
}

fn run_equivalence(ops: &[Op]) {
    let mut new = Inbox::new();
    let mut old = RefInbox::new();
    let mut saved = (new.clone(), old.clone());
    let mut scratch = Inbox::new();
    let mut last_stamp: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut next_id = 1u64;

    for &op in ops {
        match op {
            Op::Push { src, tag, raw } => {
                let last = last_stamp.entry((src, tag)).or_insert(0);
                let stamp = raw.max(*last);
                *last = stamp;
                let cost = SimDuration::from_ps(next_id);
                new.push(message(src, tag, next_id), stamp, cost);
                old.push(message(src, tag, next_id), stamp, cost);
                next_id += 1;
            }
            Op::TakeSpecific { src, tag } => prop_assert_eq!(
                new.take_specific(Rank(src), Tag(tag)),
                old.take_specific(Rank(src), Tag(tag)),
                "take_specific diverged"
            ),
            Op::TakeAny { tag } => prop_assert_eq!(
                new.take_any(Tag(tag)),
                old.take_any(Tag(tag)),
                "take_any diverged"
            ),
            Op::Retain { modulus } => {
                scratch.clone_kept_from(&new, |m| m.payload % modulus != 0);
                std::mem::swap(&mut new, &mut scratch);
                old.retain(|m| m.payload % modulus != 0);
            }
            Op::Snapshot => {
                saved.0.clone_from(&new);
                saved.1 = old.clone();
            }
            Op::Restore => {
                new.clone_from(&saved.0);
                old = saved.1.clone();
            }
        }
        prop_assert_eq!(new.len(), old.len(), "len diverged after {:?}", op);
        prop_assert_eq!(new.is_empty(), old.is_empty());
        prop_assert_eq!(contents(new.iter()), contents(old.iter()));
    }
    // Drain every tag by wildcard: the residual order must agree too.
    for tag in 0..3 {
        loop {
            let got = new.take_any(Tag(tag));
            prop_assert_eq!(got, old.take_any(Tag(tag)), "drain diverged");
            if got.is_none() {
                break;
            }
        }
    }
    prop_assert!(new.is_empty() && old.is_empty());
}

proptest! {
    #[test]
    fn flat_inbox_matches_the_ring_inbox(
        raw in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u64>()), 0..300)
    ) {
        run_equivalence(&decode(&raw, 64));
    }

    /// Few distinct stamps: exact ties decide most wildcard matches, so
    /// the source tie-break and push order carry the ordering.
    #[test]
    fn wildcard_ties_match_the_ring_inbox(
        raw in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u64>()), 0..300)
    ) {
        run_equivalence(&decode(&raw, 3));
    }
}
