//! The slab-heap scheduler against a plain reference model.
//!
//! The `Scheduler` (DESIGN.md §2.1: an index heap over a slab arena, with
//! `(time, key)` packed into one `u128` and bottom-up pops) must not
//! change *any* observable ordering: a `BinaryHeap<Reverse<(time, key,
//! seq)>>`-with-tombstones implementation is kept here as the reference
//! model, and random interleavings of schedule / pop / cancel must
//! produce identical pop sequences, keys, clocks, peeks and cancel
//! results on both.

use det_sim::{EventHandle, Scheduler, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The pre-slab scheduler, extended to tie-break keys: a `BinaryHeap` of
/// `(time, key, seq)` over an append-only slot vector with lazy tombstone
/// deletion.
struct RefScheduler<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    slots: Vec<Option<E>>,
    now: SimTime,
    live: usize,
}

impl<E> RefScheduler<E> {
    fn new() -> Self {
        RefScheduler {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            now: SimTime::ZERO,
            live: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, key: u64, event: E) -> usize {
        let seq = self.slots.len() as u64;
        self.slots.push(Some(event));
        self.heap.push(Reverse((at, key, seq)));
        self.live += 1;
        seq as usize
    }

    fn cancel(&mut self, handle: usize) -> Option<E> {
        let taken = self.slots.get_mut(handle)?.take();
        if taken.is_some() {
            self.live -= 1;
        }
        taken
    }

    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        loop {
            let Reverse((time, key, seq)) = self.heap.pop()?;
            if let Some(event) = self.slots[seq as usize].take() {
                self.live -= 1;
                self.now = time;
                return Some((time, key, event));
            }
        }
    }

    fn peek(&self) -> Option<(SimTime, u64)> {
        self.heap
            .iter()
            .map(|&Reverse(entry)| entry)
            .filter(|&(_, _, seq)| self.slots[seq as usize].is_some())
            .min()
            .map(|(time, key, _)| (time, key))
    }
}

/// One step of the interleaving, decoded from fuzz input.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + offset` under tie-break `key`.
    Schedule { offset: u64, key: u64 },
    /// Pop one event.
    Pop,
    /// Cancel the pending handle at `index % pending.len()`.
    Cancel { index: usize },
}

fn decode(raw: &[(u8, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, arg)| match kind % 4 {
            // Scheduling twice as likely as the others keeps queues deep.
            0 | 1 => Op::Schedule {
                offset: arg % 1_000,
                key: 0,
            },
            2 => Op::Pop,
            _ => Op::Cancel {
                index: arg as usize,
            },
        })
        .collect()
}

/// Drive both schedulers through the same interleaving and compare every
/// observable: pop order, clock, cancel results, live counts. (The
/// vendored proptest's `prop_assert*` are plain asserts, so this helper
/// panics on divergence.)
fn run_equivalence(ops: &[Op]) {
    let mut new: Scheduler<u64> = Scheduler::new();
    let mut old: RefScheduler<u64> = RefScheduler::new();
    // Handles of not-yet-cancelled, not-yet-popped schedules, in creation
    // order (popped entries are lazily discovered via cancel returning
    // None on both).
    let mut pending: Vec<(EventHandle, usize)> = Vec::new();
    let mut next_payload = 0u64;

    for &op in ops {
        match op {
            Op::Schedule { offset, key } => {
                let at = SimTime::from_ps(new.now().as_ps().saturating_add(offset));
                let payload = next_payload;
                next_payload += 1;
                let hn = new.schedule_keyed(at, key, payload);
                let ho = old.schedule(at, key, payload);
                pending.push((hn, ho));
            }
            Op::Pop => {
                let got_new = new.pop_keyed();
                let got_old = old.pop();
                prop_assert_eq!(got_new, got_old, "pop order diverged");
                prop_assert_eq!(new.now(), old.now, "clock diverged");
            }
            Op::Cancel { index } => {
                if pending.is_empty() {
                    continue;
                }
                let (hn, ho) = pending.remove(index % pending.len());
                let got_new = new.cancel(hn);
                let got_old = old.cancel(ho);
                prop_assert_eq!(got_new, got_old, "cancel result diverged");
            }
        }
        prop_assert_eq!(new.len(), old.live, "live count diverged");
        prop_assert_eq!(new.peek_keyed(), old.peek(), "peek diverged");
    }
    // Drain both to the end: the full residual order must also agree.
    loop {
        let got_new = new.pop_keyed();
        let got_old = old.pop();
        prop_assert_eq!(got_new, got_old, "drain order diverged");
        if got_new.is_none() {
            break;
        }
    }
    prop_assert!(new.is_empty());
}

/// Tie-break keys: few, so same-`(time, key)` ties are common, with the
/// engine's class bits in the top byte and both ends of the key space
/// (the low 64 bits of the packed `u128`).
const KEYS: [u64; 6] = [0, 1, 7, (1 << 56) | 3, 4 << 56, u64::MAX];

/// Like [`decode`], with keys from [`KEYS`] and times anywhere up to
/// `u64::MAX` (the high 64 bits of the packed `u128`): an offset is
/// small, of any magnitude, or past the end of time (the schedule
/// saturates at `u64::MAX`).
fn decode_keyed(raw: &[(u8, u64, u8)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, arg, pick)| match kind % 8 {
            0..=4 => Op::Schedule {
                offset: match pick % 4 {
                    0 => u64::MAX,
                    1 => arg >> (arg % 64),
                    _ => arg % 1_000,
                },
                key: KEYS[pick as usize / 4 % KEYS.len()],
            },
            5 | 6 => Op::Pop,
            _ => Op::Cancel {
                index: arg as usize,
            },
        })
        .collect()
}

proptest! {
    #[test]
    fn slab_heap_pops_identically_to_binary_heap(
        raw in prop::collection::vec((any::<u8>(), any::<u64>()), 0..400)
    ) {
        run_equivalence(&decode(&raw));
    }

    /// Same-instant storms: many events at few distinct times, so
    /// insertion-order tie-breaking carries the whole ordering.
    #[test]
    fn tie_break_survives_the_slab_rewrite(
        raw in prop::collection::vec((any::<u8>(), 0u64..3), 0..400)
    ) {
        run_equivalence(&decode(&raw));
    }

    /// Keyed schedules: pops follow `(time, key, seq)`, including at the
    /// ends of the time and key ranges, and with frequent exact ties.
    #[test]
    fn keyed_pops_follow_time_key_seq(
        raw in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 0..400)
    ) {
        run_equivalence(&decode_keyed(&raw));
    }
}
