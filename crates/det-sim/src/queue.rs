//! Deterministic event queue.
//!
//! An index-based binary heap over a **slab arena** (DESIGN.md §2.1). Every
//! scheduled event lives in a fixed slot of the arena; the heap itself is a
//! flat `Vec` of 32-byte entries ordered by `(SimTime, key, sequence)`,
//! with time and key packed into one `u128` so the order is two word
//! compares. The optional caller-supplied `key`
//! ([`Scheduler::schedule_keyed`]) lets an engine impose a
//! *content-derived* order on same-instant events that is independent of
//! insertion order — the property the sharded engine needs so that events
//! inserted by different shards still pop in one global order (DESIGN.md
//! §2.8). The monotonically increasing sequence number remains the final
//! tie-break, resolving same-`(time, key)` events in *insertion order*,
//! which keeps the simulation schedule a pure function of the call
//! sequence. Because `seq` is unique the order is strict and total, so any
//! correct heap pops the same sequence.
//!
//! A pop deletes bottom-up (Wegener, *BOTTOM-UP-HEAPSORT*, 1993): the root
//! hole sinks to a leaf along the smaller child, one compare per level,
//! and the displaced last entry sifts up from that leaf. A top-down sift
//! pays two compares per level to stop early, which the last entry almost
//! never does. A 4-ary layout measured no better, and on heaps too large
//! for the cache neither is faster than the top-down sift (DESIGN.md
//! §2.1).
//!
//! Freed slots are recycled through an intrusive free list, so steady-state
//! operation performs **zero allocations** and memory is bounded by the
//! peak number of simultaneously live events (the previous implementation
//! appended one slot per scheduled event and paid an O(dead-prefix) scan on
//! every pop to decide when to compact).
//!
//! Events can be cancelled in O(1) via [`EventHandle`] (lazy deletion: the
//! slot is tombstoned, its key is kept so the heap invariant holds, and the
//! slot is recycled when its heap entry surfaces), which the
//! message-passing layer uses for retracting in-flight deliveries to a
//! failed rank. Handles carry a per-slot generation, so a handle to a
//! consumed event can never cancel an unrelated event that happens to reuse
//! the slot.

use crate::time::SimTime;

/// Identifies a scheduled event so it can be cancelled later.
///
/// Internally packs `(slot index, slot generation)`; a handle is
/// invalidated the moment its event fires or is cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventHandle(u64);

impl EventHandle {
    #[inline]
    fn new(slot: u32, generation: u32) -> Self {
        EventHandle(((generation as u64) << 32) | slot as u64)
    }
    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }
    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

const NIL: u32 = u32::MAX;

/// A heap entry: the full ordering key plus the arena slot it points at.
/// Keys are *inline* so sift comparisons never chase the arena pointer.
/// `time` and `key` are packed into one `u128` (`time << 64 | key`), so
/// `(packed, seq)` compares exactly like `(time, key, seq)` in two word
/// compares; the entry stays 32 bytes. `seq` doubles as the staleness
/// check — a cancelled event frees its slot immediately, and any heap
/// entry whose `seq` no longer matches the slot's is recognised as stale
/// when it surfaces.
#[derive(Clone, Copy)]
struct Entry {
    packed: u128,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_ps((self.packed >> 64) as u64)
    }

    #[inline]
    fn key(&self) -> u64 {
        self.packed as u64
    }

    /// The heap order: `(time, key, seq)`, a strict total order because
    /// `seq` is unique.
    #[inline]
    fn before(&self, other: &Entry) -> bool {
        (self.packed, self.seq) < (other.packed, other.seq)
    }
}

struct Slot<E> {
    /// Insertion stamp of the occupying event; `u64::MAX` while free.
    seq: u64,
    /// Bumped whenever the slot is recycled; validates [`EventHandle`]s.
    generation: u32,
    /// Next slot in the free list (only meaningful while free).
    next_free: u32,
    event: Option<E>,
}

/// A deterministic future-event list.
///
/// `pop` never returns an event earlier than the last popped time, and the
/// queue tracks `now` — the timestamp of the most recently popped event —
/// as the simulation clock.
pub struct Scheduler<E> {
    /// Binary heap ordered by `(time, key, seq)` with keys held inline.
    heap: Vec<Entry>,
    slots: Vec<Slot<E>>,
    free_head: u32,
    next_seq: u64,
    now: SimTime,
    live: usize,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    pub fn new() -> Self {
        Scheduler {
            heap: Vec::new(),
            slots: Vec::new(),
            free_head: NIL,
            next_seq: 0,
            now: SimTime::ZERO,
            live: 0,
        }
    }

    /// Current simulated time: the timestamp of the last event popped.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (scheduled, not-yet-popped, not-cancelled) events.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `event` at absolute time `at` with the neutral tie-break
    /// key `0` (insertion order resolves same-instant events).
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        self.schedule_keyed(at, 0, event)
    }

    /// Schedule `event` at absolute time `at` under tie-break `key`.
    ///
    /// Same-instant events pop in ascending `key` order regardless of the
    /// order they were scheduled in; only same-`(time, key)` events fall
    /// back to insertion order. A content-derived key therefore makes the
    /// pop order independent of *who* inserted the event — the determinism
    /// contract the cluster-sharded engine relies on (DESIGN.md §2.8).
    ///
    /// # Panics
    /// Panics in debug builds if `at` is in the past — the engine never
    /// rewrites history.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) -> EventHandle {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: at={at} now={now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next_free;
            slot.seq = seq;
            slot.next_free = NIL;
            slot.event = Some(event);
            idx
        } else {
            let idx = self.slots.len() as u32;
            assert!(idx != NIL, "slab arena exhausted");
            self.slots.push(Slot {
                seq,
                generation: 0,
                next_free: NIL,
                event: Some(event),
            });
            idx
        };
        self.live += 1;
        self.heap.push(Entry {
            packed: ((at.as_ps() as u128) << 64) | key as u128,
            seq,
            slot: idx,
        });
        self.sift_up(self.heap.len() - 1);
        EventHandle::new(idx, self.slots[idx as usize].generation)
    }

    /// Cancel a previously scheduled event. Returns the event if it was
    /// still pending, `None` if it already fired or was already cancelled.
    ///
    /// O(1): the slot is freed immediately (its heap entry turns stale and
    /// is dropped when it surfaces — `seq` no longer matches).
    pub fn cancel(&mut self, handle: EventHandle) -> Option<E> {
        let idx = handle.slot();
        let slot = self.slots.get_mut(idx as usize)?;
        if slot.generation != handle.generation() {
            return None;
        }
        let taken = slot.event.take();
        if taken.is_some() {
            self.live -= 1;
            self.release(idx);
        }
        taken
    }

    /// Does the heap entry still name the event it was pushed for?
    #[inline]
    fn is_live(&self, e: &Entry) -> bool {
        let s = &self.slots[e.slot as usize];
        s.seq == e.seq && s.event.is_some()
    }

    /// Timestamp of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_stale();
        self.heap.first().map(Entry::time)
    }

    /// `(time, key)` of the next live event, if any — the cross-shard
    /// comparison key the sharded engine uses to locate the globally
    /// minimal event without popping it.
    pub fn peek_keyed(&mut self) -> Option<(SimTime, u64)> {
        self.skip_stale();
        self.heap.first().map(|e| (e.time(), e.key()))
    }

    /// Pop the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(t, _, e)| (t, e))
    }

    /// Pop the next event together with its tie-break key.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        loop {
            let entry = *self.heap.first()?;
            self.remove_top();
            if !self.is_live(&entry) {
                continue; // stale: the event was cancelled
            }
            let event = self.slots[entry.slot as usize].event.take().unwrap();
            self.release(entry.slot);
            self.live -= 1;
            let time = entry.time();
            debug_assert!(time >= self.now);
            self.now = time;
            return Some((time, entry.key(), event));
        }
    }

    /// Return a consumed slot to the free list, invalidating its handles.
    #[inline]
    fn release(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.seq = u64::MAX;
        slot.generation = slot.generation.wrapping_add(1);
        slot.next_free = self.free_head;
        self.free_head = idx;
    }

    /// Drop stale entries sitting at the heap top so `peek_time` sees a
    /// live event.
    fn skip_stale(&mut self) {
        while let Some(e) = self.heap.first() {
            if self.is_live(e) {
                return;
            }
            self.remove_top();
        }
    }

    /// Remove the root heap entry, restoring the heap invariant by
    /// bottom-up deletion (see the module docs): the hole sinks to a leaf
    /// with one branch-free compare per level, then the last entry sifts
    /// up from it.
    fn remove_top(&mut self) {
        let last = self.heap.pop().expect("remove_top on empty heap");
        let len = self.heap.len();
        if len == 0 {
            return;
        }
        let mut pos = 0;
        let mut child = 1;
        while child + 1 < len {
            child += self.heap[child + 1].before(&self.heap[child]) as usize;
            self.heap[pos] = self.heap[child];
            pos = child;
            child = 2 * pos + 1;
        }
        if child < len {
            self.heap[pos] = self.heap[child];
            pos = child;
        }
        self.heap[pos] = last;
        self.sift_up(pos);
    }

    fn sift_up(&mut self, mut pos: usize) {
        let moved = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !moved.before(&self.heap[parent]) {
                break;
            }
            self.heap[pos] = self.heap[parent];
            pos = parent;
        }
        self.heap[pos] = moved;
    }

    /// Drain all remaining events in deterministic order (for shutdown and
    /// for tests).
    pub fn drain(&mut self) -> Vec<(SimTime, E)> {
        let mut out = Vec::with_capacity(self.live);
        while let Some(item) = self.pop() {
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_us(5), 5u32);
        s.schedule(SimTime::from_us(1), 1u32);
        s.schedule(SimTime::from_us(3), 3u32);
        let order: Vec<u32> = s.drain().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut s = Scheduler::new();
        let t = SimTime::from_us(7);
        for i in 0..100u32 {
            s.schedule(t, i);
        }
        let order: Vec<u32> = s.drain().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_us(2), ());
        s.schedule(SimTime::from_us(9), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_us(2));
        s.pop();
        assert_eq!(s.now(), SimTime::from_us(9));
    }

    #[test]
    fn cancel_removes_event() {
        let mut s = Scheduler::new();
        let h1 = s.schedule(SimTime::from_us(1), "a");
        s.schedule(SimTime::from_us(2), "b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.cancel(h1), Some("a"));
        assert_eq!(s.len(), 1);
        // double-cancel is a no-op
        assert_eq!(s.cancel(h1), None);
        let order: Vec<&str> = s.drain().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b"]);
    }

    #[test]
    fn cancel_after_fire_is_none() {
        let mut s = Scheduler::new();
        let h = s.schedule(SimTime::from_us(1), 42);
        s.pop();
        assert_eq!(s.cancel(h), None);
    }

    #[test]
    fn stale_handle_cannot_cancel_recycled_slot() {
        let mut s = Scheduler::new();
        let h = s.schedule(SimTime::from_us(1), 1u32);
        s.pop();
        // The slot is recycled for a new event; the old handle must not
        // reach it.
        let h2 = s.schedule(SimTime::from_us(2), 2u32);
        assert_eq!(h.slot(), h2.slot(), "slot should be recycled");
        assert_eq!(s.cancel(h), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.cancel(h2), Some(2));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut s = Scheduler::new();
        let h = s.schedule(SimTime::from_us(1), ());
        s.schedule(SimTime::from_us(5), ());
        s.cancel(h);
        assert_eq!(s.peek_time(), Some(SimTime::from_us(5)));
    }

    #[test]
    fn slot_arena_is_bounded_by_peak_live() {
        let mut s = Scheduler::new();
        let mut t = SimTime::ZERO;
        // Steady-state traffic: 100 live events at a time, 5000 total.
        for i in 0..100u64 {
            t += SimDuration::from_ns(1);
            s.schedule(t, i);
        }
        for round in 0..49u64 {
            for i in 0..100u64 {
                t += SimDuration::from_ns(1);
                s.schedule(t, round * 100 + i);
            }
            for _ in 0..100 {
                s.pop().unwrap();
            }
        }
        assert_eq!(s.slots.len(), 200, "arena must recycle, not grow");
        while s.pop().is_some() {}
        assert!(s.is_empty());
        // Scheduling still works after heavy recycling.
        s.schedule(t + SimDuration::from_ns(1), 0);
        assert_eq!(s.pop().map(|(_, e)| e), Some(0));
    }

    #[test]
    fn keyed_schedule_orders_same_instant_events_by_key_not_insertion() {
        let t = SimTime::from_us(3);
        // Two insertion orders of the same keyed events pop identically.
        let run = |perm: &[(u64, &'static str)]| {
            let mut s = Scheduler::new();
            for &(key, ev) in perm {
                s.schedule_keyed(t, key, ev);
            }
            s.schedule(SimTime::from_us(1), "first");
            assert_eq!(s.peek_keyed(), Some((SimTime::from_us(1), 0)));
            s.drain().into_iter().map(|(_, e)| e).collect::<Vec<_>>()
        };
        let a = run(&[(2, "b"), (9, "c"), (1, "a")]);
        let b = run(&[(9, "c"), (1, "a"), (2, "b")]);
        assert_eq!(a, vec!["first", "a", "b", "c"]);
        assert_eq!(a, b);
        // Equal (time, key) still resolves in insertion order.
        let mut s = Scheduler::new();
        s.schedule_keyed(t, 5, "x");
        s.schedule_keyed(t, 5, "y");
        let order: Vec<&str> = s.drain().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["x", "y"]);
    }

    #[test]
    fn interleaved_schedule_pop_is_deterministic() {
        let run = || {
            let mut s = Scheduler::new();
            let mut log = Vec::new();
            s.schedule(SimTime::from_ns(10), 0u64);
            while let Some((t, e)) = s.pop() {
                log.push((t, e));
                if e < 20 {
                    // Two children at the same future instant.
                    s.schedule(t + SimDuration::from_ns(5), 2 * e + 1);
                    s.schedule(t + SimDuration::from_ns(5), 2 * e + 2);
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
