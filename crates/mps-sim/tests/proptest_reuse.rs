//! Checkpoints overwrite the previous checkpoint's buffers: `PeerMap` and
//! `Inbox` have hand-written `clone_from`s that reuse the outer `Vec` and
//! every inner buffer (a derived `Clone` never forwards `clone_from`).
//! Over arbitrary pairs, `dst.clone_from(&src)` must equal `src.clone()`
//! for destinations with more peers, fewer peers and longer per-peer
//! vectors than the source, so no stale tail can survive.

use det_sim::SimDuration;
use mps_sim::{Inbox, Message, PbMeta, PeerMap, Rank, Tag};
use proptest::prelude::*;

/// `(peer, length)` per entry; later entries for a peer extend it.
type Shape = Vec<(u32, u8)>;

fn shape() -> impl Strategy<Value = Shape> {
    prop::collection::vec((0u32..6, 0u8..6), 0..10)
}

fn map_of(shape: &Shape, extra: u8) -> PeerMap<Vec<u64>> {
    let mut m = PeerMap::new();
    for (i, &(peer, len)) in shape.iter().enumerate() {
        let v: &mut Vec<u64> = m.get_or_default(Rank(peer));
        v.extend((0..u64::from(len + extra)).map(|j| 100 * i as u64 + j));
    }
    m
}

fn inbox_of(shape: &Shape, extra: u8) -> Inbox {
    let mut ib = Inbox::new();
    let mut seq = 0u64;
    for &(peer, len) in shape {
        for _ in 0..len + extra {
            seq += 1;
            let msg = Message {
                src: Rank(peer),
                dst: Rank(9),
                tag: Tag(peer % 2),
                bytes: seq,
                payload: seq,
                channel_seq: seq,
                meta: PbMeta::default(),
                replayed: false,
            };
            ib.push(msg, seq, SimDuration::from_ps(seq));
        }
    }
    ib
}

/// Every peer of `shape`, and then some.
fn grown(shape: &Shape) -> Shape {
    let mut more = shape.clone();
    more.extend((0..6).map(|p| (p, 2)));
    more
}

fn check_clone_from<T: Clone + PartialEq + std::fmt::Debug>(src: &T, dsts: &[T]) {
    for dst in dsts {
        let mut reused = dst.clone();
        reused.clone_from(src);
        prop_assert_eq!(&reused, &src.clone());
    }
}

proptest! {
    /// Destinations: an arbitrary other map (more or fewer peers), the
    /// same peers with 3 more values each, a superset of the peers, and
    /// an empty map; and the reverse copy into the source's shape.
    #[test]
    fn peer_map_clone_from_equals_clone(a in shape(), b in shape()) {
        let src = map_of(&a, 0);
        let dsts = [map_of(&b, 0), map_of(&a, 3), map_of(&grown(&a), 1), PeerMap::new()];
        check_clone_from(&src, &dsts);
        check_clone_from(&map_of(&b, 0), &[src]);
    }

    #[test]
    fn inbox_clone_from_equals_clone(a in shape(), b in shape()) {
        let src = inbox_of(&a, 0);
        let dsts = [inbox_of(&b, 0), inbox_of(&a, 3), inbox_of(&grown(&a), 1), Inbox::new()];
        check_clone_from(&src, &dsts);
        check_clone_from(&inbox_of(&b, 0), &[src]);
    }

    /// The filtered copy a checkpoint takes equals filtering a clone.
    #[test]
    fn inbox_clone_kept_from_equals_filtered_clone(a in shape(), b in shape(), keep in 0u32..6) {
        let src = inbox_of(&a, 0);
        let mut reused = inbox_of(&b, 2);
        reused.clone_kept_from(&src, |m| m.src.0 != keep);
        let expected: Vec<_> = src.iter().filter(|x| x.msg.src.0 != keep).copied().collect();
        prop_assert_eq!(reused.iter().copied().collect::<Vec<_>>(), expected);
    }
}
