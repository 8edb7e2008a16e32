//! Per-peer tables on the per-message path (DESIGN.md §2.1).
//!
//! Channel sequence numbers, HydEE's RPP and its sender log are keyed by
//! peer rank, touched on every send or delivery and copied into every
//! checkpoint, and a rank has few peers. A sorted `Vec<(Rank, V)>` is a
//! binary search per lookup and iterates in rank order like the
//! `BTreeMap` it replaces. It grows as channels are first used: no
//! channel table is built at set-up. The engine's FIFO stamps and the
//! trace oracle's identities are per-sender tables of the same kind; the
//! FIFO stamps key by [`crate::Endpoint`], because control traffic also
//! runs to and from auxiliary endpoints.
//!
//! A checkpoint overwrites the previous one with `clone_from`, which
//! reuses the outer `Vec` and, entry by entry, each value's own buffers
//! (`V::clone_from`). A derived `Clone` would not: its `clone_from` is a
//! fresh `clone()`.

use crate::types::Rank;

/// A map from peer `K` (a rank unless stated) to `V`, stored as a `Vec`
/// sorted by peer.
#[derive(Debug, PartialEq, Eq)]
pub struct PeerMap<V, K = Rank> {
    entries: Vec<(K, V)>,
}

impl<V: Clone, K: Copy> Clone for PeerMap<V, K> {
    fn clone(&self) -> Self {
        PeerMap {
            entries: self.entries.clone(),
        }
    }

    /// Overwrite `self` with `src`, reusing its storage: the first
    /// `min(len)` entries take `src`'s values through `V::clone_from`,
    /// surplus entries are dropped and missing ones cloned.
    fn clone_from(&mut self, src: &Self) {
        self.entries.truncate(src.entries.len());
        let (head, tail) = src.entries.split_at(self.entries.len());
        for ((r, v), (sr, sv)) in self.entries.iter_mut().zip(head) {
            *r = *sr;
            v.clone_from(sv);
        }
        self.entries.extend_from_slice(tail);
    }
}

impl<V, K> Default for PeerMap<V, K> {
    fn default() -> Self {
        PeerMap {
            entries: Vec::new(),
        }
    }
}

impl<V, K: Ord + Copy + std::fmt::Debug> PeerMap<V, K> {
    pub fn new() -> Self {
        PeerMap::default()
    }

    #[inline]
    fn find(&self, peer: K) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&peer, |&(r, _)| r)
    }

    #[inline]
    pub fn get(&self, peer: K) -> Option<&V> {
        self.find(peer).ok().map(|i| &self.entries[i].1)
    }

    #[inline]
    pub fn get_mut(&mut self, peer: K) -> Option<&mut V> {
        self.find(peer).ok().map(|i| &mut self.entries[i].1)
    }

    /// The entry for `peer`, inserted in peer order as `V::default()` if
    /// absent.
    #[inline]
    pub fn get_or_default(&mut self, peer: K) -> &mut V
    where
        V: Default,
    {
        let i = self.find(peer).unwrap_or_else(|i| {
            self.entries.insert(i, (peer, V::default()));
            i
        });
        &mut self.entries[i].1
    }

    /// Remove every entry, keeping the storage.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append `entries`, which must ascend in peer order and follow every
    /// present entry: a rebuild after [`PeerMap::clear`] that needs no
    /// search.
    pub fn extend_sorted(&mut self, entries: impl IntoIterator<Item = (K, V)>) {
        for (peer, v) in entries {
            debug_assert!(
                self.entries.last().is_none_or(|&(last, _)| last < peer),
                "extend_sorted: {peer:?} does not ascend"
            );
            self.entries.push((peer, v));
        }
    }

    /// Entries in ascending peer order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.entries.iter().map(|(r, v)| (*r, v))
    }

    /// Values in ascending peer order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Peers in ascending peer order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.entries.iter().map(|&(r, _)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(m: &PeerMap<u32>) -> Vec<(u32, u32)> {
        m.iter().map(|(r, &v)| (r.0, v)).collect()
    }

    #[test]
    fn inserts_keep_rank_order() {
        let mut m = PeerMap::new();
        for r in [5u32, 1, 9, 3, 7] {
            *m.get_or_default(Rank(r)) = r * 10;
        }
        assert_eq!(m.keys().collect::<Vec<_>>(), [1, 3, 5, 7, 9].map(Rank));
        *m.get_or_default(Rank(3)) += 1;
        assert_eq!(pairs(&m), vec![(1, 10), (3, 31), (5, 50), (7, 70), (9, 90)]);
    }

    #[test]
    fn get_or_default_inserts_once() {
        let mut m: PeerMap<Vec<u32>> = PeerMap::new();
        m.get_or_default(Rank(4)).push(1);
        m.get_or_default(Rank(2)).push(2);
        m.get_or_default(Rank(4)).push(3);
        assert_eq!(m.keys().collect::<Vec<_>>(), [Rank(2), Rank(4)]);
        assert_eq!(m.get(Rank(4)), Some(&vec![1, 3]));
        assert_eq!(m.get(Rank(2)), Some(&vec![2]));
    }

    #[test]
    fn clear_and_extend_sorted_rebuild() {
        let mut m = PeerMap::new();
        *m.get_or_default(Rank(8)) = 80u32;
        m.clear();
        m.extend_sorted([(Rank(1), 10), (Rank(4), 40)]);
        assert_eq!(pairs(&m), vec![(1, 10), (4, 40)]);
        assert_eq!(m.get(Rank(4)), Some(&40));
    }

    #[test]
    fn clone_from_reuses_and_truncates() {
        let mut src: PeerMap<Vec<u32>> = PeerMap::new();
        src.get_or_default(Rank(3)).push(1);
        let mut dst: PeerMap<Vec<u32>> = PeerMap::new();
        dst.get_or_default(Rank(1)).extend([7, 7, 7]);
        dst.get_or_default(Rank(2)).push(9);
        let reused = dst.get(Rank(1)).unwrap().as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.get(Rank(3)).unwrap().as_ptr(), reused);
    }

    #[test]
    fn missing_keys_are_absent() {
        let mut m = PeerMap::new();
        *m.get_or_default(Rank(6)) = 60;
        *m.get_or_default(Rank(2)) = 20;
        for r in [0u32, 1, 3, 5, 7, u32::MAX] {
            assert_eq!(m.get(Rank(r)), None);
            assert!(m.get_mut(Rank(r)).is_none());
        }
        *m.get_mut(Rank(6)).unwrap() += 1;
        assert_eq!(pairs(&m), vec![(2, 20), (6, 61)]);
        assert_eq!(PeerMap::<u32>::new().iter().count(), 0);
    }
}
