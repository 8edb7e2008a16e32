//! The RPP (Received Per Phase) table — Algorithm 1, lines 13–14.
//!
//! Each process keeps, per incoming inter-cluster channel, the date of the
//! last received message (`maxdate`) and the phase of *every* received
//! message keyed by its sender date. After a failure the table yields:
//!
//! * the `LastDate` answer sent to a restarted peer (its `maxdate` on that
//!   channel — the suppression horizon for the peer's re-executed sends);
//! * the set of **orphan messages**: entries whose sender date exceeds the
//!   date the sender rolled back to, together with their phases (the
//!   recovery process counts these per phase).
//!
//! Dates are *sender-domain*: the entry for channel `q -> me` is keyed by
//! `q`'s event dates (see `DESIGN.md` §3 on date domains).
//!
//! ## Layout
//!
//! A [`PeerMap`] of channels, each a date-ascending `Vec` of `(date, phase)`:
//! FIFO delivery makes `record` an append, and `orphan_phases` and `prune`
//! cut the list at a binary search.

use mps_sim::{PeerMap, Rank};

/// State of one incoming channel.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ChannelRpp {
    /// Sender date of the most recent message received on this channel.
    pub maxdate: u64,
    /// `(sender date, phase)` of each received message, date-ascending.
    pub phases: Vec<(u64, u64)>,
}

impl Clone for ChannelRpp {
    fn clone(&self) -> Self {
        ChannelRpp {
            maxdate: self.maxdate,
            phases: self.phases.clone(),
        }
    }

    /// Overwrite `self` with `src`, reusing its phase buffer.
    fn clone_from(&mut self, src: &Self) {
        self.maxdate = src.maxdate;
        self.phases.clone_from(&src.phases);
    }
}

/// Received-Per-Phase table of one process.
///
/// A checkpoint copies it over its previous copy with `clone_from`, which
/// reuses the channel table and every channel's phase buffer.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Rpp {
    channels: PeerMap<ChannelRpp>,
}

impl Clone for Rpp {
    fn clone(&self) -> Self {
        Rpp {
            channels: self.channels.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.channels.clone_from(&src.channels);
    }
}

impl Rpp {
    pub fn new() -> Self {
        Rpp::default()
    }

    /// Record reception of an inter-cluster message from `src` carrying
    /// sender date `date` and phase `phase`.
    ///
    /// FIFO channels deliver dates in increasing order; the debug assert
    /// catches protocol violations.
    pub fn record(&mut self, src: Rank, date: u64, phase: u64) {
        let ch = self.channels.get_or_default(src);
        // Strictly monotone, even when GC has emptied `phases`: an empty
        // phase list says nothing about what was already received —
        // `maxdate` is the FIFO horizon and may never move backwards, or
        // a restarted sender's suppression window silently shrinks.
        debug_assert!(
            date > ch.maxdate,
            "non-monotone date {date} after maxdate {} on channel from {src}",
            ch.maxdate
        );
        ch.maxdate = ch.maxdate.max(date);
        ch.phases.push((date, phase));
    }

    /// `maxdate` for the channel from `src` (0 when nothing received).
    pub fn maxdate(&self, src: Rank) -> u64 {
        self.channels.get(src).map(|c| c.maxdate).unwrap_or(0)
    }

    /// Phases of messages from `src` with sender date strictly greater
    /// than `rolled_back_to` — the orphans on that channel if `src` rolls
    /// its date back to `rolled_back_to` (Algorithm 3, lines 13–14).
    pub fn orphan_phases(&self, src: Rank, rolled_back_to: u64) -> Vec<u64> {
        self.channels
            .get(src)
            .map(|c| {
                let start = c.phases.partition_point(|&(d, _)| d <= rolled_back_to);
                c.phases[start..].iter().map(|&(_, p)| p).collect()
            })
            .unwrap_or_default()
    }

    /// Drop entries for channel `src` with date strictly below `below`
    /// (garbage collection, §III-E). Returns the number pruned.
    pub fn prune(&mut self, src: Rank, below: u64) -> usize {
        match self.channels.get_mut(src) {
            None => 0,
            Some(ch) => {
                let cut = ch.phases.partition_point(|&(d, _)| d < below);
                ch.phases.drain(..cut);
                cut
            }
        }
    }

    /// Channels with at least one recorded message, in rank order.
    pub fn sources(&self) -> impl Iterator<Item = Rank> + '_ {
        self.channels.keys()
    }

    /// `(source, maxdate)` of every channel, in rank order.
    pub fn maxdates(&self) -> impl Iterator<Item = (Rank, u64)> + '_ {
        self.channels.iter().map(|(r, c)| (r, c.maxdate))
    }

    /// Total entries held (for memory accounting).
    pub fn len(&self) -> usize {
        self.channels.iter().map(|(_, c)| c.phases.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_maxdate() {
        let mut rpp = Rpp::new();
        rpp.record(Rank(3), 5, 1);
        rpp.record(Rank(3), 9, 2);
        assert_eq!(rpp.maxdate(Rank(3)), 9);
        assert_eq!(rpp.maxdate(Rank(4)), 0, "untouched channel is 0");
    }

    #[test]
    fn orphans_are_strictly_after_rollback_date() {
        let mut rpp = Rpp::new();
        rpp.record(Rank(1), 5, 1);
        rpp.record(Rank(1), 8, 2);
        rpp.record(Rank(1), 12, 3);
        assert_eq!(rpp.orphan_phases(Rank(1), 8), vec![3]);
        assert_eq!(rpp.orphan_phases(Rank(1), 5), vec![2, 3]);
        assert_eq!(rpp.orphan_phases(Rank(1), 12), Vec::<u64>::new());
        assert_eq!(rpp.orphan_phases(Rank(1), 0), vec![1, 2, 3]);
        assert_eq!(rpp.orphan_phases(Rank(9), 0), Vec::<u64>::new());
    }

    #[test]
    fn prune_removes_below() {
        let mut rpp = Rpp::new();
        for d in [2u64, 4, 6, 8] {
            rpp.record(Rank(0), d, d);
        }
        assert_eq!(rpp.prune(Rank(0), 6), 2);
        assert_eq!(rpp.len(), 2);
        // maxdate unaffected by pruning
        assert_eq!(rpp.maxdate(Rank(0)), 8);
        assert_eq!(rpp.prune(Rank(7), 100), 0);
    }

    #[test]
    fn maxdate_stays_monotone_after_gc_empties_the_channel() {
        // Regression: prune everything, then record a new (higher)
        // date. The old assert (`date > maxdate || phases.is_empty()`)
        // would also have admitted a STALE date here — and `maxdate`
        // must hold at its high-water mark throughout.
        let mut rpp = Rpp::new();
        rpp.record(Rank(2), 4, 1);
        rpp.record(Rank(2), 9, 2);
        assert_eq!(rpp.prune(Rank(2), 100), 2, "GC empties the channel");
        assert!(rpp.is_empty());
        assert_eq!(rpp.maxdate(Rank(2)), 9, "horizon survives GC");
        rpp.record(Rank(2), 11, 3);
        assert_eq!(rpp.maxdate(Rank(2)), 11);
        assert_eq!(rpp.orphan_phases(Rank(2), 9), vec![3]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-monotone date")]
    fn stale_date_after_gc_is_rejected() {
        let mut rpp = Rpp::new();
        rpp.record(Rank(0), 8, 1);
        rpp.prune(Rank(0), 100);
        // Empty phases no longer launder a regressed date past the
        // FIFO-monotonicity check.
        rpp.record(Rank(0), 5, 1);
    }

    #[test]
    fn clone_is_snapshot() {
        let mut rpp = Rpp::new();
        rpp.record(Rank(0), 1, 1);
        let snap = rpp.clone();
        rpp.record(Rank(0), 2, 1);
        assert_eq!(snap.len(), 1);
        assert_eq!(rpp.len(), 2);
        assert_eq!(snap.maxdate(Rank(0)), 1);
    }
}
