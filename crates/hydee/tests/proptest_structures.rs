//! Property tests on HydEE's core data structures: the RPP table, the
//! sender log, and the recovery process's phase-release engine.
//!
//! `Rpp` and `SenderLog` are flat (`PeerMap`s of sorted `Vec`s); the
//! `*_matches_btreemap_model` properties drive each through random
//! operation sequences beside a `BTreeMap` reference model and compare
//! every observable after every operation.
//!
//! Checkpoints overwrite the previous checkpoint's tables with a
//! hand-written `clone_from` that reuses every buffer; the
//! `*_clone_from_equals_clone` properties check it against a fresh
//! `clone()` into destinations with more peers, fewer peers and longer
//! per-peer vectors than the source, so no stale tail can survive.

use hydee::{LogEntry, RecoveryProcess, Rpp, SenderLog};
use mps_sim::{Rank, Tag};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Peers are drawn from a small range so channels are revisited.
const PEERS: u32 = 5;

/// RPP reference model: per source, `maxdate` and a date-keyed phase map.
type RppModel = BTreeMap<Rank, (u64, BTreeMap<u64, u64>)>;

fn assert_rpp_matches(rpp: &Rpp, model: &RppModel, cut: u64) {
    prop_assert_eq!(
        rpp.sources().collect::<Vec<_>>(),
        model.keys().copied().collect::<Vec<_>>(),
        "sources diverged"
    );
    let len: usize = model.values().map(|(_, phases)| phases.len()).sum();
    prop_assert_eq!(rpp.len(), len);
    prop_assert_eq!(rpp.is_empty(), len == 0);
    for src in (0..PEERS).map(Rank) {
        let (maxdate, phases) = model.get(&src).cloned().unwrap_or_default();
        prop_assert_eq!(rpp.maxdate(src), maxdate);
        for c in [0, cut, maxdate.saturating_sub(1), maxdate] {
            let expected: Vec<u64> = phases.range(c + 1..).map(|(_, &p)| p).collect();
            prop_assert_eq!(
                rpp.orphan_phases(src, c),
                expected,
                "orphans of {} after {}",
                src,
                c
            );
        }
    }
}

/// Sender-log reference model: per destination, a date-keyed entry map.
type LogModel = BTreeMap<Rank, BTreeMap<u64, LogEntry>>;

fn assert_log_matches(log: &SenderLog, model: &LogModel, cut: u64) {
    let all: Vec<LogEntry> = model.values().flat_map(|m| m.values().copied()).collect();
    prop_assert_eq!(
        log.iter().copied().collect::<Vec<_>>(),
        all.clone(),
        "iter order diverged"
    );
    prop_assert_eq!(log.messages(), all.len() as u64);
    prop_assert_eq!(log.bytes(), all.iter().map(|e| e.bytes).sum::<u64>());
    prop_assert_eq!(log.is_empty(), all.is_empty());
    for dst in (0..PEERS).map(Rank) {
        let expected: Vec<LogEntry> = model
            .get(&dst)
            .map(|m| m.range(cut + 1..).map(|(_, &e)| e).collect())
            .unwrap_or_default();
        prop_assert_eq!(log.replay_set(dst, cut), expected, "replay set to {}", dst);
    }
}

/// Per peer, how many entries to append (`0..`), then a GC cut.
type Shape = (Vec<(u32, u8)>, u64);

fn shape() -> impl Strategy<Value = Shape> {
    (prop::collection::vec((0u32..PEERS, 0u8..6), 0..8), 0u64..40)
}

/// A log with `n` entries per `(peer, n)` of `shape`, dates ascending,
/// pruned below the cut on every other destination.
fn log_of((counts, cut): &Shape, extra: u8) -> SenderLog {
    let mut log = SenderLog::new();
    let mut date = 0u64;
    for &(peer, n) in counts {
        for _ in 0..n + extra {
            date += 1;
            log.append(LogEntry {
                date,
                phase: date % 3 + 1,
                dst: Rank(peer),
                tag: Tag(peer),
                bytes: 8 * date,
                payload: date,
                channel_seq: date,
            });
        }
    }
    for peer in (0..PEERS).step_by(2) {
        log.prune(Rank(peer), *cut);
    }
    log
}

/// An RPP with `n` receptions per `(peer, n)` of `shape`, pruned below
/// the cut on every other channel.
fn rpp_of((counts, cut): &Shape, extra: u8) -> Rpp {
    let mut rpp = Rpp::new();
    let mut date = 0u64;
    for &(peer, n) in counts {
        for _ in 0..n + extra {
            date += 1;
            rpp.record(Rank(peer), date, date % 4 + 1);
        }
    }
    for peer in (1..PEERS).step_by(2) {
        rpp.prune(Rank(peer), *cut);
    }
    rpp
}

/// Every peer of `shape`, and then some: a superset with longer vectors.
fn grown((counts, cut): &Shape) -> Shape {
    let mut more = counts.clone();
    more.extend((0..PEERS).map(|p| (p, 2)));
    (more, *cut)
}

/// `dst.clone_from(src)` equals `src.clone()` for each destination.
fn check_clone_from<T: Clone + PartialEq + std::fmt::Debug>(src: &T, dsts: &[T]) {
    for dst in dsts {
        let mut reused = dst.clone();
        reused.clone_from(src);
        prop_assert_eq!(&reused, &src.clone());
    }
}

proptest! {
    /// Destinations: an arbitrary other log (more or fewer peers), the
    /// same peers with 3 more entries each, a superset of the peers, and
    /// an empty log; and the reverse copy into the source's shape.
    #[test]
    fn sender_log_clone_from_equals_clone(a in shape(), b in shape()) {
        let src = log_of(&a, 0);
        let dsts = [log_of(&b, 0), log_of(&a, 3), log_of(&grown(&a), 1), SenderLog::new()];
        check_clone_from(&src, &dsts);
        check_clone_from(&log_of(&b, 0), &[src]);
    }

    #[test]
    fn rpp_clone_from_equals_clone(a in shape(), b in shape()) {
        let src = rpp_of(&a, 0);
        let dsts = [rpp_of(&b, 0), rpp_of(&a, 3), rpp_of(&grown(&a), 1), Rpp::new()];
        check_clone_from(&src, &dsts);
        check_clone_from(&rpp_of(&b, 0), &[src]);
    }
}

proptest! {
    /// Ops: `(kind, peer, step, arg)`. Records advance the channel's date
    /// by `1 + step`, so dates stay strictly increasing per channel, as
    /// FIFO delivery guarantees.
    #[test]
    fn rpp_matches_btreemap_model(
        ops in prop::collection::vec((0u8..4, 0u32..PEERS, 0u64..4, 0u64..64), 0..200),
    ) {
        let mut rpp = Rpp::new();
        let mut model = RppModel::new();
        let mut last = BTreeMap::<Rank, u64>::new();
        for (kind, peer, step, arg) in ops {
            let src = Rank(peer);
            if kind < 3 {
                let date = last.get(&src).copied().unwrap_or(0) + 1 + step;
                last.insert(src, date);
                let phase = arg % 7 + 1;
                rpp.record(src, date, phase);
                let ch = model.entry(src).or_default();
                ch.0 = date;
                ch.1.insert(date, phase);
            } else {
                let expected = model
                    .get_mut(&src)
                    .map(|(_, phases)| {
                        let before = phases.len();
                        *phases = phases.split_off(&arg);
                        before - phases.len()
                    })
                    .unwrap_or(0);
                prop_assert_eq!(rpp.prune(src, arg), expected, "prune({}, {})", src, arg);
            }
            assert_rpp_matches(&rpp, &model, arg);
        }
        let snapshot = rpp.clone();
        assert_rpp_matches(&snapshot, &model, 0);
    }

    /// Ops: `(kind, peer, bytes, arg)`. Appends take the next date of the
    /// sending process, so dates increase per destination.
    #[test]
    fn sender_log_matches_btreemap_model(
        ops in prop::collection::vec((0u8..4, 0u32..PEERS, 1u64..100, 0u64..400), 0..200),
    ) {
        let mut log = SenderLog::new();
        let mut model = LogModel::new();
        let mut date = 0u64;
        for (kind, peer, bytes, arg) in ops {
            let dst = Rank(peer);
            if kind < 3 {
                date += 1 + arg % 3;
                let entry = LogEntry {
                    date,
                    phase: arg % 5 + 1,
                    dst,
                    tag: Tag(peer),
                    bytes,
                    payload: date * 31,
                    channel_seq: date,
                };
                log.append(entry);
                model.entry(dst).or_default().insert(date, entry);
            } else {
                let expected = model
                    .get_mut(&dst)
                    .map(|m| {
                        let kept = m.split_off(&(arg + 1));
                        let gone = std::mem::replace(m, kept);
                        (gone.len() as u64, gone.values().map(|e| e.bytes).sum())
                    })
                    .unwrap_or((0, 0));
                prop_assert_eq!(log.prune(dst, arg), expected, "prune({}, {})", dst, arg);
            }
            assert_log_matches(&log, &model, arg);
        }
        let snapshot = log.clone();
        assert_log_matches(&snapshot, &model, 0);
    }

    #[test]
    fn rpp_orphans_partition_on_rollback_date(
        dates in prop::collection::btree_set(1u64..10_000, 0..100),
        cut in 0u64..10_000,
    ) {
        let mut rpp = Rpp::new();
        for &d in &dates {
            rpp.record(Rank(1), d, d / 3 + 1);
        }
        let orphans = rpp.orphan_phases(Rank(1), cut);
        let expected = dates.iter().filter(|&&d| d > cut).count();
        prop_assert_eq!(orphans.len(), expected);
        if let Some(&max) = dates.iter().max() {
            prop_assert_eq!(rpp.maxdate(Rank(1)), max);
        }
    }

    #[test]
    fn rpp_prune_then_orphans_consistent(
        dates in prop::collection::btree_set(1u64..1_000, 1..60),
        prune_below in 0u64..1_000,
    ) {
        let mut rpp = Rpp::new();
        for &d in &dates {
            rpp.record(Rank(0), d, 1);
        }
        rpp.prune(Rank(0), prune_below);
        // Remaining entries are exactly dates >= prune_below.
        let remaining = rpp.orphan_phases(Rank(0), 0).len();
        let expected = dates.iter().filter(|&&d| d >= prune_below).count();
        prop_assert_eq!(remaining, expected);
    }

    #[test]
    fn log_replay_and_prune_are_complementary(
        dates in prop::collection::btree_set(1u64..10_000, 0..80),
        cut in 0u64..10_000,
    ) {
        let mut log = SenderLog::new();
        for &d in &dates {
            log.append(LogEntry {
                date: d,
                phase: 1,
                dst: Rank(2),
                tag: Tag(0),
                bytes: 10,
                payload: d,
                channel_seq: d,
            });
        }
        let replay: BTreeSet<u64> =
            log.replay_set(Rank(2), cut).iter().map(|e| e.date).collect();
        let expected_replay: BTreeSet<u64> =
            dates.iter().copied().filter(|&d| d > cut).collect();
        prop_assert_eq!(&replay, &expected_replay);
        // Pruning the complement leaves exactly the replay set.
        let (pruned_msgs, pruned_bytes) = log.prune(Rank(2), cut);
        prop_assert_eq!(pruned_msgs as usize, dates.len() - expected_replay.len());
        prop_assert_eq!(pruned_bytes, 10 * pruned_msgs);
        prop_assert_eq!(log.messages() as usize, expected_replay.len());
    }

    #[test]
    fn recovery_process_always_drains(
        own_phases in prop::collection::vec(1u64..20, 1..8),
        log_phases in prop::collection::vec(prop::collection::vec(1u64..20, 0..5), 1..8),
        orphan_phases in prop::collection::vec(prop::collection::vec(1u64..20, 0..5), 1..8),
    ) {
        // However reports arrive, once every reported orphan is notified
        // the RP must have released everything (deadlock-freedom at the
        // bookkeeping level — Theorem 2's engine).
        let n = own_phases.len();
        let log_phases: Vec<_> = (0..n)
            .map(|i| log_phases.get(i).cloned().unwrap_or_default())
            .collect();
        let orphan_phases: Vec<_> = (0..n)
            .map(|i| orphan_phases.get(i).cloned().unwrap_or_default())
            .collect();
        let mut rp = RecoveryProcess::new(n, 1);
        let mut notices = Vec::new();
        for (i, &p) in own_phases.iter().enumerate() {
            notices.extend(rp.on_own_phase(Rank(i as u32), p));
            notices.extend(rp.on_log_report(Rank(i as u32), &log_phases[i]));
            notices.extend(rp.on_orphan_report(&orphan_phases[i]));
        }
        prop_assert!(rp.reports_complete());
        // Feed back every orphan notification, lowest phases first (the
        // suppressors are released in phase order).
        let mut all_orphans: Vec<u64> =
            orphan_phases.iter().flatten().copied().collect();
        all_orphans.sort_unstable();
        for p in all_orphans {
            notices.extend(rp.on_orphan_notification(p));
        }
        prop_assert!(rp.done(), "outstanding: {}", rp.outstanding_orphans());
        // Every process got exactly one NotifySendMsg.
        let sendmsg_count = notices
            .iter()
            .filter(|n| matches!(n.ctl, hydee::HydeeCtl::NotifySendMsg { .. }))
            .count();
        prop_assert_eq!(sendmsg_count, n);
        // Log notices never exceed one per (process, phase) pair.
        let mut seen = BTreeSet::new();
        for notice in &notices {
            if let hydee::HydeeCtl::NotifySendLog { phase, .. } = notice.ctl {
                prop_assert!(seen.insert((notice.to, phase)), "duplicate log release");
            }
        }
    }

    #[test]
    fn recovery_process_releases_in_phase_order(
        orphans in prop::collection::vec(1u64..10, 1..6),
    ) {
        // One process per orphan phase, reporting that phase as its own:
        // releases must come lowest-phase-first as orphans clear.
        let mut sorted = orphans.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let mut rp = RecoveryProcess::new(n, 1);
        let mut released: Vec<u64> = Vec::new();
        let mut notices = Vec::new();
        for (i, &p) in sorted.iter().enumerate() {
            notices.extend(rp.on_own_phase(Rank(i as u32), p));
            notices.extend(rp.on_log_report(Rank(i as u32), &[]));
        }
        for (i, &p) in sorted.iter().enumerate() {
            let _ = i;
            notices.extend(rp.on_orphan_report(&[p]));
        }
        for notice in notices.drain(..) {
            if let hydee::HydeeCtl::NotifySendMsg { phase, .. } = notice.ctl {
                released.push(phase);
            }
        }
        for &p in &sorted {
            for notice in rp.on_orphan_notification(p) {
                if let hydee::HydeeCtl::NotifySendMsg { phase, .. } = notice.ctl {
                    released.push(phase);
                }
            }
        }
        prop_assert!(rp.done());
        let mut sorted_releases = released.clone();
        sorted_releases.sort_unstable();
        prop_assert_eq!(released, sorted_releases, "releases out of phase order");
    }
}
