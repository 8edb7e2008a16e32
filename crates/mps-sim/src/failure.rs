//! Fault-injection models — the engine's stochastic failure surface.
//!
//! A [`FailureModel`] is a *deterministic, seed-driven generator* of
//! fail-stop failure events. The engine pulls from it lazily: one event
//! is outstanding at a time, and after that event fires the model is
//! asked for the next one (`next_after`). This replaces the materialised
//! `&[FailureEvent]` list that earlier revisions threaded positionally
//! through every run entry point, the same move the lazy `GenProgram`
//! made for op streams (DESIGN.md §2.2) — and it is what admits *stochastic*,
//! *correlated* and *cascading* failure regimes, which no finite
//! hand-written list can express.
//!
//! ## Contract (DESIGN.md §2.3)
//!
//! * **Determinism in the seed.** A model's construction parameters
//!   (including its seed) fully determine the event sequence. Driving the
//!   same model twice yields identical schedules; running the same
//!   scenario twice yields bit-for-bit identical digests. No model may
//!   consult wall-clock time, thread identity, or any other ambient
//!   state.
//! * **Laziness.** `next_after(prev)` is called once before the run
//!   (with [`SimTime::ZERO`]) and then once after each fired failure
//!   (with that failure's time). Events whose time is in the past are
//!   clamped to *now* by the engine, never dropped.
//! * **Monotonicity.** Returned times must be non-decreasing across
//!   calls. Ranks failing *concurrently* must share one
//!   [`FailureEvent`]; separate events model sequential failures.
//! * **Closed-form metadata.** [`FailureModel::expected_failures`]
//!   answers "how many failures should this run expect by `horizon`"
//!   without driving the generator, and
//!   [`FailureModel::descriptor`] is a stable identity string for
//!   records and baselines (two models with equal descriptors must
//!   produce equal schedules).
//!
//! The arithmetic below uses only IEEE-754 core operations (`+ - * /`,
//! comparisons, bit twiddling) — never `libm` (`ln`, `exp`, ...), whose
//! last-ulp behaviour differs across platforms and would leak into
//! failure times and then into the digest gate.

use crate::cluster::ClusterMap;
use crate::types::Rank;
use det_sim::{DetRng, SimDuration, SimTime};
use std::collections::VecDeque;

/// A fail-stop failure injection: `ranks` crash concurrently at `at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureEvent {
    pub at: SimTime,
    pub ranks: Vec<Rank>,
}

impl FailureEvent {
    pub fn at_ms(ms: u64, ranks: Vec<Rank>) -> Self {
        FailureEvent {
            at: SimTime::from_ms(ms),
            ranks,
        }
    }

    pub fn at_us(us: u64, ranks: Vec<Rank>) -> Self {
        FailureEvent {
            at: SimTime::from_us(us),
            ranks,
        }
    }

    /// Descriptor fragment: exact picosecond time plus the rank list.
    fn descriptor(&self) -> String {
        let ranks = self
            .ranks
            .iter()
            .map(|r| r.0.to_string())
            .collect::<Vec<_>>()
            .join("+");
        format!("{}ps:r{ranks}", self.at.as_ps())
    }
}

/// Deterministic, seed-driven failure generator (object-safe).
///
/// See the [module docs](self) for the full contract.
pub trait FailureModel: Send + Sync {
    /// The next failure event at or after `prev` (the previously returned
    /// event's time; [`SimTime::ZERO`] on the first call), or `None` when
    /// the model is exhausted.
    fn next_after(&mut self, prev: SimTime) -> Option<FailureEvent>;

    /// Closed-form expected number of failure events injected by
    /// `horizon`, computed without driving the generator.
    fn expected_failures(&self, horizon: SimTime) -> f64;

    /// Stable identity string (records, baselines, scenario labels).
    /// Equal descriptors imply equal schedules.
    fn descriptor(&self) -> String;
}

/// Estimate the machine MTBF (mean time between failure *events*) from a
/// model's closed-form [`FailureModel::expected_failures`], without
/// driving the generator. Probes a geometric ladder of horizons and
/// keeps the highest implied rate: for a Poisson-family model any
/// horizon below its event cap recovers the true rate, while for a
/// fixed schedule the densest prefix wins (a single event at 195 ms
/// probes as one failure per ~1 s, not one per hour). Returns `None`
/// when no probe expects any failure — a clean run has no MTBF.
///
/// Deterministic: pure f64 ratios of integer picosecond horizons.
pub fn estimate_mtbf(model: &dyn FailureModel) -> Option<SimDuration> {
    const PROBES_PS: [u64; 9] = [
        1_000_000_000,         // 1 ms
        10_000_000_000,        // 10 ms
        100_000_000_000,       // 100 ms
        1_000_000_000_000,     // 1 s
        10_000_000_000_000,    // 10 s
        100_000_000_000_000,   // 100 s
        1_000_000_000_000_000, // 1000 s
        3_600_000_000_000_000, // 1 h
        // The full representable horizon (~213 days): a model whose
        // only events lie beyond every finite probe must still report
        // *some* failure rate — `None` means "no failures ever", and a
        // Young/Daly consumer would otherwise schedule no checkpoints
        // against a failure that IS coming.
        u64::MAX,
    ];
    let mut best_rate = 0.0f64; // events per picosecond
    for &h in &PROBES_PS {
        let expected = model.expected_failures(SimTime::from_ps(h));
        if expected > 0.0 {
            best_rate = best_rate.max(expected / h as f64);
        }
    }
    (best_rate > 0.0).then(|| SimDuration::from_ps((1.0 / best_rate) as u64))
}

// ---------------------------------------------------------------------------
// Deterministic exponential sampling
// ---------------------------------------------------------------------------

/// Natural logarithm over `(0, 1]`, built from IEEE core operations only
/// (frexp-style decomposition + atanh series), so the result is
/// bit-identical on every platform — unlike `f64::ln`, which routes to
/// the platform `libm`.
fn det_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x <= 1.0, "det_ln domain is (0, 1], got {x}");
    const LN2: f64 = core::f64::consts::LN_2;
    let bits = x.to_bits();
    let exp = (((bits >> 52) & 0x7ff) as i64) - 1023;
    // Re-bias the mantissa into [1, 2).
    let m = f64::from_bits((bits & ((1u64 << 52) - 1)) | (1023u64 << 52));
    // ln(m) = 2 atanh((m-1)/(m+1)); t <= 1/3 so the series gains ~0.95
    // decimal digits per term — 26 terms overshoot f64 precision.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut term = t;
    let mut sum = 0.0;
    let mut k = 1.0;
    for _ in 0..26 {
        sum += term / k;
        term *= t2;
        k += 2.0;
    }
    (exp as f64) * LN2 + 2.0 * sum
}

/// One exponential inter-arrival draw with the given mean, floored at
/// 1 ps so the sequence of failure times is strictly increasing.
fn exp_draw(rng: &mut DetRng, mean_ps: f64) -> SimDuration {
    let u = rng.gen_f64(); // [0, 1)
    let d = -det_ln(1.0 - u) * mean_ps;
    // `as` saturates on overflow — deterministic either way.
    SimDuration::from_ps((d as u64).max(1))
}

// ---------------------------------------------------------------------------
// FixedSchedule — the equivalence oracle
// ---------------------------------------------------------------------------

/// A hand-written failure list, kept as the equivalence oracle for the
/// lazy model-driven engine path: driving a [`FixedSchedule`] reproduces
/// the digests of the old eager `inject_failure` list bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct FixedSchedule {
    events: Vec<FailureEvent>,
    cursor: usize,
}

impl FixedSchedule {
    /// Events are replayed in time order (stable sort preserves the
    /// relative order of same-time entries).
    pub fn new(mut events: Vec<FailureEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FixedSchedule { events, cursor: 0 }
    }

    /// The empty schedule (clean run).
    pub fn none() -> Self {
        FixedSchedule::default()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl FailureModel for FixedSchedule {
    fn next_after(&mut self, _prev: SimTime) -> Option<FailureEvent> {
        let ev = self.events.get(self.cursor).cloned();
        self.cursor += ev.is_some() as usize;
        ev
    }

    fn expected_failures(&self, horizon: SimTime) -> f64 {
        self.events.iter().filter(|e| e.at <= horizon).count() as f64
    }

    fn descriptor(&self) -> String {
        if self.events.is_empty() {
            "none".into()
        } else {
            let inner = self
                .events
                .iter()
                .map(FailureEvent::descriptor)
                .collect::<Vec<_>>()
                .join(",");
            format!("fixed[{inner}]")
        }
    }
}

// ---------------------------------------------------------------------------
// PoissonPerRank
// ---------------------------------------------------------------------------

/// Independent exponential inter-arrival failures per rank (each rank an
/// MTBF of `mtbf`), realised as the equivalent superposed Poisson
/// process: aggregate rate `n_ranks / mtbf`, victim uniform per event.
#[derive(Debug, Clone)]
pub struct PoissonPerRank {
    n_ranks: u32,
    mtbf: SimDuration,
    seed: u64,
    max_failures: u32,
    emitted: u32,
    rng: DetRng,
}

impl PoissonPerRank {
    /// # Panics
    /// Panics if `n_ranks == 0` or `mtbf` is zero.
    pub fn new(n_ranks: usize, mtbf: SimDuration, seed: u64) -> Self {
        assert!(n_ranks > 0, "PoissonPerRank needs at least one rank");
        assert!(!mtbf.is_zero(), "PoissonPerRank needs a positive MTBF");
        PoissonPerRank {
            n_ranks: n_ranks as u32,
            mtbf,
            seed,
            max_failures: u32::MAX,
            emitted: 0,
            rng: DetRng::new(seed ^ 0x4661_494C_5053_4E31), // "FaILPSN1"
        }
    }

    /// Cap the number of injected events (bounds run time under small
    /// MTBFs; the cap is part of the descriptor).
    pub fn with_max_failures(mut self, max: u32) -> Self {
        self.max_failures = max;
        self
    }

    fn mean_gap_ps(&self) -> f64 {
        self.mtbf.as_ps() as f64 / self.n_ranks as f64
    }
}

impl FailureModel for PoissonPerRank {
    fn next_after(&mut self, prev: SimTime) -> Option<FailureEvent> {
        if self.emitted >= self.max_failures {
            return None;
        }
        self.emitted += 1;
        let mean = self.mean_gap_ps();
        let gap = exp_draw(&mut self.rng, mean);
        let victim = Rank(self.rng.gen_range(self.n_ranks as u64) as u32);
        Some(FailureEvent {
            at: prev + gap,
            ranks: vec![victim],
        })
    }

    fn expected_failures(&self, horizon: SimTime) -> f64 {
        let rate = horizon.as_ps() as f64 / self.mean_gap_ps();
        rate.min(self.max_failures as f64)
    }

    fn descriptor(&self) -> String {
        let max = if self.max_failures == u32::MAX {
            String::new()
        } else {
            format!(":max{}", self.max_failures)
        };
        format!(
            "poisson:mtbf{}ps:seed{}:n{}{max}",
            self.mtbf.as_ps(),
            self.seed,
            self.n_ranks
        )
    }
}

// ---------------------------------------------------------------------------
// CorrelatedCluster
// ---------------------------------------------------------------------------

/// Node/cluster-level failures: when a group fails, *all* of its ranks
/// crash concurrently — the paper's cluster-containment framing, where
/// the natural failure unit is a node or blade hosting several ranks.
/// Groups fail as a Poisson process with per-group MTBF `mtbf`.
#[derive(Debug, Clone)]
pub struct CorrelatedCluster {
    groups: Vec<Vec<Rank>>,
    mtbf: SimDuration,
    seed: u64,
    max_failures: u32,
    emitted: u32,
    rng: DetRng,
}

impl CorrelatedCluster {
    /// # Panics
    /// Panics if `groups` is empty, any group is empty, or `mtbf` is zero.
    pub fn new(groups: Vec<Vec<Rank>>, mtbf: SimDuration, seed: u64) -> Self {
        assert!(!groups.is_empty(), "CorrelatedCluster needs groups");
        assert!(
            groups.iter().all(|g| !g.is_empty()),
            "CorrelatedCluster groups must be non-empty"
        );
        assert!(!mtbf.is_zero(), "CorrelatedCluster needs a positive MTBF");
        CorrelatedCluster {
            groups,
            mtbf,
            seed,
            max_failures: u32::MAX,
            emitted: 0,
            rng: DetRng::new(seed ^ 0x4661_494C_434C_5531), // "FaILCLU1"
        }
    }

    /// Co-location taken from a [`ClusterMap`]: one failure group per
    /// cluster.
    pub fn from_cluster_map(map: &ClusterMap, mtbf: SimDuration, seed: u64) -> Self {
        let groups = (0..map.n_clusters() as u32)
            .map(|c| map.members(c).to_vec())
            .collect();
        CorrelatedCluster::new(groups, mtbf, seed)
    }

    pub fn with_max_failures(mut self, max: u32) -> Self {
        self.max_failures = max;
        self
    }

    fn mean_gap_ps(&self) -> f64 {
        self.mtbf.as_ps() as f64 / self.groups.len() as f64
    }
}

impl FailureModel for CorrelatedCluster {
    fn next_after(&mut self, prev: SimTime) -> Option<FailureEvent> {
        if self.emitted >= self.max_failures {
            return None;
        }
        self.emitted += 1;
        let mean = self.mean_gap_ps();
        let gap = exp_draw(&mut self.rng, mean);
        let g = self.rng.gen_range(self.groups.len() as u64) as usize;
        Some(FailureEvent {
            at: prev + gap,
            ranks: self.groups[g].clone(),
        })
    }

    fn expected_failures(&self, horizon: SimTime) -> f64 {
        let rate = horizon.as_ps() as f64 / self.mean_gap_ps();
        rate.min(self.max_failures as f64)
    }

    fn descriptor(&self) -> String {
        let max = if self.max_failures == u32::MAX {
            String::new()
        } else {
            format!(":max{}", self.max_failures)
        };
        format!(
            "cluster:mtbf{}ps:seed{}:g{}{max}",
            self.mtbf.as_ps(),
            self.seed,
            self.groups.len()
        )
    }
}

// ---------------------------------------------------------------------------
// Cascade
// ---------------------------------------------------------------------------

/// Follow-up failures within a window of each failure — the
/// failure-during-recovery regime (correlated infant mortality after a
/// repair, cooling/power events taking out neighbours, ...).
///
/// Wraps any base model generating *primary* failures. Every emitted
/// failure (primary or follow-up) spawns, with probability
/// `follow_prob`, one follow-up failure of a uniformly random rank at a
/// uniform offset in `(0, window]`; chains are depth-limited by
/// `max_chain` per primary.
pub struct Cascade {
    base: Box<dyn FailureModel>,
    n_ranks: u32,
    window: SimDuration,
    follow_prob: f64,
    max_chain: u32,
    seed: u64,
    rng: DetRng,
    /// Spawned follow-ups not yet emitted, time-ascending, with their
    /// chain depth.
    pending: VecDeque<(FailureEvent, u32)>,
    /// Peeked-but-unemitted base event.
    base_peek: Option<FailureEvent>,
    base_done: bool,
    last_base_at: SimTime,
}

impl Cascade {
    /// # Panics
    /// Panics if `n_ranks == 0` or `window` is zero.
    pub fn new(
        base: Box<dyn FailureModel>,
        n_ranks: usize,
        window: SimDuration,
        follow_prob: f64,
        seed: u64,
    ) -> Self {
        assert!(n_ranks > 0, "Cascade needs at least one rank");
        assert!(!window.is_zero(), "Cascade needs a positive window");
        Cascade {
            base,
            n_ranks: n_ranks as u32,
            window,
            follow_prob: follow_prob.clamp(0.0, 1.0),
            max_chain: 4,
            seed,
            rng: DetRng::new(seed ^ 0x4661_494C_4353_4431), // "FaILCSD1"
            pending: VecDeque::new(),
            base_peek: None,
            base_done: false,
            last_base_at: SimTime::ZERO,
        }
    }

    /// Limit follow-up chain depth per primary failure (default 4).
    pub fn with_max_chain(mut self, max_chain: u32) -> Self {
        self.max_chain = max_chain;
        self
    }

    /// Emitted failure at `depth` spawns (maybe) one deeper follow-up.
    fn maybe_spawn_follow(&mut self, ev: &FailureEvent, depth: u32) {
        if depth >= self.max_chain || !self.rng.gen_bool(self.follow_prob) {
            return;
        }
        let offset = SimDuration::from_ps(1 + self.rng.gen_range(self.window.as_ps().max(1)));
        let victim = Rank(self.rng.gen_range(self.n_ranks as u64) as u32);
        let follow = FailureEvent {
            at: ev.at + offset,
            ranks: vec![victim],
        };
        // Insert keeping `pending` time-ascending (stable after equal
        // times: new events go behind existing ones).
        let pos = self.pending.partition_point(|(p, _)| p.at <= follow.at);
        self.pending.insert(pos, (follow, depth + 1));
    }
}

impl FailureModel for Cascade {
    fn next_after(&mut self, _prev: SimTime) -> Option<FailureEvent> {
        if self.base_peek.is_none() && !self.base_done {
            match self.base.next_after(self.last_base_at) {
                Some(e) => {
                    self.last_base_at = e.at;
                    self.base_peek = Some(e);
                }
                None => self.base_done = true,
            }
        }
        let take_pending = match (self.pending.front(), &self.base_peek) {
            (Some((p, _)), Some(b)) => p.at <= b.at,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let (ev, depth) = if take_pending {
            self.pending.pop_front().expect("checked front")
        } else {
            (self.base_peek.take().expect("checked peek"), 0)
        };
        self.maybe_spawn_follow(&ev, depth);
        Some(ev)
    }

    fn expected_failures(&self, horizon: SimTime) -> f64 {
        // Each failure spawns `follow_prob` expected follow-ups up to
        // depth `max_chain`: a truncated geometric multiplier on the
        // base's expectation.
        let p = self.follow_prob;
        let chain: f64 = (0..=self.max_chain).map(|d| p.powi(d as i32)).sum();
        self.base.expected_failures(horizon) * chain
    }

    fn descriptor(&self) -> String {
        // `{}` on f64 prints the shortest representation that parses
        // back to the same bits — injective, unlike a fixed precision.
        format!(
            "cascade[{}]:p{}:window{}ps:chain{}:seed{}:n{}",
            self.base.descriptor(),
            self.follow_prob,
            self.window.as_ps(),
            self.max_chain,
            self.seed,
            self.n_ranks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(model: &mut dyn FailureModel, limit: usize) -> Vec<FailureEvent> {
        let mut out = Vec::new();
        let mut prev = SimTime::ZERO;
        while out.len() < limit {
            match model.next_after(prev) {
                Some(ev) => {
                    prev = ev.at;
                    out.push(ev);
                }
                None => break,
            }
        }
        out
    }

    #[test]
    fn mtbf_estimate_recovers_the_poisson_rate() {
        // 100 ranks x 10 s MTBF each: one event per 100 ms.
        let m = PoissonPerRank::new(100, SimDuration::from_secs(10), 1);
        let est = estimate_mtbf(&m).unwrap();
        let want = SimDuration::from_ms(100).as_ps() as f64;
        assert!((est.as_ps() as f64 - want).abs() / want < 1e-9, "{est:?}");
        // A capped model still probes its uncapped prefix rate.
        let capped = PoissonPerRank::new(100, SimDuration::from_secs(10), 1).with_max_failures(2);
        let est = estimate_mtbf(&capped).unwrap();
        assert!((est.as_ps() as f64 - want).abs() / want < 1e-9, "{est:?}");
        // Fixed schedules and clean runs.
        let fixed = FixedSchedule::new(vec![FailureEvent::at_ms(195, vec![Rank(0)])]);
        let est = estimate_mtbf(&fixed).unwrap();
        assert_eq!(est, SimDuration::from_secs(1), "densest probe horizon wins");
        assert!(estimate_mtbf(&FixedSchedule::none()).is_none());
        // An event beyond every finite probe must still yield a (huge)
        // MTBF, not None: a failure is coming, and "no failures ever"
        // would tell a Young/Daly consumer to never checkpoint.
        let late = FixedSchedule::new(vec![FailureEvent {
            at: SimTime::from_secs(2 * 3600),
            ranks: vec![Rank(0)],
        }]);
        let est = estimate_mtbf(&late).expect("a scheduled failure has a rate");
        assert_eq!(est, SimDuration::from_ps(u64::MAX));
    }

    #[test]
    fn det_ln_matches_reference_values() {
        // Spot-check against libm (tolerance, not bit-equality: the whole
        // point of det_ln is that *it* is the portable one).
        for x in [1.0, 0.5, 0.25, 0.9999, 1e-3, 1e-9, f64::MIN_POSITIVE] {
            let got = det_ln(x);
            let want = x.ln();
            assert!(
                (got - want).abs() <= want.abs() * 1e-14 + 1e-14,
                "ln({x}): got {got}, want {want}"
            );
        }
    }

    #[test]
    fn fixed_schedule_replays_in_time_order() {
        let mut m = FixedSchedule::new(vec![
            FailureEvent::at_ms(5, vec![Rank(1)]),
            FailureEvent::at_ms(2, vec![Rank(0), Rank(3)]),
        ]);
        let evs = drain(&mut m, 10);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].at, SimTime::from_ms(2));
        assert_eq!(evs[1].at, SimTime::from_ms(5));
        assert_eq!(m.descriptor(), "fixed[2000000000ps:r0+3,5000000000ps:r1]");
        assert_eq!(FixedSchedule::none().descriptor(), "none");
    }

    #[test]
    fn poisson_is_deterministic_and_monotone() {
        let mut a = PoissonPerRank::new(64, SimDuration::from_ms(100), 42);
        let mut b = PoissonPerRank::new(64, SimDuration::from_ms(100), 42);
        let ea = drain(&mut a, 50);
        let eb = drain(&mut b, 50);
        assert_eq!(ea, eb);
        assert!(ea.windows(2).all(|w| w[0].at < w[1].at));
        assert!(ea.iter().all(|e| e.ranks.len() == 1 && e.ranks[0].0 < 64));
        let mut c = PoissonPerRank::new(64, SimDuration::from_ms(100), 43);
        assert_ne!(drain(&mut c, 50), ea, "different seed, different stream");
    }

    #[test]
    fn poisson_max_failures_caps_the_stream() {
        let mut m = PoissonPerRank::new(8, SimDuration::from_ms(1), 7).with_max_failures(3);
        assert_eq!(drain(&mut m, 100).len(), 3);
        assert_eq!(
            m.expected_failures(SimTime::from_secs(3600)),
            3.0,
            "expectation respects the cap"
        );
    }

    #[test]
    fn poisson_expectation_matches_rate() {
        let m = PoissonPerRank::new(100, SimDuration::from_secs(10), 1);
        // Aggregate rate 100/10s = 10/s: expect ~20 failures in 2 s.
        let e = m.expected_failures(SimTime::from_secs(2));
        assert!((e - 20.0).abs() < 1e-9, "{e}");
        // Empirical check on the generator itself.
        let mut m = PoissonPerRank::new(100, SimDuration::from_secs(10), 1);
        let evs = drain(&mut m, 100_000);
        let horizon = SimTime::from_secs(2);
        let n = evs.iter().filter(|e| e.at <= horizon).count();
        assert!(
            (10..=32).contains(&n),
            "got {n} failures in 2s, expected ~20"
        );
    }

    #[test]
    fn correlated_cluster_fails_whole_groups() {
        let map = ClusterMap::blocks(16, 4);
        let mut m = CorrelatedCluster::from_cluster_map(&map, SimDuration::from_ms(50), 9);
        let evs = drain(&mut m, 20);
        assert_eq!(evs.len(), 20);
        for e in &evs {
            assert_eq!(e.ranks.len(), 4, "a whole group fails at once");
            let c = map.cluster_of(e.ranks[0]);
            assert!(e.ranks.iter().all(|&r| map.cluster_of(r) == c));
        }
    }

    #[test]
    fn cascade_spawns_followups_within_window() {
        let base = FixedSchedule::new(vec![FailureEvent::at_ms(10, vec![Rank(0)])]);
        let window = SimDuration::from_us(500);
        let mut m = Cascade::new(Box::new(base), 8, window, 1.0, 3).with_max_chain(2);
        let evs = drain(&mut m, 10);
        // p = 1.0, chain depth 2: primary + exactly two follow-ups.
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].at, SimTime::from_ms(10));
        for w in evs.windows(2) {
            assert!(w[1].at > w[0].at);
            assert!(w[1].at <= w[0].at + window, "follow-up outside window");
        }
    }

    #[test]
    fn cascade_with_zero_probability_is_the_base_model() {
        let mk_base = || {
            FixedSchedule::new(vec![
                FailureEvent::at_ms(1, vec![Rank(0)]),
                FailureEvent::at_ms(2, vec![Rank(1)]),
            ])
        };
        let mut cascade = Cascade::new(Box::new(mk_base()), 4, SimDuration::from_ms(1), 0.0, 5);
        let mut base = mk_base();
        assert_eq!(drain(&mut cascade, 10), drain(&mut base, 10));
    }

    #[test]
    fn cascade_expectation_is_truncated_geometric() {
        let base = FixedSchedule::new(vec![FailureEvent::at_ms(1, vec![Rank(0)])]);
        let m = Cascade::new(Box::new(base), 4, SimDuration::from_ms(1), 0.5, 5).with_max_chain(2);
        // 1 * (1 + 0.5 + 0.25)
        assert!((m.expected_failures(SimTime::from_secs(1)) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn descriptors_are_stable_and_distinct() {
        let a = PoissonPerRank::new(64, SimDuration::from_ms(100), 42);
        let b = PoissonPerRank::new(64, SimDuration::from_ms(100), 43);
        let c = CorrelatedCluster::new(vec![vec![Rank(0)]], SimDuration::from_ms(100), 42);
        assert_ne!(a.descriptor(), b.descriptor());
        assert_ne!(a.descriptor(), c.descriptor());
        assert_eq!(
            a.descriptor(),
            PoissonPerRank::new(64, SimDuration::from_ms(100), 42).descriptor()
        );
        // The cascade's own seed drives follow-up draws, so it must be
        // part of the identity even when the base is identical.
        let cascade = |seed| {
            Cascade::new(
                Box::new(FixedSchedule::new(vec![FailureEvent::at_ms(
                    1,
                    vec![Rank(0)],
                )])),
                8,
                SimDuration::from_ms(1),
                0.5,
                seed,
            )
        };
        assert_ne!(cascade(1).descriptor(), cascade(2).descriptor());
        assert_eq!(cascade(1).descriptor(), cascade(1).descriptor());
    }
}
