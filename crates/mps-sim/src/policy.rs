//! Checkpoint-scheduling policies — when does a cluster checkpoint?
//!
//! The same move [`crate::FailureModel`] made for fault injection
//! (DESIGN.md §2.3), applied to checkpoint scheduling: protocols consume
//! an object-safe, *deterministic* generator instead of a bare
//! `Option<SimDuration>` interval. A [`CheckpointPolicy`] answers "when
//! should cluster `c` next checkpoint?" lazily, one decision at a time,
//! from observations ([`PolicyObs`]) the protocol supplies — which is
//! what admits *adaptive* schedules (Young/Daly intervals derived from
//! the run's failure rate and the measured checkpoint cost, log-memory
//! budgets) that no fixed interval can express.
//!
//! ## Contract (DESIGN.md §2.4)
//!
//! * **Determinism.** A policy's construction parameters plus the
//!   observation sequence fully determine its decisions. No wall clock,
//!   no ambient randomness; floating point is restricted to operations
//!   IEEE-754 defines exactly (`+ - * /`, `sqrt`), so decisions — and
//!   therefore digests — are machine-independent.
//! * **Laziness.** `next_for(cluster, now, obs)` is consulted at run
//!   start, after each of the cluster's checkpoints, when a recovery
//!   ends (deferred clusters re-arm from recovery completion, not from
//!   the stale pre-failure schedule), and — for [reactive](
//!   CheckpointPolicy::reactive) policies — when the cluster's
//!   observations change. It returns the next checkpoint time (clamped
//!   to `now` by the caller if in the past) or `None` for "no
//!   checkpoint scheduled".
//! * **Closed-form identity.** [`CheckpointPolicy::descriptor`] is a
//!   stable identity string for records and baselines: equal
//!   descriptors must imply equal schedules under equal observations.
//!
//! [`CheckpointPolicyConfig`] is the only checkpoint-scheduling setting
//! a protocol configuration carries. A policy whose `first`/`stagger`
//! are `None` starts at 100 ms and staggers clusters by 50 ms; those two
//! defaults are defined here and nowhere else.

use det_sim::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// Observations a protocol supplies when consulting a policy. All fields
/// are per-cluster and deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyObs {
    /// Checkpoints this cluster has completed so far (0 before the
    /// first; the implicit cost-free t=0 checkpoint is not counted).
    pub checkpoints_taken: u64,
    /// Measured duration of this cluster's most recent checkpoint
    /// (coordination + storage write), `ZERO` before the first.
    pub last_cost: SimDuration,
    /// Closed-form estimate of one checkpoint's cost from the storage
    /// model and image size (used until a measurement exists).
    pub est_cost: SimDuration,
    /// Mean time between failures *of the domain this cluster
    /// checkpoints against*, estimated from the run's
    /// [`FailureModel`](crate::FailureModel) (`None`: no failures
    /// expected, e.g. a clean run). Containment protocols scale the
    /// machine MTBF up by their cluster count — a cluster checkpoint
    /// only insures against failures that roll that cluster back;
    /// global coordinated checkpointing passes the raw machine MTBF.
    pub mtbf: Option<SimDuration>,
    /// Sender-log bytes the cluster's members have accumulated since the
    /// cluster's last checkpoint.
    pub log_bytes_since_ckpt: u64,
}

/// Deterministic checkpoint scheduler (object-safe). See the
/// [module docs](self) for the full contract.
pub trait CheckpointPolicy: Send + Sync {
    /// The next checkpoint time for `cluster` at or after `now`, or
    /// `None` when no checkpoint should be scheduled under the current
    /// observations.
    fn next_for(&mut self, cluster: u32, now: SimTime, obs: &PolicyObs) -> Option<SimTime>;

    /// Stable identity string (records, baselines, scenario labels).
    fn descriptor(&self) -> String;

    /// Reactive policies are re-consulted whenever the cluster's
    /// observations change (log growth), not only at schedule points.
    /// Non-reactive policies (the default) cost nothing on the hot path.
    fn reactive(&self) -> bool {
        false
    }

    /// Should a checkpoint falling inside an active recovery be
    /// deferred to the recovery's completion? (All shipped policies say
    /// yes; a policy could checkpoint *through* recovery by overriding.)
    fn defer_during_recovery(&self) -> bool {
        true
    }
}

/// First checkpoint time of a policy built with `first: None`.
const DEFAULT_FIRST: SimTime = SimTime::from_ms(100);

/// Offset between consecutive clusters' first checkpoints of a policy
/// built with `stagger: None` (staggering avoids the coordinated
/// checkpointing I/O burst, paper §VI).
const DEFAULT_STAGGER: SimDuration = SimDuration::from_ms(50);

// ---------------------------------------------------------------------------
// Periodic
// ---------------------------------------------------------------------------

/// Fixed-interval scheduling with per-cluster stagger: cluster `c`'s
/// first checkpoint at `first + stagger * c`, then one `interval` after
/// each completion (as of the cluster's resume time).
#[derive(Debug, Clone)]
pub struct Periodic {
    interval: SimDuration,
    first: SimTime,
    stagger: SimDuration,
    started: BTreeSet<u32>,
}

impl Periodic {
    pub fn new(interval: SimDuration, first: SimTime, stagger: SimDuration) -> Self {
        Periodic {
            interval,
            first,
            stagger,
            started: BTreeSet::new(),
        }
    }
}

impl CheckpointPolicy for Periodic {
    fn next_for(&mut self, cluster: u32, now: SimTime, _obs: &PolicyObs) -> Option<SimTime> {
        if self.started.insert(cluster) {
            Some(self.first + self.stagger * cluster as u64)
        } else {
            Some(now + self.interval)
        }
    }

    fn descriptor(&self) -> String {
        format!(
            "periodic:interval{}ps:first{}ps:stagger{}ps",
            self.interval.as_ps(),
            self.first.as_ps(),
            self.stagger.as_ps()
        )
    }
}

// ---------------------------------------------------------------------------
// YoungDaly
// ---------------------------------------------------------------------------

/// Young's first-order optimal interval, `W = sqrt(2 · C · MTBF)`,
/// re-derived after every checkpoint from the *measured* cost `C` of the
/// cluster's last checkpoint (the closed-form estimate until one exists)
/// and the machine MTBF the engine estimates from the run's
/// [`FailureModel`](crate::FailureModel). A run that expects no failures
/// (`mtbf = None`) schedules no checkpoints at all — the optimal
/// interval is infinite. First checkpoints are staggered per cluster
/// exactly like [`Periodic`], which is what keeps the I/O-burst
/// avoidance orthogonal to the interval choice.
///
/// `f64::sqrt` is correctly rounded by IEEE-754, so the derived interval
/// — and every digest downstream of it — is machine-independent.
#[derive(Debug, Clone)]
pub struct YoungDaly {
    first: SimTime,
    stagger: SimDuration,
    started: BTreeSet<u32>,
}

impl YoungDaly {
    pub fn new(first: SimTime, stagger: SimDuration) -> Self {
        YoungDaly {
            first,
            stagger,
            started: BTreeSet::new(),
        }
    }

    /// `sqrt(2 · C · MTBF)`, floored at the checkpoint cost itself (an
    /// interval shorter than one checkpoint would spend >50% of the run
    /// checkpointing) and at 1 µs (degenerate zero-cost models).
    fn interval(cost: SimDuration, mtbf: SimDuration) -> SimDuration {
        let w = (2.0 * cost.as_ps() as f64 * mtbf.as_ps() as f64).sqrt();
        // `as` saturates: deterministic for any finite input.
        SimDuration::from_ps(w as u64)
            .max(cost)
            .max(SimDuration::from_us(1))
    }
}

impl CheckpointPolicy for YoungDaly {
    fn next_for(&mut self, cluster: u32, now: SimTime, obs: &PolicyObs) -> Option<SimTime> {
        let mtbf = obs.mtbf?;
        if self.started.insert(cluster) {
            return Some(self.first + self.stagger * cluster as u64);
        }
        let cost = if obs.last_cost.is_zero() {
            obs.est_cost
        } else {
            obs.last_cost
        };
        Some(now + Self::interval(cost, mtbf))
    }

    fn descriptor(&self) -> String {
        format!(
            "young-daly:first{}ps:stagger{}ps",
            self.first.as_ps(),
            self.stagger.as_ps()
        )
    }
}

// ---------------------------------------------------------------------------
// LogPressure
// ---------------------------------------------------------------------------

/// Checkpoint when a cluster's sender logs have grown by `budget` bytes
/// since its last checkpoint — the paper's log-memory concern (§III-E /
/// the `log_memory` experiment) as a first-class schedule: clusters that
/// log nothing never checkpoint, clusters under heavy inter-cluster
/// traffic checkpoint exactly as often as their memory budget demands.
/// Reactive: the protocol re-consults it as logs grow, and it answers
/// `Some(now)` the moment the budget is crossed.
#[derive(Debug, Clone, Copy)]
pub struct LogPressure {
    budget_bytes: u64,
}

impl LogPressure {
    /// # Panics
    /// Panics if `budget_bytes` is zero (every send would checkpoint).
    pub fn new(budget_bytes: u64) -> Self {
        assert!(budget_bytes > 0, "LogPressure needs a positive budget");
        LogPressure { budget_bytes }
    }
}

impl CheckpointPolicy for LogPressure {
    fn next_for(&mut self, _cluster: u32, now: SimTime, obs: &PolicyObs) -> Option<SimTime> {
        (obs.log_bytes_since_ckpt >= self.budget_bytes).then_some(now)
    }

    fn descriptor(&self) -> String {
        format!("log-pressure:budget{}", self.budget_bytes)
    }

    fn reactive(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Data-level configuration
// ---------------------------------------------------------------------------

/// Declarative policy choice: plain data a protocol configuration can
/// hold (`Copy + PartialEq`, no trait objects), resolved per run into
/// the stateful [`CheckpointPolicy`] via [`CheckpointPolicyConfig::build`]
/// — the same spec-vs-generator split as
/// `scenario::FailureModelSpec` / [`crate::FailureModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicyConfig {
    /// No periodic checkpoints (only the implicit one at t=0).
    Disabled,
    /// Fixed interval; `first`/`stagger` default to 100 ms and 50 ms
    /// when `None`.
    Periodic {
        interval: SimDuration,
        first: Option<SimTime>,
        stagger: Option<SimDuration>,
    },
    /// Young's optimal interval from measured cost × machine MTBF;
    /// `first`/`stagger` default as for `Periodic`.
    YoungDaly {
        first: Option<SimTime>,
        stagger: Option<SimDuration>,
    },
    /// Checkpoint every `budget_bytes` of sender-log growth.
    LogPressure { budget_bytes: u64 },
}

impl CheckpointPolicyConfig {
    /// Resolve into the stateful policy for one run (`None` for
    /// `Disabled`).
    pub fn build(&self) -> Option<Box<dyn CheckpointPolicy>> {
        match *self {
            CheckpointPolicyConfig::Disabled => None,
            CheckpointPolicyConfig::Periodic {
                interval,
                first,
                stagger,
            } => Some(Box::new(Periodic::new(
                interval,
                first.unwrap_or(DEFAULT_FIRST),
                stagger.unwrap_or(DEFAULT_STAGGER),
            ))),
            CheckpointPolicyConfig::YoungDaly { first, stagger } => Some(Box::new(YoungDaly::new(
                first.unwrap_or(DEFAULT_FIRST),
                stagger.unwrap_or(DEFAULT_STAGGER),
            ))),
            CheckpointPolicyConfig::LogPressure { budget_bytes } => {
                Some(Box::new(LogPressure::new(budget_bytes)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> PolicyObs {
        PolicyObs::default()
    }

    #[test]
    fn periodic_reproduces_first_stagger_then_interval() {
        let mut p = Periodic::new(
            SimDuration::from_ms(100),
            SimTime::from_ms(100),
            SimDuration::from_ms(50),
        );
        // First consult per cluster: first + stagger * c, regardless of now.
        assert_eq!(
            p.next_for(0, SimTime::ZERO, &obs()),
            Some(SimTime::from_ms(100))
        );
        assert_eq!(
            p.next_for(2, SimTime::ZERO, &obs()),
            Some(SimTime::from_ms(200))
        );
        // Re-arm: one interval after the supplied completion time.
        assert_eq!(
            p.next_for(0, SimTime::from_ms(103), &obs()),
            Some(SimTime::from_ms(203))
        );
        assert!(!p.reactive());
    }

    #[test]
    fn young_daly_derives_the_square_root_interval() {
        let mut y = YoungDaly::new(SimTime::from_ms(1), SimDuration::ZERO);
        let o = PolicyObs {
            mtbf: Some(SimDuration::from_secs(50)),
            last_cost: SimDuration::from_ms(1),
            ..PolicyObs::default()
        };
        // First arm is the staggered start.
        assert_eq!(y.next_for(0, SimTime::ZERO, &o), Some(SimTime::from_ms(1)));
        // W = sqrt(2 * 1ms * 50s) = sqrt(1e17 ps^2 * 1e3) ... exact:
        // 2 * 1e9 * 5e13 = 1e23, sqrt = 316227766016.8379 ps ~ 316 ms.
        let next = y.next_for(0, SimTime::from_ms(10), &o).unwrap();
        assert_eq!(next.as_ps() - SimTime::from_ms(10).as_ps(), 316_227_766_016);
    }

    #[test]
    fn young_daly_without_failures_schedules_nothing() {
        let mut y = YoungDaly::new(SimTime::from_ms(1), SimDuration::ZERO);
        assert_eq!(y.next_for(0, SimTime::ZERO, &obs()), None);
    }

    #[test]
    fn young_daly_floors_at_the_checkpoint_cost() {
        // Huge cost, tiny MTBF: sqrt term would be shorter than the
        // checkpoint itself.
        let cost = SimDuration::from_secs(10);
        let mtbf = SimDuration::from_ps(2);
        assert_eq!(YoungDaly::interval(cost, mtbf), cost);
    }

    #[test]
    fn young_daly_uses_estimate_until_measured() {
        let mut y = YoungDaly::new(SimTime::ZERO, SimDuration::ZERO);
        let mtbf = SimDuration::from_secs(2);
        let est = PolicyObs {
            mtbf: Some(mtbf),
            est_cost: SimDuration::from_ms(8),
            ..PolicyObs::default()
        };
        let measured = PolicyObs {
            last_cost: SimDuration::from_ms(2),
            ..est
        };
        y.next_for(0, SimTime::ZERO, &est); // consume the first-arm point
        let from_est = y.next_for(0, SimTime::ZERO, &est).unwrap();
        let from_measured = y.next_for(0, SimTime::ZERO, &measured).unwrap();
        assert_eq!(
            from_est,
            SimTime::from_ps(YoungDaly::interval(SimDuration::from_ms(8), mtbf).as_ps())
        );
        assert!(
            from_measured < from_est,
            "cheaper checkpoints, shorter interval"
        );
    }

    #[test]
    fn log_pressure_fires_exactly_at_the_budget() {
        let mut lp = LogPressure::new(1 << 20);
        assert!(lp.reactive());
        let now = SimTime::from_ms(7);
        let below = PolicyObs {
            log_bytes_since_ckpt: (1 << 20) - 1,
            ..PolicyObs::default()
        };
        let at = PolicyObs {
            log_bytes_since_ckpt: 1 << 20,
            ..PolicyObs::default()
        };
        assert_eq!(lp.next_for(0, now, &below), None);
        assert_eq!(lp.next_for(0, now, &at), Some(now));
    }

    #[test]
    fn config_builds_the_matching_policy() {
        assert!(CheckpointPolicyConfig::Disabled.build().is_none());
        let p = CheckpointPolicyConfig::Periodic {
            interval: SimDuration::from_ms(10),
            first: None,
            stagger: None,
        }
        .build()
        .unwrap();
        assert!(p.descriptor().starts_with("periodic:interval10000000000ps"));
        let y = CheckpointPolicyConfig::YoungDaly {
            first: Some(SimTime::from_ms(2)),
            stagger: None,
        }
        .build()
        .unwrap();
        assert_eq!(
            y.descriptor(),
            "young-daly:first2000000000ps:stagger50000000000ps"
        );
        let l = CheckpointPolicyConfig::LogPressure { budget_bytes: 4096 }
            .build()
            .unwrap();
        assert_eq!(l.descriptor(), "log-pressure:budget4096");
    }

    #[test]
    fn unset_first_and_stagger_are_100ms_and_50ms() {
        let explicit = (Some(SimTime::from_ms(100)), Some(SimDuration::from_ms(50)));
        let descriptor = |c: CheckpointPolicyConfig| c.build().unwrap().descriptor();
        let periodic = |(first, stagger)| CheckpointPolicyConfig::Periodic {
            interval: SimDuration::from_ms(10),
            first,
            stagger,
        };
        assert_eq!(
            descriptor(periodic((None, None))),
            descriptor(periodic(explicit))
        );
        let young_daly = |(first, stagger)| CheckpointPolicyConfig::YoungDaly { first, stagger };
        assert_eq!(
            descriptor(young_daly((None, None))),
            descriptor(young_daly(explicit))
        );
    }

    #[test]
    fn descriptors_are_distinct_across_parameters() {
        let d = |p: &dyn CheckpointPolicy| p.descriptor();
        let a = Periodic::new(SimDuration::from_ms(1), SimTime::ZERO, SimDuration::ZERO);
        let b = Periodic::new(SimDuration::from_ms(2), SimTime::ZERO, SimDuration::ZERO);
        let y = YoungDaly::new(SimTime::ZERO, SimDuration::ZERO);
        let l = LogPressure::new(1);
        let set: BTreeSet<String> = [d(&a), d(&b), d(&y), d(&l)].into_iter().collect();
        assert_eq!(set.len(), 4);
    }
}
