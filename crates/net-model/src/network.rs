//! Point-to-point network cost models.
//!
//! The decomposition follows LogGP: a send occupies the sender's CPU for
//! `sender` time (the MPI library call), the first byte reaches the receiver
//! after `transit`, and delivery occupies the receiver's CPU for `receiver`
//! time. The simulated runtime (`mps-sim`) turns these three numbers into
//! events; this crate only prices them.

use det_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The priced cost of moving one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MsgCost {
    /// CPU time consumed at the sender (library overhead, injection).
    pub sender: SimDuration,
    /// Time between the send completing at the sender and the message being
    /// deliverable at the receiver (wire latency + serialization).
    pub transit: SimDuration,
    /// CPU time consumed at the receiver on delivery (matching, copy-out).
    pub receiver: SimDuration,
}

impl MsgCost {
    /// End-to-end one-way time as seen by a ping-pong benchmark: from the
    /// moment the sender calls send to the moment the receiver returns from
    /// recv.
    pub fn one_way(&self) -> SimDuration {
        self.sender + self.transit + self.receiver
    }

    /// Arrival instant for a message sent at `t`.
    pub fn arrival(&self, t: SimTime) -> SimTime {
        t + self.sender + self.transit
    }
}

/// A deterministic network performance model.
pub trait NetworkModel: Send + Sync {
    /// Cost of a message whose on-the-wire size is `wire_bytes`.
    fn cost(&self, wire_bytes: u64) -> MsgCost;

    /// Human-readable model name for reports.
    fn name(&self) -> &'static str;

    /// One-way latency for a `wire_bytes` message (ping-pong half
    /// round-trip, the quantity NetPIPE reports).
    fn latency(&self, wire_bytes: u64) -> SimDuration {
        self.cost(wire_bytes).one_way()
    }

    /// Lower bound on the transit component over all message sizes — the
    /// parallel engine's *lookahead* (DESIGN.md §2.8): an event executed
    /// at time `t` can make nothing arrive on another shard before
    /// `t + min_transit()`. Both built-in models price transit monotone in
    /// size (pinned by tests), so the zero-byte cost is the infimum; a
    /// model for which that does not hold must override this.
    fn min_transit(&self) -> SimDuration {
        self.cost(0).transit
    }

    /// Effective bandwidth in bytes/second for a `wire_bytes` message.
    ///
    /// Guard: a degenerate zero-latency model yields rate 0, never
    /// inf/NaN — the same treatment the telemetry samplers pin for
    /// their per-interval rates, so downstream ratio arithmetic
    /// (Metrics, reports) stays finite.
    fn bandwidth(&self, wire_bytes: u64) -> f64 {
        let t = self.latency(wire_bytes).as_secs_f64();
        if t > 0.0 {
            wire_bytes as f64 / t
        } else {
            0.0
        }
    }
}

/// Myrinet 10G / MX under MPICH2-nemesis, calibrated to the paper.
///
/// The paper states: "the native latency of MPICH2 is around 3.3 µs for
/// messages size 1 to 32 bytes and then jump to 4 µs", and the NIC is a
/// 10G-PCIE-8A-C Myri-10G (10 Gb/s = 1.25 GB/s). MX switches from eager to
/// rendezvous for large messages (32 KiB here), adding a handshake
/// round-trip but enabling zero-copy on both sides.
///
/// Small-message latency is a step function over *plateaus* — MX packs
/// messages into fixed-size packet slots, so latency is constant within a
/// slot and jumps between slots. Those plateaus are exactly what produces
/// the two overhead peaks of the paper's Figure 5 once HydEE's piggyback
/// bytes push a payload across a boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MxModel {
    /// `(max_wire_bytes_inclusive, base_latency)` plateau table, ascending.
    /// Messages above the last plateau use the last latency plus the
    /// per-byte gap for the bytes beyond the previous boundary.
    pub plateaus: Vec<(u64, SimDuration)>,
    /// Per-byte serialization time past the plateau region (1/bandwidth).
    pub gap_ps_per_byte: u64,
    /// Message size at which MX switches from eager to rendezvous.
    pub rendezvous_threshold: u64,
    /// Extra handshake cost paid by rendezvous transfers.
    pub rendezvous_handshake: SimDuration,
    /// Fraction (per mille) of the small-message latency charged to the
    /// sender CPU; the remainder less the receiver share is wire transit.
    pub sender_share_permille: u32,
    /// Fraction (per mille) charged to the receiver CPU.
    pub receiver_share_permille: u32,
}

impl Default for MxModel {
    fn default() -> Self {
        MxModel {
            plateaus: vec![
                (32, SimDuration::from_ns(3_300)),   // 1..=32 B : 3.3 us
                (1024, SimDuration::from_ns(4_000)), // 33..=1 KiB : 4.0 us
                (4096, SimDuration::from_ns(5_000)), // 1 KiB..4 KiB : 5.0 us
            ],
            // 1.25 GB/s => 0.8 ns/B => 800 ps/B
            gap_ps_per_byte: 800,
            rendezvous_threshold: 32 * 1024,
            rendezvous_handshake: SimDuration::from_ns(6_600), // one extra RTT of small msgs
            sender_share_permille: 250,
            receiver_share_permille: 250,
        }
    }
}

impl MxModel {
    /// Base one-way time before splitting into sender/transit/receiver.
    fn total(&self, wire_bytes: u64) -> SimDuration {
        let (last_boundary, last_latency) = *self
            .plateaus
            .last()
            .expect("MxModel requires at least one plateau");
        let mut t = if wire_bytes <= self.plateaus[0].0 {
            self.plateaus[0].1
        } else if let Some(&(_, lat)) = self
            .plateaus
            .iter()
            .find(|&&(bound, _)| wire_bytes <= bound)
        {
            lat
        } else {
            // Past the plateau table: last plateau latency + per-byte gap
            // for the overhang.
            last_latency + SimDuration::from_ps((wire_bytes - last_boundary) * self.gap_ps_per_byte)
        };
        if wire_bytes > self.rendezvous_threshold {
            t += self.rendezvous_handshake;
        }
        t
    }
}

impl NetworkModel for MxModel {
    fn cost(&self, wire_bytes: u64) -> MsgCost {
        let total = self.total(wire_bytes);
        let sender = SimDuration::from_ps(total.as_ps() * self.sender_share_permille as u64 / 1000);
        let receiver =
            SimDuration::from_ps(total.as_ps() * self.receiver_share_permille as u64 / 1000);
        let transit = total - sender - receiver;
        MsgCost {
            sender,
            transit,
            receiver,
        }
    }

    fn name(&self) -> &'static str {
        "myrinet-mx-10g"
    }
}

/// Memoized pricing front-end for a [`NetworkModel`] / [`Topology`].
///
/// A simulation run touches only a handful of distinct wire sizes, while
/// pricing happens once per message; the cache turns the per-message dyn
/// dispatch + plateau search into one deterministic hash probe
/// (DESIGN.md §2.1). Since the topology refactor the key is the pair
/// `(link_class, wire_bytes)` rather than the size alone: two endpoints
/// on different link classes price the same size differently, and a
/// size-only key would leak one class's price into the other. Caching
/// remains sound because both `cost()` and `class_cost()` are pure
/// functions of that pair. Class 0 is the base model verbatim, so a
/// flat topology prices exactly as the size-only model does.
///
/// [`Topology`]: crate::topology::Topology
#[derive(Default)]
pub struct CostCache {
    map: det_sim::FxHashMap<(u8, u64), MsgCost>,
}

impl CostCache {
    pub fn new() -> Self {
        CostCache::default()
    }

    /// Price `wire_bytes` on link class `class` of `topo`, memoized.
    /// Callers must not price two different topologies through one cache.
    #[inline]
    pub fn price_class(
        &mut self,
        topo: &crate::topology::Topology,
        class: crate::topology::LinkClass,
        wire_bytes: u64,
    ) -> MsgCost {
        if let Some(&c) = self.map.get(&(class.0, wire_bytes)) {
            return c;
        }
        let c = topo.class_cost(class, wire_bytes);
        self.map.insert((class.0, wire_bytes), c);
        c
    }

    /// Number of distinct `(link_class, wire_bytes)` pairs priced so far.
    pub fn distinct_sizes(&self) -> usize {
        self.map.len()
    }
}

/// Plain TCP over the same 10G fabric: higher base latency (kernel stack),
/// same asymptotic bandwidth discounted by protocol overhead.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TcpModel {
    pub base_latency: SimDuration,
    pub gap_ps_per_byte: u64,
    pub sender_overhead: SimDuration,
    pub receiver_overhead: SimDuration,
}

impl Default for TcpModel {
    fn default() -> Self {
        TcpModel {
            base_latency: SimDuration::from_us(25),
            gap_ps_per_byte: 900, // ~1.1 GB/s effective
            sender_overhead: SimDuration::from_us(2),
            receiver_overhead: SimDuration::from_us(2),
        }
    }
}

impl NetworkModel for TcpModel {
    fn cost(&self, wire_bytes: u64) -> MsgCost {
        MsgCost {
            sender: self.sender_overhead,
            transit: self.base_latency + SimDuration::from_ps(wire_bytes * self.gap_ps_per_byte),
            receiver: self.receiver_overhead,
        }
    }

    fn name(&self) -> &'static str {
        "tcp-10g"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mx_small_message_plateau() {
        let mx = MxModel::default();
        for size in [1, 8, 16, 32] {
            assert_eq!(mx.latency(size), SimDuration::from_ns(3_300), "size {size}");
        }
        for size in [33, 64, 512, 1024] {
            assert_eq!(mx.latency(size), SimDuration::from_ns(4_000), "size {size}");
        }
    }

    #[test]
    fn mx_plateau_jump_is_the_paper_jump() {
        // The 32->33 B jump is 3.3 -> 4.0 us, i.e. ~21%: the first Figure 5
        // peak once piggybacking pushes a <=32 B payload past the boundary.
        let mx = MxModel::default();
        let before = mx.latency(32).as_ns_f64();
        let after = mx.latency(33).as_ns_f64();
        let jump = (after - before) / before;
        assert!((0.15..0.30).contains(&jump), "jump={jump}");
    }

    #[test]
    fn mx_latency_monotone_in_size() {
        let mx = MxModel::default();
        let sizes: Vec<u64> = (0..24).map(|i| 1u64 << i).collect();
        for w in sizes.windows(2) {
            assert!(
                mx.latency(w[0]) <= mx.latency(w[1]),
                "latency not monotone at {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn mx_asymptotic_bandwidth_near_10g() {
        let mx = MxModel::default();
        let bw = mx.bandwidth(64 * 1024 * 1024); // 64 MiB
        let gbps = bw * 8.0 / 1e9;
        assert!((9.0..=10.1).contains(&gbps), "asymptotic {gbps} Gb/s");
    }

    #[test]
    fn mx_rendezvous_adds_handshake() {
        let mx = MxModel::default();
        let just_below = mx.latency(mx.rendezvous_threshold);
        let just_above = mx.latency(mx.rendezvous_threshold + 1);
        let delta = just_above - just_below;
        assert!(delta >= mx.rendezvous_handshake);
    }

    #[test]
    fn mx_cost_splits_sum_to_total() {
        let mx = MxModel::default();
        for size in [1u64, 100, 4096, 1 << 20] {
            let c = mx.cost(size);
            assert_eq!(c.one_way(), c.sender + c.transit + c.receiver);
            assert!(c.sender > SimDuration::ZERO);
            assert!(c.receiver > SimDuration::ZERO);
            assert!(c.transit > SimDuration::ZERO);
        }
    }

    #[test]
    fn arrival_excludes_receiver_overhead() {
        let mx = MxModel::default();
        let c = mx.cost(128);
        let t0 = SimTime::from_us(100);
        assert_eq!(c.arrival(t0), t0 + c.sender + c.transit);
    }

    #[test]
    fn min_transit_is_the_infimum_over_sizes() {
        // The lookahead contract: no priced size may undercut
        // min_transit(). Sweep sizes across every plateau boundary and
        // the rendezvous threshold.
        let mx = MxModel::default();
        let tcp = TcpModel::default();
        let sizes: Vec<u64> = (0..26)
            .map(|i| 1u64 << i)
            .chain([0, 32, 33, 1024, 1025, 4096, 4097, 32 * 1024 + 1])
            .collect();
        for model in [&mx as &dyn NetworkModel, &tcp] {
            for &w in &sizes {
                assert!(
                    model.cost(w).transit >= model.min_transit(),
                    "{} transit({w}) < min_transit",
                    model.name()
                );
            }
            assert!(model.min_transit() > SimDuration::ZERO);
        }
    }

    #[test]
    fn tcp_slower_than_mx_for_small_messages() {
        let mx = MxModel::default();
        let tcp = TcpModel::default();
        assert!(tcp.latency(8) > mx.latency(8));
    }

    #[test]
    fn model_names() {
        assert_eq!(MxModel::default().name(), "myrinet-mx-10g");
        assert_eq!(TcpModel::default().name(), "tcp-10g");
    }

    #[test]
    fn cost_cache_is_transparent() {
        use crate::topology::{LinkClass, Topology};
        use std::sync::Arc;
        let mx = MxModel::default();
        let flat = Topology::flat(Arc::new(MxModel::default()), vec![0, 1]);
        let mut cache = CostCache::new();
        for &w in &[1u64, 32, 33, 1024, 1 << 16, 32, 1, 1 << 16] {
            assert_eq!(cache.price_class(&flat, LinkClass::LOCAL, w), mx.cost(w));
        }
        assert_eq!(cache.distinct_sizes(), 5);
    }

    #[test]
    fn cost_cache_keys_by_link_class_not_size_alone() {
        use crate::topology::{LinkClass, Topology, TopologyKind};
        use std::sync::Arc;
        let topo = Topology::new(
            TopologyKind::TwoLevel,
            Arc::new(MxModel::default()),
            vec![0, 0, 1, 1],
        );
        let mx = MxModel::default();
        let mut cache = CostCache::new();
        // Same wire size, two classes: distinct entries, distinct prices.
        let local = cache.price_class(&topo, LinkClass(0), 4096);
        let inter = cache.price_class(&topo, LinkClass(1), 4096);
        assert_eq!(local, mx.cost(4096));
        assert!(inter.transit > local.transit);
        assert_eq!(cache.distinct_sizes(), 2);
        // A repeat hits the cached class-0 entry.
        assert_eq!(cache.price_class(&topo, LinkClass(0), 4096), local);
        assert_eq!(cache.distinct_sizes(), 2);
    }

    /// A pathological model whose every cost is zero: `bandwidth()` must
    /// degrade to rate 0, never inf/NaN (ISSUE 10 satellite; same
    /// treatment the telemetry samplers pin for degenerate intervals).
    struct ZeroModel;
    impl NetworkModel for ZeroModel {
        fn cost(&self, _wire_bytes: u64) -> MsgCost {
            MsgCost::default()
        }
        fn name(&self) -> &'static str {
            "zero"
        }
    }

    #[test]
    fn bandwidth_never_produces_nan_or_inf() {
        let mx = MxModel::default();
        let tcp = TcpModel::default();
        let zero = ZeroModel;
        for model in [&mx as &dyn NetworkModel, &tcp, &zero] {
            for w in [0u64, 1, 32, 1024, 1 << 20] {
                let bw = model.bandwidth(w);
                assert!(bw.is_finite(), "{} bandwidth({w}) = {bw}", model.name());
                assert!(bw >= 0.0);
            }
        }
        // The two degenerate corners explicitly: zero bytes and zero latency.
        assert_eq!(mx.bandwidth(0), 0.0);
        assert_eq!(zero.bandwidth(1 << 20), 0.0);
        assert_eq!(zero.bandwidth(0), 0.0);
    }
}
