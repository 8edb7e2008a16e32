//! Application state model: payload generation and state digests.
//!
//! Real payloads are not materialised. Instead:
//!
//! * every sent message carries a deterministic 64-bit **payload digest**;
//! * every rank folds the digests it receives into a running **state
//!   digest**.
//!
//! The fold comes in two flavours, mirroring the paper's §II-B taxonomy:
//!
//! * [`DetMode::SendDeterministic`] — payloads depend only on the message's
//!   channel identity and per-channel sequence number, and the state fold is
//!   *commutative*. Reordering wildcard deliveries changes nothing
//!   observable: this models the send-deterministic applications HydEE
//!   targets (the sequence of messages sent by each process is the same in
//!   any correct execution).
//! * [`DetMode::OrderSensitive`] — payloads are chained through the state
//!   digest, so the content of a sent message depends on the *order* of
//!   prior deliveries. This models non-send-deterministic applications
//!   (e.g. master/worker) and is used by tests to demonstrate where HydEE's
//!   assumption is load-bearing.

use crate::types::{mix2, mix64, Rank};
use serde::{Deserialize, Serialize};

/// Determinism class of the simulated application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DetMode {
    /// Sent payloads are independent of receive order (paper's Definition 3).
    #[default]
    SendDeterministic,
    /// Sent payloads depend on receive order (violates send-determinism).
    OrderSensitive,
}

/// Per-rank application state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AppState {
    pub mode: DetMode,
    /// Running digest of everything delivered so far.
    pub digest: u64,
    /// Count of deliveries folded into `digest`.
    pub delivered: u64,
}

impl AppState {
    pub fn new(rank: Rank, mode: DetMode) -> Self {
        AppState {
            mode,
            digest: mix64(0x5EED_0000_0000_0000 ^ rank.0 as u64),
            delivered: 0,
        }
    }

    /// Payload digest for the `channel_seq`-th message on channel
    /// `src -> dst`.
    ///
    /// In send-deterministic mode this is a pure function of the channel
    /// and sequence number — by construction the same message is sent in
    /// any execution, whatever the interleaving. In order-sensitive mode
    /// the current state digest (which encodes delivery order) is mixed in.
    pub fn payload_for_send(&self, src: Rank, dst: Rank, channel_seq: u64) -> u64 {
        let base = mix2(mix2(src.0 as u64 + 1, dst.0 as u64 + 1), channel_seq);
        match self.mode {
            DetMode::SendDeterministic => base,
            DetMode::OrderSensitive => mix2(base, self.digest),
        }
    }

    /// Fold a delivered payload into the state digest.
    pub fn deliver(&mut self, payload: u64) {
        self.delivered += 1;
        match self.mode {
            DetMode::SendDeterministic => {
                // Commutative + associative fold: wrapping sum of mixed
                // payloads. Delivery order is unobservable.
                self.digest = self.digest.wrapping_add(mix64(payload));
            }
            DetMode::OrderSensitive => {
                // Order-chaining fold: digest depends on the sequence.
                self.digest = mix2(self.digest, payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_det_payload_ignores_state() {
        let mut a = AppState::new(Rank(0), DetMode::SendDeterministic);
        let before = a.payload_for_send(Rank(0), Rank(1), 3);
        a.deliver(12345);
        a.deliver(67890);
        let after = a.payload_for_send(Rank(0), Rank(1), 3);
        assert_eq!(before, after);
    }

    #[test]
    fn order_sensitive_payload_tracks_state() {
        let mut a = AppState::new(Rank(0), DetMode::OrderSensitive);
        let before = a.payload_for_send(Rank(0), Rank(1), 3);
        a.deliver(12345);
        let after = a.payload_for_send(Rank(0), Rank(1), 3);
        assert_ne!(before, after);
    }

    #[test]
    fn send_det_fold_is_commutative() {
        let mut a = AppState::new(Rank(5), DetMode::SendDeterministic);
        let mut b = AppState::new(Rank(5), DetMode::SendDeterministic);
        a.deliver(111);
        a.deliver(222);
        a.deliver(333);
        b.deliver(333);
        b.deliver(111);
        b.deliver(222);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.delivered, 3);
    }

    #[test]
    fn order_sensitive_fold_is_not_commutative() {
        let mut a = AppState::new(Rank(5), DetMode::OrderSensitive);
        let mut b = AppState::new(Rank(5), DetMode::OrderSensitive);
        a.deliver(111);
        a.deliver(222);
        b.deliver(222);
        b.deliver(111);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn distinct_ranks_distinct_seeds() {
        let a = AppState::new(Rank(0), DetMode::SendDeterministic);
        let b = AppState::new(Rank(1), DetMode::SendDeterministic);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn payload_distinguishes_channel_and_seq() {
        let a = AppState::new(Rank(0), DetMode::SendDeterministic);
        let p1 = a.payload_for_send(Rank(0), Rank(1), 1);
        let p2 = a.payload_for_send(Rank(0), Rank(1), 2);
        let p3 = a.payload_for_send(Rank(0), Rank(2), 1);
        let p4 = a.payload_for_send(Rank(1), Rank(0), 1);
        assert!(p1 != p2 && p1 != p3 && p1 != p4 && p3 != p4);
    }
}
