//! The per-sender `Trace` against a plain map model.
//!
//! `mps_sim::Trace` interns send identities in per-sender tables of
//! per-channel arrays, with a sparse map for sequence numbers off the
//! dense prefix. The model is one `BTreeMap<(ChannelId, seq),
//! SendIdentity>`: a first emission interns, any later one is compared.
//! Random `record_send` / `check_replay` calls — sequence number 0,
//! out-of-sequence numbers, equal and changed re-emissions — must give
//! the same violations, consistent re-emission count and distinct-message
//! count on both. `absorb` of two traces over disjoint senders must equal
//! the trace of the union.

use mps_sim::trace::SendIdentity;
use mps_sim::{ChannelId, Message, PbMeta, Rank, Tag, Trace};
use proptest::prelude::*;
use std::collections::BTreeMap;

const RANKS: u32 = 4;

/// The oracle's contract, one map entry per message.
#[derive(Default)]
struct Model {
    ids: BTreeMap<(ChannelId, u64), SendIdentity>,
    /// The kind of each violation, in order.
    violations: Vec<&'static str>,
    consistent_reemissions: u64,
}

fn identity(msg: &Message) -> SendIdentity {
    SendIdentity {
        bytes: msg.bytes,
        payload: msg.payload,
    }
}

impl Model {
    fn record_send(&mut self, msg: &Message) {
        match self.ids.get(&msg.id()) {
            None => {
                self.ids.insert(msg.id(), identity(msg));
            }
            Some(&orig) if orig == identity(msg) => self.consistent_reemissions += 1,
            Some(_) => self.violations.push("send-determinism violation"),
        }
    }

    fn check_replay(&mut self, msg: &Message) {
        match self.ids.get(&msg.id()) {
            Some(&orig) if orig == identity(msg) => self.consistent_reemissions += 1,
            Some(_) => self.violations.push("replay mismatch"),
            None => self.violations.push("replay of never-sent"),
        }
    }
}

/// The kind of a `Trace` violation: the model's name for it.
fn kind(violation: &str) -> &'static str {
    [
        "send-determinism violation",
        "replay mismatch",
        "replay of never-sent",
    ]
    .into_iter()
    .find(|k| violation.starts_with(k))
    .unwrap_or_else(|| panic!("unknown violation {violation:?}"))
}

/// One oracle call.
#[derive(Debug, Clone, Copy)]
struct Call {
    replay: bool,
    msg: Message,
}

/// Decode fuzz input into calls. Most sends take their channel's next
/// sequence number, so the dense prefix grows; the rest re-emit an
/// earlier number, use 0, or jump ahead of the prefix. Sizes and
/// payloads come from small sets, so re-emissions are often equal and
/// often changed.
fn decode(raw: &[(u8, u8, u8, u8)]) -> Vec<Call> {
    let mut next: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    raw.iter()
        .map(|&(op, chan, seq_pick, content)| {
            let (src, dst) = (chan as u32 % RANKS, chan as u32 / 4 % RANKS);
            let n = next.entry((src, dst)).or_insert(1);
            let seq = match seq_pick % 8 {
                0 => 0,
                1 => *n + 1 + seq_pick as u64 / 8 % 3,
                2 | 3 => 1 + seq_pick as u64 % *n,
                _ => {
                    *n += 1;
                    *n - 1
                }
            };
            Call {
                replay: op % 4 == 0,
                msg: Message {
                    src: Rank(src),
                    dst: Rank(dst),
                    tag: Tag(0),
                    bytes: [8, 64][content as usize % 2],
                    payload: content as u64 / 2 % 3,
                    channel_seq: seq,
                    meta: PbMeta::default(),
                    replayed: op % 4 == 0,
                },
            }
        })
        .collect()
}

fn apply(trace: &mut Trace, calls: impl IntoIterator<Item = Call>) {
    for c in calls {
        if c.replay {
            trace.check_replay(&c.msg);
        } else {
            trace.record_send(&c.msg);
        }
    }
}

fn kinds(trace: &Trace) -> Vec<&'static str> {
    trace.violations.iter().map(|v| kind(v)).collect()
}

proptest! {
    #[test]
    fn trace_matches_map_model(
        raw in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..300)
    ) {
        let mut trace = Trace::default();
        let mut model = Model::default();
        for c in decode(&raw) {
            apply(&mut trace, [c]);
            if c.replay {
                model.check_replay(&c.msg);
            } else {
                model.record_send(&c.msg);
            }
            prop_assert_eq!(kinds(&trace), model.violations.clone());
            prop_assert_eq!(trace.consistent_reemissions, model.consistent_reemissions);
            prop_assert_eq!(trace.distinct_messages(), model.ids.len());
        }
        // Every interned identity answers the oracle, and a changed one
        // is caught.
        for (&(ch, seq), &id) in &model.ids {
            let mut msg = Message {
                src: ch.src,
                dst: ch.dst,
                tag: Tag(0),
                bytes: id.bytes,
                payload: id.payload,
                channel_seq: seq,
                meta: PbMeta::default(),
                replayed: true,
            };
            let (before, vs) = (trace.consistent_reemissions, trace.violations.len());
            trace.check_replay(&msg);
            prop_assert_eq!(trace.consistent_reemissions, before + 1);
            msg.payload ^= 0x100;
            trace.check_replay(&msg);
            prop_assert_eq!(trace.violations.len(), vs + 1);
        }
    }

    /// Sends are recorded on their sender's shard: two traces over
    /// disjoint senders absorb into the trace of all the calls.
    #[test]
    fn absorb_of_disjoint_senders_equals_union(
        raw in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..300),
        mask in 0u8..16
    ) {
        let calls = decode(&raw);
        let mine = |c: &Call| mask >> c.msg.src.0 & 1 == 1;
        let mut a = Trace::default();
        apply(&mut a, calls.iter().copied().filter(|c| mine(c)));
        let mut b = Trace::default();
        apply(&mut b, calls.iter().copied().filter(|c| !mine(c)));
        let mut union = Trace::default();
        apply(&mut union, calls.iter().copied());
        a.absorb(b);
        prop_assert_eq!(a.distinct_messages(), union.distinct_messages());
        prop_assert_eq!(a.consistent_reemissions, union.consistent_reemissions);
        let (mut va, mut vu) = (a.violations.clone(), union.violations.clone());
        va.sort();
        vu.sort();
        prop_assert_eq!(va, vu);
        // Both answer every later call alike.
        let (va, vu) = (a.violations.len(), union.violations.len());
        apply(&mut a, calls.iter().copied());
        apply(&mut union, calls.iter().copied());
        prop_assert_eq!(a.consistent_reemissions, union.consistent_reemissions);
        prop_assert_eq!(&a.violations[va..], &union.violations[vu..]);
    }
}
