//! NetPIPE — the ping-pong micro-benchmark of the paper's Figure 5.
//!
//! Two ranks bounce a message of a given size back and forth; latency is
//! half the measured round-trip, bandwidth is `size / latency`. The size
//! ladder follows NetPIPE's classic progression (powers of two plus
//! perturbation points around each, which is what exposes the MX plateau
//! edges that HydEE's piggybacking trips over).

use mps_sim::{Application, GenProgram, Op, Rank, Tag};

/// Build a ping-pong application: `rounds` round trips of `bytes`.
/// Each rank is a two-op body repeated lazily per round.
pub fn ping_pong(rounds: usize, bytes: u64) -> Application {
    Application::generated_with(2, |me| {
        let send = Op::Send {
            dst: Rank(1 - me.0),
            bytes,
            tag: Tag(0),
        };
        let recv = Op::Recv {
            src: Rank(1 - me.0),
            tag: Tag(0),
        };
        let body = if me == Rank(0) {
            vec![send, recv]
        } else {
            vec![recv, send]
        };
        GenProgram::from_ops(body, rounds)
    })
}

/// NetPIPE-style message-size ladder from 1 B to `max` (inclusive-ish):
/// for each power of two `p`, the sizes `p-1`, `p`, `p+1` (deduplicated,
/// sorted). The perturbation points land on either side of MX packet
/// plateaus, which is where Figure 5's peaks live.
pub fn size_ladder(max: u64) -> Vec<u64> {
    let mut sizes = vec![1u64, 2, 3];
    let mut p = 4u64;
    while p <= max {
        sizes.push(p - 1);
        sizes.push(p);
        if p < max {
            sizes.push(p + 1);
        }
        p *= 2;
    }
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sim::{NullProtocol, Sim, SimConfig};

    #[test]
    fn ping_pong_round_trip_count() {
        let app = ping_pong(7, 100);
        assert_eq!(app.total_messages(), 14);
        assert!(app.check_balance().is_ok());
        let report = Sim::new(app, SimConfig::default(), NullProtocol).run();
        assert!(report.completed());
    }

    #[test]
    fn ladder_is_sorted_unique_and_brackets_powers() {
        let l = size_ladder(1 << 20);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
        assert!(l.contains(&31) && l.contains(&32) && l.contains(&33));
        assert!(l.contains(&1023) && l.contains(&1024) && l.contains(&1025));
        assert_eq!(*l.first().unwrap(), 1);
        assert!(*l.last().unwrap() <= (1 << 20) + 1);
    }

    #[test]
    fn ladder_small_max() {
        assert_eq!(size_ladder(4), vec![1, 2, 3, 4]);
    }
}
