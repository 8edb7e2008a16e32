//! Rank programs — the application-programming API.
//!
//! A simulated application is one op-stream per rank. The streams are fixed
//! before the run, which gives the execution model of the paper's §II-C:
//! the *sequence* of send and receive events per process is
//! program-determined; only the order in which wildcard receives are filled
//! varies with timing — exactly the nondeterminism send-determinism
//! tolerates.
//!
//! ## Representation (DESIGN.md §2.2)
//!
//! There is one representation, [`GenProgram`]: a per-iteration body of
//! [`OpTemplate`]s repeated `iterations` times, read by the engine as a
//! random-access view `op_at(pc) -> Option<Op>` with closed-form
//! metadata. Memory is O(body), not O(body × iterations); every workload
//! generator produces these. Hand-built tests use the one-iteration case
//! through the chainable builder of [`Application::rank_mut`].

use crate::types::{Rank, Tag};
use det_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One step of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Send `bytes` to `dst` with `tag`.
    Send { dst: Rank, bytes: u64, tag: Tag },
    /// Blocking receive of the next message from `src` with `tag`.
    Recv { src: Rank, tag: Tag },
    /// Blocking wildcard receive (`MPI_ANY_SOURCE`): the next message with
    /// `tag` from any source, in arrival order.
    RecvAny { tag: Tag },
    /// Local computation for `time`.
    Compute { time: SimDuration },
}

/// Iterator over a [`GenProgram`]'s ops by walking `op_at`.
pub struct OpStream<'a> {
    prog: &'a GenProgram,
    pc: usize,
}

impl<'a> OpStream<'a> {
    pub fn new(prog: &'a GenProgram) -> Self {
        OpStream { prog, pc: 0 }
    }
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let op = self.prog.op_at(self.pc)?;
        self.pc += 1;
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.prog.len().saturating_sub(self.pc);
        (rest, Some(rest))
    }
}

/// One slot of a [`GenProgram`] body: how the op at this body position
/// varies (or not) with the iteration index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpTemplate {
    /// The same op every iteration.
    Fixed(Op),
    /// `op` with its tag advanced by `stride` per iteration — the
    /// per-epoch tagging rule of DESIGN.md §3 in closed form. A
    /// `Compute` op is returned unchanged.
    IterTag { op: Op, stride: u32 },
    /// Compute of `base * (1 + (offset + iter * stride) % modulus)` —
    /// deterministic per-iteration jitter (master/worker staggering).
    IterCompute {
        base: SimDuration,
        offset: u64,
        stride: u64,
        modulus: u64,
    },
}

impl OpTemplate {
    /// Resolve the template for iteration `iter`.
    pub fn at(&self, iter: usize) -> Op {
        match *self {
            OpTemplate::Fixed(op) => op,
            OpTemplate::IterTag { op, stride } => {
                let bump = stride.wrapping_mul(iter as u32);
                match op {
                    Op::Send { dst, bytes, tag } => Op::Send {
                        dst,
                        bytes,
                        tag: Tag(tag.0.wrapping_add(bump)),
                    },
                    Op::Recv { src, tag } => Op::Recv {
                        src,
                        tag: Tag(tag.0.wrapping_add(bump)),
                    },
                    Op::RecvAny { tag } => Op::RecvAny {
                        tag: Tag(tag.0.wrapping_add(bump)),
                    },
                    Op::Compute { .. } => op,
                }
            }
            OpTemplate::IterCompute {
                base,
                offset,
                stride,
                modulus,
            } => {
                let k = 1 + (offset.wrapping_add(iter as u64 * stride)) % modulus.max(1);
                Op::Compute { time: base * k }
            }
        }
    }

    fn base_op(&self) -> Op {
        match *self {
            OpTemplate::Fixed(op) | OpTemplate::IterTag { op, .. } => op,
            OpTemplate::IterCompute { base, .. } => Op::Compute { time: base },
        }
    }
}

/// A rank's program: a per-iteration body repeated `iterations` times.
///
/// `op_at(pc)` decomposes `pc` into `(iteration, body position)` and
/// evaluates the template — O(1), no materialisation. Memory is O(body),
/// not O(body × iterations): the representation that makes
/// thousand-rank, long-horizon applications setup- and memory-free
/// (DESIGN.md §2.2).
///
/// The contract the engine relies on:
///
/// * **Purity in `pc`** — `op_at(pc)` returns the same op for the same
///   `pc` for the lifetime of the value. The engine seeks freely:
///   forward during execution, backward when HydEE rolls a rank's `pc`
///   to a checkpoint cut and replays.
/// * **Contiguity** — `op_at(pc)` is `Some` exactly for `pc < len()`.
/// * Metadata (`send_count`, `bytes_sent`, …) is closed form over the
///   body and equals what a full walk of `op_at(0..len())` produces.
///
/// A one-iteration program doubles as an op-by-op builder
/// ([`GenProgram::send`] and friends append `Fixed` templates), which is
/// what [`Application::new`] hands out.
#[derive(Debug, Clone)]
pub struct GenProgram {
    body: Vec<OpTemplate>,
    iterations: usize,
}

impl GenProgram {
    pub fn new(body: Vec<OpTemplate>, iterations: usize) -> Self {
        GenProgram { body, iterations }
    }

    /// Body of iteration-invariant ops repeated `iterations` times.
    pub fn from_ops(ops: impl IntoIterator<Item = Op>, iterations: usize) -> Self {
        GenProgram {
            body: ops.into_iter().map(OpTemplate::Fixed).collect(),
            iterations,
        }
    }

    /// Append `op` to a one-iteration program.
    fn push(&mut self, op: Op) -> &mut Self {
        assert!(
            self.iterations == 1,
            "op-by-op building needs a one-iteration program; this one repeats {} times",
            self.iterations
        );
        self.body.push(OpTemplate::Fixed(op));
        self
    }

    pub fn send(&mut self, dst: Rank, bytes: u64, tag: Tag) -> &mut Self {
        self.push(Op::Send { dst, bytes, tag })
    }

    pub fn recv(&mut self, src: Rank, tag: Tag) -> &mut Self {
        self.push(Op::Recv { src, tag })
    }

    pub fn recv_any(&mut self, tag: Tag) -> &mut Self {
        self.push(Op::RecvAny { tag })
    }

    pub fn compute(&mut self, time: SimDuration) -> &mut Self {
        self.push(Op::Compute { time })
    }

    /// Total number of ops.
    pub fn len(&self) -> usize {
        self.body.len() * self.iterations
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The op at program counter `pc`, or `None` for `pc >= len()`.
    #[inline]
    pub fn op_at(&self, pc: usize) -> Option<Op> {
        if self.body.is_empty() {
            return None;
        }
        let iter = pc / self.body.len();
        if iter >= self.iterations {
            return None;
        }
        Some(self.body[pc % self.body.len()].at(iter))
    }

    /// Number of send operations (the messages the rank emits in a
    /// complete failure-free run).
    pub fn send_count(&self) -> usize {
        self.body
            .iter()
            .filter(|t| matches!(t.base_op(), Op::Send { .. }))
            .count()
            * self.iterations
    }

    /// Number of receive operations (specific + wildcard).
    pub fn recv_count(&self) -> usize {
        self.body
            .iter()
            .filter(|t| matches!(t.base_op(), Op::Recv { .. } | Op::RecvAny { .. }))
            .count()
            * self.iterations
    }

    /// Total bytes this program will send.
    pub fn bytes_sent(&self) -> u64 {
        self.body
            .iter()
            .map(|t| match t.base_op() {
                Op::Send { bytes, .. } => bytes,
                _ => 0,
            })
            .sum::<u64>()
            * self.iterations as u64
    }

    /// Stream aggregated send totals as `f(dst, bytes, messages)` chunks
    /// (a destination may appear in several chunks). Clustering builds
    /// communication graphs from this without walking every op.
    pub fn send_summary(&self, mut f: impl FnMut(Rank, u64, u64)) {
        for t in &self.body {
            if let Op::Send { dst, bytes, .. } = t.base_op() {
                f(dst, bytes * self.iterations as u64, self.iterations as u64);
            }
        }
    }

    /// Approximate heap bytes resident for this program (the quantity
    /// the perf baseline's memory columns report).
    pub fn resident_bytes(&self) -> u64 {
        (self.body.capacity() * std::mem::size_of::<OpTemplate>() + std::mem::size_of::<Self>())
            as u64
    }
}

/// A complete application: one [`GenProgram`] per rank, rank r at
/// index r.
#[derive(Debug, Clone, Default)]
pub struct Application {
    programs: Vec<Arc<GenProgram>>,
}

impl Application {
    /// `n_ranks` empty one-iteration programs: extend with
    /// [`Application::rank_mut`].
    pub fn new(n_ranks: usize) -> Self {
        Application {
            programs: (0..n_ranks)
                .map(|_| Arc::new(GenProgram::new(Vec::new(), 1)))
                .collect(),
        }
    }

    /// Build `n_ranks` generated programs from a per-rank constructor.
    pub fn generated_with(n_ranks: usize, mut f: impl FnMut(Rank) -> GenProgram) -> Self {
        Application {
            programs: (0..n_ranks).map(|i| Arc::new(f(Rank(i as u32)))).collect(),
        }
    }

    /// Reinterpret a *one-iteration* application as `iterations` lazy
    /// repetitions of itself. The universal generator transformation for
    /// workloads whose iterations are identical (all NAS skeletons).
    ///
    /// Panics unless every rank's program has exactly one iteration.
    pub fn repeated(mut self, iterations: usize) -> Application {
        for p in &mut self.programs {
            let p = Arc::make_mut(p);
            assert!(
                p.iterations == 1,
                "Application::repeated needs one-iteration programs"
            );
            p.body.shrink_to_fit();
            p.iterations = iterations;
        }
        self
    }

    pub fn n_ranks(&self) -> usize {
        self.programs.len()
    }

    /// Mutable builder access to rank `r`'s program (copied first if
    /// shared with a clone of this application). Appending panics unless
    /// the program has exactly one iteration.
    pub fn rank_mut(&mut self, r: Rank) -> &mut GenProgram {
        Arc::make_mut(&mut self.programs[r.idx()])
    }

    /// Rank `r`'s program.
    pub fn rank(&self, r: Rank) -> &GenProgram {
        &self.programs[r.idx()]
    }

    /// Iterate rank `r`'s ops lazily.
    pub fn ops(&self, r: Rank) -> OpStream<'_> {
        OpStream::new(self.rank(r))
    }

    /// Surrender the per-rank programs to the engine.
    pub(crate) fn into_programs(self) -> Vec<Arc<GenProgram>> {
        self.programs
    }

    /// Total bytes sent across all ranks in a failure-free run.
    pub fn total_bytes(&self) -> u64 {
        self.programs.iter().map(|p| p.bytes_sent()).sum()
    }

    /// Total messages sent across all ranks in a failure-free run.
    pub fn total_messages(&self) -> u64 {
        self.programs.iter().map(|p| p.send_count() as u64).sum()
    }

    /// Heap bytes resident in the program representation itself.
    pub fn resident_bytes(&self) -> u64 {
        self.programs.iter().map(|p| p.resident_bytes()).sum()
    }

    /// Heap bytes a fully materialised `Vec<Op>` representation of the
    /// same application would hold — the denominator of the perf
    /// baseline's memory-win columns.
    pub fn unrolled_bytes(&self) -> u64 {
        self.programs
            .iter()
            .map(|p| (p.len() * std::mem::size_of::<Op>()) as u64)
            .sum()
    }

    /// Stream aggregated send totals across all ranks as
    /// `f(src, dst, bytes, messages)` chunks (closed form over each
    /// program's body; a channel may appear in several chunks).
    pub fn send_summary(&self, mut f: impl FnMut(Rank, Rank, u64, u64)) {
        for (src, p) in self.programs.iter().enumerate() {
            let src = Rank(src as u32);
            p.send_summary(|dst, bytes, msgs| f(src, dst, bytes, msgs));
        }
    }

    /// Sanity-check that every send has a matching receive: for each
    /// `(src, dst, tag)` the number of sends equals the number of specific
    /// receives plus a share of wildcard receives. Returns a human-readable
    /// error for the first mismatch found.
    ///
    /// The check is necessarily approximate in the presence of wildcards:
    /// it verifies per-destination totals (sends targeting `d` == receive
    /// ops on `d`) and per-`(src,dst,tag)` specific-receive feasibility.
    pub fn check_balance(&self) -> Result<(), String> {
        use std::collections::BTreeMap;
        let n = self.n_ranks();
        // sends[dst] and recvs[dst] totals.
        let mut sends_to = vec![0i64; n];
        let mut recv_at = vec![0i64; n];
        // per (src, dst, tag) sends and specific recvs; wildcard recvs per (dst, tag).
        let mut chan_sends: BTreeMap<(u32, u32, u32), i64> = BTreeMap::new();
        let mut chan_recvs: BTreeMap<(u32, u32, u32), i64> = BTreeMap::new();
        let mut wild: BTreeMap<(u32, u32), i64> = BTreeMap::new();
        #[allow(clippy::needless_range_loop)] // src feeds both ops() and recv_at[]
        for src in 0..n {
            for op in self.ops(Rank(src as u32)) {
                match op {
                    Op::Send { dst, tag, .. } => {
                        sends_to[dst.idx()] += 1;
                        *chan_sends.entry((src as u32, dst.0, tag.0)).or_default() += 1;
                    }
                    Op::Recv { src: from, tag } => {
                        recv_at[src] += 1;
                        *chan_recvs.entry((from.0, src as u32, tag.0)).or_default() += 1;
                    }
                    Op::RecvAny { tag } => {
                        recv_at[src] += 1;
                        *wild.entry((src as u32, tag.0)).or_default() += 1;
                    }
                    Op::Compute { .. } => {}
                }
            }
        }
        for r in 0..n {
            if sends_to[r] != recv_at[r] {
                return Err(format!(
                    "rank {r}: {} messages sent to it but {} receive ops",
                    sends_to[r], recv_at[r]
                ));
            }
        }
        // Every specific recv must have at least as many sends on its channel.
        for (&(s, d, t), &nrecv) in &chan_recvs {
            let nsend = chan_sends.get(&(s, d, t)).copied().unwrap_or(0);
            if nsend < nrecv {
                return Err(format!(
                    "channel P{s}->P{d} tag {t}: {nrecv} specific recvs but only {nsend} sends"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut p = GenProgram::new(Vec::new(), 1);
        p.send(Rank(1), 100, Tag(0))
            .recv(Rank(1), Tag(0))
            .compute(SimDuration::from_us(5))
            .recv_any(Tag(1));
        assert_eq!(p.len(), 4);
        assert_eq!(p.send_count(), 1);
        assert_eq!(p.recv_count(), 2);
        assert_eq!(p.bytes_sent(), 100);
    }

    #[test]
    fn application_totals() {
        let mut app = Application::new(2);
        app.rank_mut(Rank(0)).send(Rank(1), 10, Tag(0));
        app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
        app.rank_mut(Rank(1)).send(Rank(0), 20, Tag(0));
        app.rank_mut(Rank(0)).recv(Rank(1), Tag(0));
        assert_eq!(app.total_bytes(), 30);
        assert_eq!(app.total_messages(), 2);
        assert!(app.check_balance().is_ok());
    }

    #[test]
    fn balance_catches_missing_recv() {
        let mut app = Application::new(2);
        app.rank_mut(Rank(0)).send(Rank(1), 10, Tag(0));
        let err = app.check_balance().unwrap_err();
        assert!(err.contains("rank 1"), "{err}");
    }

    #[test]
    fn balance_catches_wrong_channel() {
        let mut app = Application::new(3);
        app.rank_mut(Rank(0)).send(Rank(1), 10, Tag(0));
        // Rank 1 waits for rank 2, which never sends; totals match, channel
        // check catches it.
        app.rank_mut(Rank(1)).recv(Rank(2), Tag(0));
        let err = app.check_balance().unwrap_err();
        assert!(err.contains("P2->P1"), "{err}");
    }

    #[test]
    fn balance_accepts_wildcards() {
        let mut app = Application::new(3);
        app.rank_mut(Rank(0)).send(Rank(2), 10, Tag(7));
        app.rank_mut(Rank(1)).send(Rank(2), 10, Tag(7));
        app.rank_mut(Rank(2)).recv_any(Tag(7)).recv_any(Tag(7));
        assert!(app.check_balance().is_ok());
    }

    #[test]
    fn gen_program_is_pure_and_contiguous_in_pc() {
        let g = GenProgram::new(
            vec![
                OpTemplate::Fixed(Op::Compute {
                    time: SimDuration::from_us(1),
                }),
                OpTemplate::IterTag {
                    op: Op::Send {
                        dst: Rank(1),
                        bytes: 64,
                        tag: Tag(5),
                    },
                    stride: 2,
                },
            ],
            3,
        );
        assert_eq!(g.len(), 6);
        // Contiguity: Some exactly below len.
        for pc in 0..g.len() {
            assert!(g.op_at(pc).is_some(), "pc={pc}");
        }
        assert_eq!(g.op_at(6), None);
        // Purity: seeking back returns the identical op.
        let first = g.op_at(3);
        let _ = g.op_at(5);
        assert_eq!(g.op_at(3), first);
        // Tag advances per iteration.
        assert_eq!(
            g.op_at(5),
            Some(Op::Send {
                dst: Rank(1),
                bytes: 64,
                tag: Tag(9)
            })
        );
    }

    #[test]
    fn gen_metadata_matches_a_full_walk() {
        let g = GenProgram::new(
            vec![
                OpTemplate::IterCompute {
                    base: SimDuration::from_us(10),
                    offset: 3,
                    stride: 13,
                    modulus: 7,
                },
                OpTemplate::Fixed(Op::Send {
                    dst: Rank(2),
                    bytes: 100,
                    tag: Tag(0),
                }),
                OpTemplate::Fixed(Op::RecvAny { tag: Tag(0) }),
            ],
            11,
        );
        let walked: Vec<Op> = OpStream::new(&g).collect();
        assert_eq!(walked.len(), g.len());
        assert_eq!(
            g.send_count(),
            walked
                .iter()
                .filter(|o| matches!(o, Op::Send { .. }))
                .count()
        );
        assert_eq!(
            g.recv_count(),
            walked
                .iter()
                .filter(|o| matches!(o, Op::Recv { .. } | Op::RecvAny { .. }))
                .count()
        );
        assert_eq!(g.bytes_sent(), 11 * 100);
        let mut summed = 0u64;
        let mut msgs = 0u64;
        g.send_summary(&mut |_, b, m| {
            summed += b;
            msgs += m;
        });
        assert_eq!(summed, g.bytes_sent());
        assert_eq!(msgs, g.send_count() as u64);
    }

    #[test]
    fn iter_compute_jitter_is_deterministic_per_iteration() {
        let t = OpTemplate::IterCompute {
            base: SimDuration::from_us(100),
            offset: 2,
            stride: 13,
            modulus: 7,
        };
        for iter in 0..20 {
            let expect = SimDuration::from_us(100) * (1 + (2 + iter as u64 * 13) % 7);
            assert_eq!(t.at(iter), Op::Compute { time: expect });
        }
    }

    #[test]
    fn repeated_equals_manual_unroll() {
        let mut one = Application::new(2);
        one.rank_mut(Rank(0)).send(Rank(1), 8, Tag(3));
        one.rank_mut(Rank(1)).recv(Rank(0), Tag(3));
        let gen = one.clone().repeated(4);
        let mut unrolled = Application::new(2);
        for _ in 0..4 {
            unrolled.rank_mut(Rank(0)).send(Rank(1), 8, Tag(3));
            unrolled.rank_mut(Rank(1)).recv(Rank(0), Tag(3));
        }
        for r in 0..2u32 {
            let a: Vec<Op> = gen.ops(Rank(r)).collect();
            let b: Vec<Op> = unrolled.ops(Rank(r)).collect();
            assert_eq!(a, b, "rank {r}");
        }
        assert_eq!(gen.total_bytes(), unrolled.total_bytes());
        assert!(gen.resident_bytes() < unrolled.resident_bytes());
    }

    #[test]
    #[should_panic(expected = "needs a one-iteration program")]
    fn building_onto_a_generated_rank_panics() {
        let mut app = Application::generated_with(1, |_| GenProgram::from_ops([], 0));
        app.rank_mut(Rank(0)).send(Rank(0), 1, Tag(0));
    }
}
