//! Golden pins for the workload generators.
//!
//! Every registry workload builds lazy `GenProgram`s. The seed-era
//! materialised builders are gone; what they proved lives on as golden
//! values recorded while both forms still existed and agreed op for op:
//! an FNV-1a-64 digest of every rank's op stream, the op count and the
//! resident bytes of each instance, and the digests, makespan and event
//! count of five engine runs. The tests also check the closed-form
//! metadata against a full `op_at` walk.

use mps_sim::{Application, NullProtocol, Op, Rank, Sim, SimConfig};
use workloads::WorkloadSpec;

/// Small-but-representative instances of every registry family (all six
/// NAS benches, netpipe, stencil with and without wildcards, and the
/// non-send-deterministic master/worker), each with its pinned op-stream
/// digest, total op count and `Application::resident_bytes`.
const OP_STREAM_PINS: [(&str, u64, usize, u64); 11] = [
    (
        "nas:BT:scale=0.0001:iters=2",
        0x0690_e07e_8274_c725,
        6656,
        141_312,
    ),
    (
        "nas:CG:scale=0.0001:iters=2",
        0xcf13_9eda_4532_1655,
        5568,
        119_552,
    ),
    (
        "nas:FT:scale=0.0001:iters=2",
        0x24ea_2419_a3ef_1e25,
        261_632,
        5_240_832,
    ),
    (
        "nas:LU:scale=0.0001:iters=2",
        0x7a12_e18b_a85b_7ccd,
        19_712,
        402_432,
    ),
    (
        "nas:MG:scale=0.0001:iters=2",
        0x664d_5919_7fe6_d705,
        41_472,
        837_632,
    ),
    (
        "nas:SP:scale=0.0001:iters=2",
        0x67c3_e860_e5b5_a125,
        4608,
        100_352,
    ),
    ("netpipe:1024", 0x37bc_36d3_97e3_ac24, 80, 224),
    ("netpipe:8192:rounds=5", 0x648a_15bb_c2b0_e00c, 20, 224),
    (
        "stencil:16x10:face=65536:compute_us=200",
        0xc9a4_9ed2_e88a_bd5d,
        1120,
        6912,
    ),
    (
        "stencil:12x7:face=4096:compute_us=50:wildcard",
        0x20d3_1466_1c99_e0f2,
        560,
        4864,
    ),
    ("master_worker:8:tasks=4", 0xbaac_a07a_8597_e215, 140, 2016),
];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Digest and length of the whole application's op stream. Per rank: the
/// rank as `u32`, then each op as a kind byte (`Send` 0, `Recv` 1,
/// `RecvAny` 2, `Compute` 3) followed by its fields; all little-endian.
fn op_stream_digest(app: &Application) -> (u64, usize) {
    let mut h = Fnv::new();
    let mut ops = 0;
    for r in 0..app.n_ranks() {
        h.write(&(r as u32).to_le_bytes());
        for op in app.ops(Rank(r as u32)) {
            ops += 1;
            match op {
                Op::Send { dst, bytes, tag } => {
                    h.write(&[0]);
                    h.write(&dst.0.to_le_bytes());
                    h.write(&bytes.to_le_bytes());
                    h.write(&tag.0.to_le_bytes());
                }
                Op::Recv { src, tag } => {
                    h.write(&[1]);
                    h.write(&src.0.to_le_bytes());
                    h.write(&tag.0.to_le_bytes());
                }
                Op::RecvAny { tag } => {
                    h.write(&[2]);
                    h.write(&tag.0.to_le_bytes());
                }
                Op::Compute { time } => {
                    h.write(&[3]);
                    h.write(&time.as_ps().to_le_bytes());
                }
            }
        }
    }
    (h.0, ops)
}

fn oracle_specs() -> Vec<WorkloadSpec> {
    OP_STREAM_PINS
        .iter()
        .map(|(name, ..)| WorkloadSpec::parse(name).unwrap())
        .collect()
}

#[test]
fn streamed_op_sequences_match_the_unrolled_oracle() {
    for (name, digest, ops, resident) in OP_STREAM_PINS {
        let app = WorkloadSpec::parse(name).unwrap().build();
        assert_eq!(
            op_stream_digest(&app),
            (digest, ops),
            "{name}: op stream diverged from its pin"
        );
        assert_eq!(app.resident_bytes(), resident, "{name}: resident bytes");
    }
}

#[test]
fn closed_form_metadata_matches_the_unrolled_oracle() {
    for spec in oracle_specs() {
        let app = spec.build();
        let (mut total_bytes, mut total_msgs) = (0, 0);
        for r in 0..app.n_ranks() {
            let r = Rank(r as u32);
            let prog = app.rank(r);
            let (mut len, mut sends, mut recvs, mut bytes) = (0, 0, 0, 0);
            for op in app.ops(r) {
                len += 1;
                match op {
                    Op::Send { bytes: b, .. } => {
                        sends += 1;
                        bytes += b;
                    }
                    Op::Recv { .. } | Op::RecvAny { .. } => recvs += 1,
                    Op::Compute { .. } => {}
                }
            }
            let what = format!("{} rank {}", spec.name(), r.0);
            assert_eq!(prog.len(), len, "{what}");
            assert_eq!(prog.op_at(len), None, "{what}");
            assert_eq!(prog.send_count(), sends, "{what}");
            assert_eq!(prog.recv_count(), recvs, "{what}");
            assert_eq!(prog.bytes_sent(), bytes, "{what}");
            let (mut summed, mut msgs) = (0, 0);
            prog.send_summary(|_, b, m| {
                summed += b;
                msgs += m;
            });
            assert_eq!((summed, msgs), (bytes, sends as u64), "{what}");
            total_bytes += bytes;
            total_msgs += sends as u64;
        }
        assert_eq!(app.total_bytes(), total_bytes, "{}", spec.name());
        assert_eq!(app.total_messages(), total_msgs, "{}", spec.name());
        assert!(app.check_balance().is_ok(), "{}", spec.name());
    }
}

#[test]
fn engine_digests_are_identical_across_representations() {
    // A subset that simulates quickly. Each pin is the FNV-1a-64 of the
    // per-rank digests (`u64` LE), the makespan in ps and the event
    // count; they keep the committed `BENCH_engine.json` digests valid.
    for (name, digest, makespan_ps, events) in [
        (
            "netpipe:4096:rounds=10",
            0x38c6_7ae1_e33b_411d,
            100_000_000,
            22,
        ),
        (
            "stencil:16x6:face=1024:compute_us=20",
            0x3807_523f_0453_fa17,
            168_000_000,
            400,
        ),
        (
            "stencil:9x4:face=512:compute_us=10:wildcard",
            0x8695_1b24_dc88_ca5f,
            72_000_000,
            141,
        ),
        (
            "master_worker:6:tasks=3",
            0x8e2a_fa69_cb4f_ac06,
            1_566_991_200,
            51,
        ),
        (
            "nas:MG:scale=0.0001:iters=2",
            0xb1c4_2162_0d2d_2db2,
            178_800_000,
            21_248,
        ),
    ] {
        let spec = WorkloadSpec::parse(name).unwrap();
        let report = Sim::new(spec.build(), SimConfig::default(), NullProtocol).run();
        assert!(report.completed(), "{name}");
        let mut h = Fnv::new();
        for d in &report.digests {
            h.write(&d.to_le_bytes());
        }
        assert_eq!(h.0, digest, "{name}: digests diverged");
        assert_eq!(
            report.makespan.as_ps(),
            makespan_ps,
            "{name}: makespan diverged"
        );
        assert_eq!(
            report.metrics.events, events,
            "{name}: event count diverged"
        );
    }
}

#[test]
fn streamed_representation_is_smaller_for_iterative_workloads() {
    for spec in oracle_specs() {
        let app = spec.build();
        assert!(
            app.resident_bytes() <= app.unrolled_bytes(),
            "{}: streamed form larger than unrolled",
            spec.name()
        );
    }
    // At long horizons the win is the point: 200 iterations ≥ 50×.
    let spec = WorkloadSpec::parse("stencil:64x200:face=4096:compute_us=100").unwrap();
    let app = spec.build();
    assert!(app.resident_bytes() * 50 <= app.unrolled_bytes());
}
