//! A panic inside one shard's worker thread reaches the caller of
//! `run_sharded` as that panic, message intact — not as a channel error
//! raised by the coordinator when the dead worker stops replying.

use mps_sim::{Application, ClusterMap, Ctx, Message, Protocol, SimConfig};
use par_sim::run_sharded;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workloads::WorkloadSpec;

/// Passes everything through, except that the instance on the armed shard
/// panics at its first delivery.
struct PanicOnDeliver {
    shard: u32,
    armed: bool,
}

impl Protocol for PanicOnDeliver {
    type Ctl = ();

    fn name(&self) -> &'static str {
        "panic-on-deliver"
    }

    fn on_deliver(&mut self, _ctx: &mut Ctx<'_, ()>, msg: &Message) {
        if self.armed {
            panic!(
                "protocol fault on shard {}: delivery to {}",
                self.shard, msg.dst
            );
        }
    }
}

fn stencil() -> Application {
    WorkloadSpec::Stencil {
        n_ranks: 16,
        iterations: 4,
        face_bytes: 4096,
        compute_us: 50,
        wildcard_recv: false,
    }
    .build()
}

#[test]
fn a_shard_panic_surfaces_with_its_own_message() {
    let clusters = ClusterMap::blocks(16, 4);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        run_sharded(
            stencil(),
            SimConfig::default(),
            &clusters,
            3,
            |slice| PanicOnDeliver {
                shard: slice.shard,
                armed: slice.shard == 1,
            },
            None,
        )
    }))
    .expect_err("the armed shard must abort the run");
    let message = payload
        .downcast_ref::<String>()
        .expect("the worker's formatted panic message is the payload");
    assert!(
        message.starts_with("protocol fault on shard 1: delivery to P"),
        "unexpected payload: {message}"
    );
}
