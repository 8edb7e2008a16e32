//! A panic inside one shard's thread reaches the caller of `run_sharded`
//! as that panic, message intact, and the peers blocked on the lockstep
//! barrier are released instead of hanging: on any shard, inside a
//! window or a sequential timer step, and when two shards panic in the
//! same round (the lower-numbered shard's payload wins).

use det_sim::{SimDuration, SimTime};
use hydee::{Hydee, HydeeConfig};
use mps_sim::{
    run_sharded, Application, CheckpointPolicyConfig, ClusterMap, Ctx, Endpoint, FailureModel,
    FixedSchedule, Message, Protocol, Rank, SendDirective, SendInfo, SimConfig,
};
use net_model::StorageLedger;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use workloads::WorkloadSpec;

/// Passes everything through, except that the instances on armed shards
/// count themselves in `fired` and panic at their first delivery.
struct PanicOnDeliver {
    shard: u32,
    armed: bool,
    fired: Arc<AtomicUsize>,
}

impl Protocol for PanicOnDeliver {
    type Ctl = ();

    fn name(&self) -> &'static str {
        "panic-on-deliver"
    }

    fn on_deliver(&mut self, _ctx: &mut Ctx<'_, ()>, msg: &Message) {
        if self.armed {
            self.fired.fetch_add(1, Ordering::Relaxed);
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

/// The payload `run` panics with, as the formatted message it carries.
fn panic_message(run: impl FnOnce()) -> String {
    let payload =
        catch_unwind(AssertUnwindSafe(run)).expect_err("the armed shard must abort the run");
    payload
        .downcast_ref::<String>()
        .expect("the shard's formatted panic message is the payload")
        .clone()
}

/// A 16-rank stencil over 4 clusters on 3 shards, with the deliver hook
/// armed on `armed` shards: the surfaced message, and how many shards
/// panicked before the run stopped.
fn run_armed_on_deliver(armed: &[u32]) -> (String, usize) {
    let clusters = ClusterMap::blocks(16, 4);
    let fired = Arc::new(AtomicUsize::new(0));
    let message = panic_message(|| {
        run_sharded(
            stencil(),
            SimConfig::default(),
            &clusters,
            3,
            no_failures(),
            None,
            |slice| PanicOnDeliver {
                shard: slice.shard,
                armed: armed.contains(&slice.shard),
                fired: fired.clone(),
            },
        );
    });
    (message, fired.load(Ordering::Relaxed))
}

#[test]
fn a_shard_panic_surfaces_with_its_own_message() {
    let (message, _) = run_armed_on_deliver(&[1]);
    assert!(
        message.starts_with("protocol fault on shard 1: delivery to P"),
        "unexpected payload: {message}"
    );
}

#[test]
fn a_panic_on_shard_zero_surfaces() {
    let (message, _) = run_armed_on_deliver(&[0]);
    assert!(
        message.starts_with("protocol fault on shard 0: delivery to P"),
        "unexpected payload: {message}"
    );
}

#[test]
fn of_two_shards_panicking_in_one_round_the_lower_surfaces() {
    // The stencil is uniform, so shards 1 and 2 reach their first
    // delivery in the same window; no shard runs past a panicked round.
    let (message, fired) = run_armed_on_deliver(&[1, 2]);
    assert_eq!(fired, 2, "both armed shards must panic in one round");
    assert!(
        message.starts_with("protocol fault on shard 1: delivery to P"),
        "unexpected payload: {message}"
    );
}

/// HydEE with periodic checkpoints, except that the instance on the
/// armed shard panics when its first timer fires.
struct PanicOnTimer {
    inner: Hydee,
    shard: u32,
    armed: bool,
}

impl Protocol for PanicOnTimer {
    type Ctl = <Hydee as Protocol>::Ctl;

    fn name(&self) -> &'static str {
        "panic-on-timer"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, Self::Ctl>) {
        self.inner.init(ctx);
    }

    fn on_send(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, info: &SendInfo) -> SendDirective {
        self.inner.on_send(ctx, info)
    }

    fn on_deliver(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, msg: &Message) {
        self.inner.on_deliver(ctx, msg);
    }

    fn on_control(
        &mut self,
        ctx: &mut Ctx<'_, Self::Ctl>,
        to: Endpoint,
        from: Endpoint,
        ctl: Self::Ctl,
    ) {
        self.inner.on_control(ctx, to, from, ctl);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, id: u64) {
        if self.armed {
            panic!("timer fault on shard {}: timer {id}", self.shard);
        }
        self.inner.on_timer(ctx, id);
    }

    fn on_done(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, rank: Rank) {
        self.inner.on_done(ctx, rank);
    }
}

#[test]
fn a_panic_inside_a_timer_step_surfaces() {
    let clusters = ClusterMap::blocks(12, 3);
    let mk_cfg = || {
        HydeeConfig::new(ClusterMap::blocks(12, 3))
            .with_image_bytes(1 << 16)
            .with_policy(CheckpointPolicyConfig::Periodic {
                interval: SimDuration::from_us(300),
                stagger: Some(SimDuration::from_us(40)),
                first: Some(SimTime::from_us(200)),
            })
    };
    let ledger = Arc::new(Mutex::new(StorageLedger::new(mk_cfg().storage)));
    let app = WorkloadSpec::Stencil {
        n_ranks: 12,
        iterations: 10,
        face_bytes: 4096,
        compute_us: 50,
        wildcard_recv: false,
    }
    .build();
    let message = panic_message(|| {
        run_sharded(
            app,
            SimConfig::default(),
            &clusters,
            3,
            no_failures(),
            None,
            |slice| PanicOnTimer {
                inner: Hydee::sharded(mk_cfg(), ledger.clone(), slice.clusters.clone()),
                shard: slice.shard,
                armed: slice.shard == 1,
            },
        );
    });
    assert!(
        message.starts_with("timer fault on shard 1: timer "),
        "unexpected payload: {message}"
    );
}

fn no_failures() -> Box<dyn FailureModel> {
    Box::new(FixedSchedule::none())
}
