//! [`Timed`]: a protocol decorator that times each hook from outside.
//!
//! The engine calls a protocol through the five hooks below; wrapping the
//! protocol measures the host time spent inside them without touching the
//! protocol or the engine. `init` and `on_done` run once per run and once
//! per rank, so they are forwarded untimed.

use mps_sim::{Ctx, Endpoint, Message, Protocol, Rank, SendDirective, SendInfo};
use std::time::{Duration, Instant};

/// The timed protocol hooks, in metric order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    Send,
    Deliver,
    Control,
    Timer,
    Failure,
}

impl Hook {
    pub const ALL: [Hook; 5] = [
        Hook::Send,
        Hook::Deliver,
        Hook::Control,
        Hook::Timer,
        Hook::Failure,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Hook::Send => "send",
            Hook::Deliver => "deliver",
            Hook::Control => "control",
            Hook::Timer => "timer",
            Hook::Failure => "failure",
        }
    }
}

/// Calls and host time per hook, indexed by `Hook as usize`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HookTotals {
    pub calls: [u64; 5],
    pub time: [Duration; 5],
}

impl HookTotals {
    /// Host time inside all hooks together.
    pub fn total_time(&self) -> Duration {
        self.time.iter().sum()
    }
}

/// `P` with every hook call counted and timed.
pub struct Timed<P> {
    inner: P,
    totals: HookTotals,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            totals: HookTotals::default(),
        }
    }

    pub fn totals(&self) -> HookTotals {
        self.totals
    }

    fn time<R>(&mut self, hook: Hook, call: impl FnOnce(&mut P) -> R) -> R {
        let started = Instant::now();
        let out = call(&mut self.inner);
        self.totals.time[hook as usize] += started.elapsed();
        self.totals.calls[hook as usize] += 1;
        out
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Ctl = P::Ctl;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &mut Ctx<'_, Self::Ctl>) {
        self.inner.init(ctx);
    }

    fn on_send(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, info: &SendInfo) -> SendDirective {
        self.time(Hook::Send, |p| p.on_send(ctx, info))
    }

    fn on_deliver(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, msg: &Message) {
        self.time(Hook::Deliver, |p| p.on_deliver(ctx, msg));
    }

    fn on_control(
        &mut self,
        ctx: &mut Ctx<'_, Self::Ctl>,
        to: Endpoint,
        from: Endpoint,
        ctl: Self::Ctl,
    ) {
        self.time(Hook::Control, |p| p.on_control(ctx, to, from, ctl));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, id: u64) {
        self.time(Hook::Timer, |p| p.on_timer(ctx, id));
    }

    fn on_failure(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, failed: &[Rank]) {
        self.time(Hook::Failure, |p| p.on_failure(ctx, failed));
    }

    fn on_done(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, rank: Rank) {
        self.inner.on_done(ctx, rank);
    }
}
