//! Pooling byte-identity: the kernel's determinism contract promises that
//! the message-box pool is invisible to results. This file makes that
//! promise a property: arbitrary schedule/cancel programs must dispatch
//! identically — same order, same times, same event count — with pooling
//! on and off.

use proptest::prelude::*;
use tsbus_des::{Component, Context, Message, MessageExt, SimDuration, SimTime, Simulator};

/// One scheduling instruction of a generated program.
#[derive(Debug, Clone, Copy)]
struct Instr {
    /// Delay from t=0, in nanoseconds (small range forces time ties, the
    /// case where FIFO tie-breaking order matters).
    delay_ns: u64,
    /// Which recorder receives the event.
    target: u8,
    /// Cancel the event right after scheduling it.
    cancel: bool,
    /// Re-arm a follow-up event on delivery (exercises scheduling from
    /// inside handlers).
    rearm: bool,
}

#[derive(Debug)]
struct Evt {
    tag: u64,
    rearm: bool,
}

/// Records every delivery; re-arms once when asked to.
#[derive(Debug, Default)]
struct Recorder {
    log: Vec<(SimTime, u64)>,
}

impl Component for Recorder {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let evt = msg.downcast::<Evt>().expect("recorders receive Evt only");
        self.log.push((ctx.now(), evt.tag));
        if evt.rearm {
            let follow_up = Evt {
                tag: evt.tag + 1_000_000,
                rearm: false,
            };
            ctx.schedule_self_in(SimDuration::from_nanos(17), follow_up);
        }
        ctx.recycle_box(evt);
    }
}

/// Replays `program`, returning every observable: per-recorder delivery
/// logs and the dispatched-event count.
fn run_program(program: &[Instr], pooling: bool) -> (Vec<Vec<(SimTime, u64)>>, u64) {
    const RECORDERS: usize = 3;
    let mut sim = Simulator::with_seed(42);
    sim.set_pooling(pooling);
    let ids: Vec<_> = (0..RECORDERS)
        .map(|r| sim.add_component(format!("rec{r}"), Recorder::default()))
        .collect();
    sim.with_context(|ctx| {
        for (tag, instr) in program.iter().enumerate() {
            let target = ids[usize::from(instr.target) % RECORDERS];
            let evt = Evt {
                tag: tag as u64,
                rearm: instr.rearm,
            };
            let id = ctx.schedule_in(SimDuration::from_nanos(instr.delay_ns), target, evt);
            if instr.cancel {
                ctx.cancel(id);
            }
        }
    });
    sim.run_until(SimTime::from_secs(1));
    let logs = ids
        .iter()
        .map(|&id| {
            let rec: &Recorder = sim.component(id).expect("registered");
            rec.log.clone()
        })
        .collect();
    (logs, sim.events_processed())
}

fn instr_strategy() -> impl Strategy<Value = Instr> {
    (0u64..200, 0u8..3, any::<bool>(), any::<bool>()).prop_map(
        |(delay_ns, target, cancel, rearm)| Instr {
            delay_ns,
            target,
            cancel,
            rearm,
        },
    )
}

proptest! {
    /// Pooling is byte-invisible to dispatch order, times and event counts,
    /// cancelled events included.
    #[test]
    fn queue_kind_and_pooling_are_invisible(
        program in proptest::collection::vec(instr_strategy(), 0..120)
    ) {
        let pooled = run_program(&program, true);
        let unpooled = run_program(&program, false);
        prop_assert_eq!(&pooled.0, &unpooled.0, "delivery logs diverged");
        prop_assert_eq!(pooled.1, unpooled.1, "event counts diverged");
    }
}

/// Deterministic spot check: a dense burst of same-time events keeps FIFO
/// order (the tie-break the property above relies on).
#[test]
fn same_time_events_dispatch_fifo_on_both_queues() {
    let program: Vec<Instr> = (0..64)
        .map(|i| Instr {
            delay_ns: 5,
            target: (i % 3) as u8,
            cancel: false,
            rearm: false,
        })
        .collect();
    let (logs, _) = run_program(&program, true);
    for log in &logs {
        let tags: Vec<u64> = log.iter().map(|&(_, tag)| tag).collect();
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        assert_eq!(tags, sorted, "same-time events must keep schedule order");
    }
}
