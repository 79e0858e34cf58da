//! Host-time probes around each layer's public entry points.
//!
//! A traced run registers every component wrapped in [`Timed`], which
//! forwards `start`/`handle` unchanged and charges the host time of each
//! call to the component's [`Layer`]. Nothing inside the program is
//! instrumented. The kernel's own time is each `run_until` slice minus
//! the handler time spent inside it. An untraced run registers the bare
//! components, so its timings carry no probe cost at all.
//!
//! Tallies live in thread-local cells (the benchmark is single-threaded)
//! and are drained once per trial, so memory stays bounded by
//! `trials × layers` however many events run.

use std::cell::Cell;
use std::time::Instant;

use tsbus_core::NetSend;
use tsbus_des::{Component, ComponentId, Context, Message, MessageExt, SimTime, Simulator};

/// A layer of the stack whose entry points are timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The `des` kernel: queue, dispatch, clock (self time only).
    Kernel,
    /// `ScriptedClient` and the shard workload driver.
    Client,
    /// `TpwireEndpoint`.
    Endpoint,
    /// `SpaceServerAgent`, including its `Space` and codec work.
    Server,
    /// `TpWireBus`.
    Bus,
    /// `FaultDriver`.
    Faults,
    /// `BusCbrSource` / `BusCbrSink`.
    BusCbr,
    /// `ShardRouter`.
    Router,
    /// The benchmark's own zero-cost direct link (not part of the program).
    Link,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 9;

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Kernel,
        Layer::Client,
        Layer::Endpoint,
        Layer::Server,
        Layer::Bus,
        Layer::Faults,
        Layer::BusCbr,
        Layer::Router,
        Layer::Link,
    ];

    /// The metric prefix of the layer.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Kernel => "des",
            Layer::Client => "core.client",
            Layer::Endpoint => "core.endpoint",
            Layer::Server => "core.server",
            Layer::Bus => "tpwire.bus",
            Layer::Faults => "faults.driver",
            Layer::BusCbr => "core.buscbr",
            Layer::Router => "shard.router",
            Layer::Link => "bench.link",
        }
    }
}

/// Calls into one layer and the host nanoseconds they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Entry-point calls (for the kernel: `run_until` slices).
    pub calls: u64,
    /// Host nanoseconds spent inside those calls (self time).
    pub ns: u64,
}

impl Tally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Tally) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// One trial's spans, aggregated per layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Spans {
    /// Per-layer tallies, indexed like [`Layer::ALL`].
    pub layers: [Tally; LAYERS],
    /// Encoded request/reply bytes handed to a transport (endpoint or
    /// link) by the applications above it.
    pub wire_bytes: u64,
}

impl Spans {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Spans) {
        for (mine, theirs) in self.layers.iter_mut().zip(other.layers.iter()) {
            mine.add(*theirs);
        }
        self.wire_bytes += other.wire_bytes;
    }

    /// The tally of one layer.
    #[must_use]
    pub fn of(&self, layer: Layer) -> Tally {
        self.layers[layer as usize]
    }
}

thread_local! {
    static SPANS: Cell<Spans> = const { Cell::new(Spans { layers: [Tally { calls: 0, ns: 0 }; LAYERS], wire_bytes: 0 }) };
    static HANDLER_NS: Cell<u64> = const { Cell::new(0) };
}

fn charge(layer: Layer, started: Instant) {
    let ns = started.elapsed().as_nanos() as u64;
    SPANS.with(|cell| {
        let mut spans = cell.get();
        let tally = &mut spans.layers[layer as usize];
        tally.calls += 1;
        tally.ns += ns;
        cell.set(spans);
    });
    HANDLER_NS.with(|h| h.set(h.get() + ns));
}

/// Returns the spans recorded since the last call and starts afresh.
#[must_use]
pub fn take_spans() -> Spans {
    SPANS.with(Cell::take)
}

/// A component wrapped so that each call into it is timed.
#[derive(Debug)]
pub struct Timed<C> {
    inner: C,
    layer: Layer,
}

impl<C: Component> Component for Timed<C> {
    fn start(&mut self, ctx: &mut Context<'_>) {
        let started = Instant::now();
        self.inner.start(ctx);
        charge(self.layer, started);
    }

    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        if matches!(self.layer, Layer::Endpoint | Layer::Link) {
            if let Some(send) = msg.downcast_ref::<NetSend>() {
                let bytes = send.payload.len() as u64;
                SPANS.with(|cell| {
                    let mut spans = cell.get();
                    spans.wire_bytes += bytes;
                    cell.set(spans);
                });
            }
        }
        let started = Instant::now();
        self.inner.handle(ctx, msg);
        charge(self.layer, started);
    }
}

/// How a trial's simulator is assembled and driven: bare (untraced) or
/// with every component wrapped in [`Timed`] (traced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    traced: bool,
}

impl Stage {
    /// Bare components, no probes: the stage end-to-end numbers come from.
    pub const UNTRACED: Stage = Stage { traced: false };
    /// Every component timed from outside.
    pub const TRACED: Stage = Stage { traced: true };

    /// Registers `component` under `name`, wrapped when traced.
    pub fn add<C: Component>(
        self,
        sim: &mut Simulator,
        name: impl Into<String>,
        layer: Layer,
        component: C,
    ) -> ComponentId {
        if self.traced {
            sim.add_component(
                name,
                Timed {
                    inner: component,
                    layer,
                },
            )
        } else {
            sim.add_component(name, component)
        }
    }

    /// Advances `sim` to `until`, charging the kernel's self time when
    /// traced.
    pub fn run_until(self, sim: &mut Simulator, until: SimTime) {
        if !self.traced {
            sim.run_until(until);
            return;
        }
        let handlers_before = HANDLER_NS.with(Cell::get);
        let started = Instant::now();
        sim.run_until(until);
        let slice_ns = started.elapsed().as_nanos() as u64;
        let handlers_ns = HANDLER_NS.with(Cell::get) - handlers_before;
        SPANS.with(|cell| {
            let mut spans = cell.get();
            let kernel = &mut spans.layers[Layer::Kernel as usize];
            kernel.calls += 1;
            kernel.ns += slice_ns.saturating_sub(handlers_ns);
            cell.set(spans);
        });
    }
}

/// The component registered at `id`, whether or not it was wrapped.
///
/// # Panics
///
/// Panics if no `C` (bare or wrapped) is registered at `id` — a bug in
/// the workload's set-up.
#[must_use]
pub fn component<C: Component>(sim: &Simulator, id: ComponentId) -> &C {
    sim.component::<C>(id)
        .or_else(|| sim.component::<Timed<C>>(id).map(|t| &t.inner))
        .unwrap_or_else(|| panic!("component {id} is not a {}", std::any::type_name::<C>()))
}
