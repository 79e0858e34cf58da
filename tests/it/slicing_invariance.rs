//! Slicing invariance of bus run-ahead.
//!
//! The TpWIRE bus runs its own follow-up events (frame completions, poll
//! timers, retry backoffs) inline for as long as no other pending event
//! could fire first, up to the `until` of the `run_until` in progress.
//! Cutting one `run_until(T)` into consecutive 1 µs slices caps that
//! run-ahead at one slice. Simulated behaviour must not notice: bus
//! statistics, the registry snapshots, the full typed trace rings, every
//! stream report an attachment receives (with its arrival time) and the
//! client outcomes must come out identical both ways.

use bytes::Bytes;
use tsbus_core::{
    case_study_script, BusCbrSink, BusCbrSource, CaseStudyConfig, ClientStep, EndpointCosts,
    RecoveryPolicy, ScriptedClient, SpaceServerAgent, TpwireEndpoint,
};
use tsbus_des::{
    Component, ComponentId, Context, Message, MessageExt, SimDuration, SimTime, Simulator,
};
use tsbus_faults::{BurstParams, FaultDriver, FaultKind, FaultSchedule, SupervisionConfig};
use tsbus_obs::Tracer;
use tsbus_tpwire::{
    BroadcastCommand, BusParams, MasterSend, NodeId, SendStream, StreamDelivered, StreamEndpoint,
    StreamFailed, StreamSent, TpWireBus, Wiring,
};
use tsbus_tuplespace::{EventKind, Pattern, Template, Tuple, Value, ValueType};
use tsbus_xmlwire::Request;

fn node(id: u8) -> NodeId {
    NodeId::new(id).expect("valid node id")
}

/// Wraps an attachment and logs every stream report the bus sends it,
/// with its arrival time, before handing the message on unchanged.
struct Tap<C> {
    inner: C,
    log: Vec<String>,
}

impl<C> Tap<C> {
    fn new(inner: C) -> Self {
        Tap {
            inner,
            log: Vec::new(),
        }
    }
}

impl<C: Component> Component for Tap<C> {
    fn start(&mut self, ctx: &mut Context<'_>) {
        self.inner.start(ctx);
    }

    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        if msg.is::<StreamDelivered>() || msg.is::<StreamSent>() || msg.is::<StreamFailed>() {
            self.log.push(format!("{} {msg:?}", ctx.now()));
        }
        self.inner.handle(ctx, msg);
    }
}

fn tap_log<C: Component>(sim: &Simulator, id: ComponentId) -> Vec<String> {
    sim.component::<Tap<C>>(id)
        .expect("tapped component")
        .log
        .clone()
}

/// Runs to `horizon` in one `run_until`, or in consecutive 1 µs slices.
fn drive(sim: &mut Simulator, horizon: SimTime, sliced: bool) {
    if !sliced {
        sim.run_until(horizon);
        return;
    }
    let slice = SimDuration::from_micros(1);
    while sim.now() < horizon {
        let until = (sim.now() + slice).min(horizon);
        sim.run_until(until);
    }
}

/// Everything a run produced that simulated behaviour could change.
struct Observed {
    lines: Vec<String>,
    kernel_events: u64,
}

/// The bus's share of [`Observed`]: statistics, registry snapshot and the
/// whole trace ring.
fn bus_lines(sim: &Simulator, bus: ComponentId, out: &mut Vec<String>) {
    let bus: &TpWireBus = sim.component(bus).expect("bus registered");
    out.push(format!("{:?}", bus.stats()));
    out.extend(
        bus.obs()
            .snapshot(sim.now())
            .to_text()
            .lines()
            .map(str::to_owned),
    );
    out.extend(bus.obs().trace().events().map(|e| format!("{e:?}")));
    out.push(format!("trace dropped {}", bus.obs().trace_dropped()));
}

/// The client's and server's share of [`Observed`].
fn app_lines(sim: &Simulator, client: ComponentId, server: ComponentId, out: &mut Vec<String>) {
    let now = sim.now();
    let client: &ScriptedClient = sim.component(client).expect("client registered");
    out.extend(client.records().iter().map(|r| format!("{r:?}")));
    out.extend(client.notifications().iter().map(|n| format!("{n:?}")));
    out.push(format!("errors {:?}", client.errors()));
    out.extend(client.metrics(now).to_text().lines().map(str::to_owned));
    out.extend(client.trace().events().map(|e| format!("{e:?}")));
    let server: &SpaceServerAgent = sim.component(server).expect("server registered");
    out.extend(server.metrics(now).to_text().lines().map(str::to_owned));
    out.extend(server.trace().events().map(|e| format!("{e:?}")));
}

fn assert_slicing_invariant(run: impl Fn(bool) -> Observed) {
    let whole = run(false);
    let sliced = run(true);
    let a = &whole.lines;
    let b = &sliced.lines;
    if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        panic!(
            "line {i} of {}/{} differs\n  one run_until: {:?}\n  1 µs slices:  {:?}",
            a.len(),
            b.len(),
            a.get(i),
            b.get(i)
        );
    }
    // The oracle only has teeth if run-ahead actually fired in the whole
    // run: inline work leaves fewer kernel dispatches.
    assert!(
        whole.kernel_events < sliced.kernel_events,
        "run-ahead never fired: {} vs {} kernel events",
        whole.kernel_events,
        sliced.kernel_events
    );
}

/// A chaos-harness storm: one supervised segment under one-frame error
/// bursts, crash/revive and chain break/heal windows on the background
/// traffic's nodes, and an exactly-once client with a reply deadline near
/// the round trip.
fn chaos_storm(sliced: bool) -> Observed {
    let client_id = ComponentId::from_raw(0);
    let server_id = ComponentId::from_raw(1);
    let ep_client = ComponentId::from_raw(2);
    let ep_server = ComponentId::from_raw(3);
    let cbr_src = ComponentId::from_raw(4);
    let cbr_sink = ComponentId::from_raw(5);
    let bus_id = ComponentId::from_raw(6);

    let any_item = Template::new(vec![
        Pattern::Exact(Value::from("item")),
        Pattern::AnyOfType(ValueType::Int),
    ]);
    let mut script = vec![ClientStep::Request(Request::Subscribe {
        template: any_item,
        kinds: vec![EventKind::Written, EventKind::Taken],
    })];
    for i in 0..4i64 {
        script.push(ClientStep::Request(Request::Write {
            tuple: Tuple::new(vec![Value::from("item"), Value::Int(i)]),
            lease_ns: None,
        }));
    }
    for i in 0..4i64 {
        script.push(ClientStep::Request(Request::TakeIfExists {
            template: Template::new(vec![
                Pattern::Exact(Value::from("item")),
                Pattern::Exact(Value::Int(i)),
            ]),
        }));
    }

    let mut sim = Simulator::with_seed(29);
    let recovery = RecoveryPolicy::new(16, SimDuration::from_millis(10))
        .with_reply_timeout(SimDuration::from_millis(40));
    let mut client = ScriptedClient::new(ep_client, node(3), SimDuration::from_millis(5), script)
        .with_recovery(recovery)
        .with_exactly_once(1);
    client.set_tracer(Tracer::unbounded());
    assert_eq!(sim.add_component("client", client), client_id);
    let mut server = SpaceServerAgent::new(ep_server, SimDuration::from_millis(30));
    server.set_tracer(Tracer::unbounded());
    assert_eq!(sim.add_component("server", server), server_id);
    let costs = EndpointCosts::symmetric(SimDuration::from_millis(5));
    sim.add_component(
        "ep_client",
        Tap::new(TpwireEndpoint::new(node(1), client_id, bus_id, costs)),
    );
    sim.add_component(
        "ep_server",
        Tap::new(TpwireEndpoint::new(node(3), server_id, bus_id, costs)),
    );
    sim.add_component(
        "cbr",
        Tap::new(BusCbrSource::new(bus_id, node(2), node(4), 400.0, 2)),
    );
    sim.add_component("cbr_sink", Tap::new(BusCbrSink::new()));
    let params = BusParams::theseus_default()
        .with_burst_error(BurstParams::with_mean_lengths(1_500.0, 1.0, 0.0, 1.0))
        .with_supervision(SupervisionConfig::conservative());
    let mut bus = TpWireBus::new(params, vec![node(1), node(2), node(3), node(4)]);
    bus.attach(node(1), ep_client);
    bus.attach(node(2), cbr_src);
    bus.attach(node(3), ep_server);
    bus.attach(node(4), cbr_sink);
    bus.obs_mut().set_tracer(Tracer::unbounded());
    assert_eq!(sim.add_component("bus", bus), bus_id);
    let faults = FaultSchedule::new()
        .at(SimTime::from_millis(60), FaultKind::SlaveCrash(2))
        .at(SimTime::from_millis(260), FaultKind::SlaveRevive(2))
        .at(
            SimTime::from_millis(300),
            FaultKind::ChainBreak { after: 3 },
        )
        .at(SimTime::from_millis(420), FaultKind::ChainHeal)
        .at(SimTime::from_millis(450), FaultKind::SlaveCrash(4))
        .at(SimTime::from_millis(600), FaultKind::SlaveRevive(4));
    sim.add_component("faults", FaultDriver::new(bus_id, faults));

    drive(&mut sim, SimTime::from_millis(900), sliced);

    let stats = sim.component::<TpWireBus>(bus_id).expect("bus").stats();
    assert_eq!(stats.faults_injected, 6, "every fault fired");
    assert!(stats.retries > 0, "the error bursts forced resends");
    assert!(stats.fast_fails > 0, "supervision fenced off a dead slave");
    let mut lines = Vec::new();
    bus_lines(&sim, bus_id, &mut lines);
    app_lines(&sim, client_id, server_id, &mut lines);
    lines.extend(tap_log::<TpwireEndpoint>(&sim, ep_client));
    lines.extend(tap_log::<TpwireEndpoint>(&sim, ep_server));
    lines.extend(tap_log::<BusCbrSource>(&sim, cbr_src));
    lines.extend(tap_log::<BusCbrSink>(&sim, cbr_sink));
    Observed {
        lines,
        kernel_events: sim.events_processed(),
    }
}

#[test]
fn chaos_storm_is_slicing_invariant() {
    assert_slicing_invariant(chaos_storm);
}

/// Three CBR flows relayed over two independent lanes
/// (`ParallelBuses(2)`), with uniform frame errors, a mid-run broadcast
/// command and a master-originated payload.
fn parallel_relay(sliced: bool) -> Observed {
    let mut sim = Simulator::with_seed(41);
    let bus_id = ComponentId::from_raw(6);
    let mut ids = Vec::new();
    for (src, dst, rate) in [(1, 4, 4_000.0), (2, 5, 3_000.0), (3, 6, 2_000.0)] {
        ids.push(sim.add_component(
            format!("cbr{src}"),
            Tap::new(BusCbrSource::new(bus_id, node(src), node(dst), rate, 24)),
        ));
    }
    for dst in 4..=6 {
        ids.push(sim.add_component(format!("sink{dst}"), Tap::new(BusCbrSink::new())));
    }
    let params = BusParams::theseus_default()
        .with_wiring(Wiring::parallel_buses(2).expect("two buses"))
        .with_frame_error_rate(0.002);
    let chain: Vec<NodeId> = (1..=6).map(node).collect();
    let mut bus = TpWireBus::new(params, chain.clone());
    for (&n, &id) in chain.iter().zip(&ids) {
        bus.attach(n, id);
    }
    bus.attach_master(ids[3]);
    bus.obs_mut().set_tracer(Tracer::unbounded());
    assert_eq!(sim.add_component("bus", bus), bus_id);
    sim.with_context(|ctx| {
        ctx.schedule_at(
            SimTime::from_millis(40),
            bus_id,
            BroadcastCommand { command: 0x02 },
        );
        ctx.schedule_at(
            SimTime::from_millis(70),
            bus_id,
            MasterSend {
                to: node(5),
                payload: Bytes::from(vec![7u8; 200]),
            },
        );
        ctx.schedule_at(
            SimTime::from_millis(90),
            bus_id,
            SendStream {
                from: node(6),
                to: StreamEndpoint::Master,
                payload: Bytes::from(vec![9u8; 40]),
            },
        );
    });

    drive(&mut sim, SimTime::from_millis(250), sliced);

    let stats = sim.component::<TpWireBus>(bus_id).expect("bus").stats();
    assert!(stats.retries > 0, "frame errors forced resends");
    assert!(stats.messages_relayed > 50, "the flows kept the lanes busy");
    assert_eq!(stats.dropped_deliveries, 0);
    let mut lines = Vec::new();
    bus_lines(&sim, bus_id, &mut lines);
    for &id in &ids[..3] {
        lines.extend(tap_log::<BusCbrSource>(&sim, id));
    }
    for &id in &ids[3..] {
        lines.extend(tap_log::<BusCbrSink>(&sim, id));
    }
    Observed {
        lines,
        kernel_events: sim.events_processed(),
    }
}

#[test]
fn parallel_buses_relay_is_slicing_invariant() {
    assert_slicing_invariant(parallel_relay);
}

/// The first 20 s of a Table 4 case-study point at 1 B/s of background
/// CBR on the slow 800 bit/s bus: idle polls, CBR relays and the write
/// request's relay.
fn case_study_point(sliced: bool) -> Observed {
    let cfg = CaseStudyConfig::table4_reference().with_cbr_rate(1.0);
    let client_id = ComponentId::from_raw(0);
    let server_id = ComponentId::from_raw(1);
    let ep_client = ComponentId::from_raw(2);
    let ep_server = ComponentId::from_raw(3);
    let cbr_src = ComponentId::from_raw(4);
    let cbr_sink = ComponentId::from_raw(5);
    let bus_id = ComponentId::from_raw(6);

    let mut sim = Simulator::with_seed(3);
    let script = case_study_script(cfg.entry_bytes, cfg.lease, cfg.take_delay);
    let client = ScriptedClient::new(ep_client, node(3), cfg.client_think, script);
    assert_eq!(sim.add_component("client", client), client_id);
    let server = SpaceServerAgent::new(ep_server, cfg.server_service);
    assert_eq!(sim.add_component("server", server), server_id);
    sim.add_component(
        "ep_client",
        Tap::new(TpwireEndpoint::new(
            node(1),
            client_id,
            bus_id,
            cfg.client_endpoint,
        )),
    );
    sim.add_component(
        "ep_server",
        Tap::new(TpwireEndpoint::new(
            node(3),
            server_id,
            bus_id,
            cfg.server_endpoint,
        )),
    );
    sim.add_component(
        "cbr",
        Tap::new(BusCbrSource::new(
            bus_id,
            node(2),
            node(4),
            cfg.cbr_rate,
            cfg.cbr_packet,
        )),
    );
    sim.add_component("cbr_sink", Tap::new(BusCbrSink::new()));
    let mut bus = TpWireBus::new(cfg.bus, vec![node(1), node(2), node(3), node(4)]);
    bus.attach(node(1), ep_client);
    bus.attach(node(2), cbr_src);
    bus.attach(node(3), ep_server);
    bus.attach(node(4), cbr_sink);
    bus.obs_mut().set_tracer(Tracer::unbounded());
    assert_eq!(sim.add_component("bus", bus), bus_id);

    drive(&mut sim, SimTime::from_secs(20), sliced);

    let stats = sim.component::<TpWireBus>(bus_id).expect("bus").stats();
    assert!(stats.messages_relayed > 0, "CBR messages crossed the bus");
    assert!(stats.polls > 0, "the idle bus polled");
    let mut lines = Vec::new();
    bus_lines(&sim, bus_id, &mut lines);
    app_lines(&sim, client_id, server_id, &mut lines);
    lines.extend(tap_log::<TpwireEndpoint>(&sim, ep_client));
    lines.extend(tap_log::<TpwireEndpoint>(&sim, ep_server));
    lines.extend(tap_log::<BusCbrSource>(&sim, cbr_src));
    lines.extend(tap_log::<BusCbrSink>(&sim, cbr_sink));
    Observed {
        lines,
        kernel_events: sim.events_processed(),
    }
}

#[test]
fn cbr_case_study_point_is_slicing_invariant() {
    assert_slicing_invariant(case_study_point);
}
