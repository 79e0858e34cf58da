//! `chaos_storm`: one supervised bus segment under a seeded fault storm,
//! with exactly-once requests, client recovery and a live notify
//! subscription. Gilbert-Elliott error bursts make the master resend
//! frames; crash/revive and chain-break windows on the background
//! traffic's nodes trip the bus breakers and fast-fail that traffic; a
//! reply deadline near the request round trip makes the client re-send
//! ops under the same identity, which the server's duplicate cache
//! replays. Retries, breakers, dedup replays and reply timeouts dominate
//! here, so a quiet-bus fast path that breaks the error path shows up as
//! a regression on this workload.
//!
//! Every op of a storm completes: the faults stay inside what the stack
//! recovers from. A storm that makes the bus abandon a client or server
//! relay mid-message is not used, because the client then settles the
//! op on a garbled reply without retrying it, so ops fail (see
//! `tests/severe_storm.rs`), and the benchmark's workloads must not fail
//! operations.

use std::collections::BTreeMap;

use tsbus_core::{
    BusCbrSink, BusCbrSource, ClientStep, EndpointCosts, RecoveryPolicy, ScriptedClient,
    SpaceServerAgent, TpwireEndpoint,
};
use tsbus_des::{ComponentId, SimDuration, SimTime, Simulator};
use tsbus_faults::{BurstParams, FaultDriver, FaultKind, FaultSchedule, SupervisionConfig};
use tsbus_shard::cluster::{item_of, item_tuple};
use tsbus_tpwire::{BusParams, NodeId, TpWireBus};
use tsbus_tuplespace::{EventKind, Pattern, Template, Value, ValueType};
use tsbus_xmlwire::{Request, Response};

use crate::outcome::{Digest, TrialOutcome};
use crate::probe::{component, Layer, Stage};
use crate::seeds::Stream;

/// Items each storm writes and takes back (plus one subscribe op).
pub const ITEMS: u64 = 6;
/// Storms in one round.
pub const STORMS: usize = 96;

fn node(id: u8) -> NodeId {
    NodeId::new(id).expect("static node ids are in range")
}

/// One storm: its fault environment, reply deadline and simulator seed.
#[derive(Debug, Clone)]
pub struct Storm {
    /// Simulator seed.
    pub seed: u64,
    /// The burst-error channel on the segment.
    pub burst: BurstParams,
    /// Crash/revive and chain break/heal windows.
    pub schedule: FaultSchedule,
    /// How long the client waits for a reply before re-sending the op.
    pub reply_timeout: SimDuration,
}

/// Derives storm `j` of a round. Severity is stratified across the
/// round (the burst density, the reply deadline and the number of outage
/// windows step through fixed strata, the stream jitters inside each
/// stratum) so every seed's round carries the same spread of storms;
/// outage kinds rotate and their timing is drawn freely.
///
/// Bursts last one frame time, so a frame and its resend are never both
/// lost in one burst and the master's three resends always outlast it.
/// Outages hit only the background traffic's nodes (2 and 4; a chain
/// break after three positions cuts node 4 alone). The reply deadline
/// spans the request round trip of about 53 ms, so in some storms every
/// op is re-sent once and in others few are.
fn storm(s: &mut Stream, j: u64) -> Storm {
    let good_stratum = j % 4;
    let deadline_stratum = (j / 4) % 4;
    let mean_good = (1_000 + 1_000 * good_stratum + s.range(0, 1_000)) as f64;
    let burst = BurstParams::with_mean_lengths(mean_good, 1.0, 0.0, 1.0);
    let reply_timeout = SimDuration::from_millis(25 + 15 * deadline_stratum + s.range(0, 15));
    let mut schedule = FaultSchedule::new();
    let windows = 1 + (j / 16) % 3;
    for w in 0..windows {
        let start_ms = s.range(100, 8_000);
        let len_ms = s.range(40, 600);
        let start = SimTime::from_millis(start_ms);
        let end = SimTime::from_millis(start_ms + len_ms);
        schedule = match (j + w) % 3 {
            0 => schedule
                .at(start, FaultKind::SlaveCrash(2))
                .at(end, FaultKind::SlaveRevive(2)),
            1 => schedule
                .at(start, FaultKind::SlaveCrash(4))
                .at(end, FaultKind::SlaveRevive(4)),
            _ => schedule
                .at(start, FaultKind::ChainBreak { after: 3 })
                .at(end, FaultKind::ChainHeal),
        };
    }
    Storm {
        seed: s.draw(),
        burst,
        schedule,
        reply_timeout,
    }
}

/// The round for `seed`: [`STORMS`] storms.
#[must_use]
pub fn plan(seed: u64) -> Vec<Storm> {
    let mut s = Stream::new(seed, 0xc4a0);
    (0..STORMS as u64).map(|j| storm(&mut s, j)).collect()
}

/// Subscribe to item events, write the items, take each back by key.
fn script() -> Vec<ClientStep> {
    let any_item = Template::new(vec![
        Pattern::Exact(Value::from("item")),
        Pattern::AnyOfType(ValueType::Int),
    ]);
    let mut script = vec![ClientStep::Request(Request::Subscribe {
        template: any_item,
        kinds: vec![EventKind::Written, EventKind::Taken],
    })];
    for i in 0..ITEMS {
        script.push(ClientStep::Request(Request::Write {
            tuple: item_tuple(i),
            lease_ns: None,
        }));
    }
    for i in 0..ITEMS {
        script.push(ClientStep::Request(Request::TakeIfExists {
            template: Template::new(vec![
                Pattern::Exact(Value::from("item")),
                Pattern::Exact(Value::Int(i as i64)),
            ]),
        }));
    }
    script
}

const CLIENT: ComponentId = ComponentId::from_raw(0);
const SERVER: ComponentId = ComponentId::from_raw(1);
const BUS: ComponentId = ComponentId::from_raw(6);

/// A storm, assembled and ready to run.
pub struct StormRun {
    sim: Simulator,
    stage: Stage,
}

/// Assembles the supervised segment under `storm`.
#[must_use]
pub fn build(storm: &Storm, stage: Stage) -> StormRun {
    let params = BusParams::theseus_default()
        .with_burst_error(storm.burst)
        .with_supervision(SupervisionConfig::conservative());
    let mut sim = Simulator::with_seed(storm.seed);
    let ep_client = ComponentId::from_raw(2);
    let ep_server = ComponentId::from_raw(3);
    let cbr_src = ComponentId::from_raw(4);
    let cbr_sink = ComponentId::from_raw(5);
    let recovery = RecoveryPolicy::new(16, SimDuration::from_millis(10))
        .with_reply_timeout(storm.reply_timeout);
    let client = ScriptedClient::new(ep_client, node(3), SimDuration::from_millis(5), script())
        .with_recovery(recovery)
        .with_exactly_once(1);
    stage.add(&mut sim, "client", Layer::Client, client);
    let mut server = SpaceServerAgent::new(ep_server, SimDuration::from_millis(30));
    server.space_mut().enable_audit();
    stage.add(&mut sim, "server", Layer::Server, server);
    let costs = EndpointCosts::symmetric(SimDuration::from_millis(5));
    stage.add(
        &mut sim,
        "ep_client",
        Layer::Endpoint,
        TpwireEndpoint::new(node(1), CLIENT, BUS, costs),
    );
    stage.add(
        &mut sim,
        "ep_server",
        Layer::Endpoint,
        TpwireEndpoint::new(node(3), SERVER, BUS, costs),
    );
    // Light background traffic keeps the bus arbitrating between flows.
    stage.add(
        &mut sim,
        "cbr",
        Layer::BusCbr,
        BusCbrSource::new(BUS, node(2), node(4), 20.0, 2),
    );
    stage.add(&mut sim, "cbr_sink", Layer::BusCbr, BusCbrSink::new());
    let mut bus = TpWireBus::new(params, vec![node(1), node(2), node(3), node(4)]);
    bus.attach(node(1), ep_client);
    bus.attach(node(2), cbr_src);
    bus.attach(node(3), ep_server);
    bus.attach(node(4), cbr_sink);
    let b = stage.add(&mut sim, "bus", Layer::Bus, bus);
    assert_eq!(b, BUS, "storm id layout");
    stage.add(
        &mut sim,
        "faults",
        Layer::Faults,
        FaultDriver::new(BUS, storm.schedule.clone()),
    );
    StormRun { sim, stage }
}

impl StormRun {
    /// Runs the storm to completion or the horizon and checks the
    /// exactly-once invariants against the space's audit trail.
    #[must_use]
    pub fn run(mut self) -> TrialOutcome {
        let horizon = SimTime::from_secs(600);
        while self.sim.now() < horizon {
            let until = (self.sim.now() + SimDuration::from_secs(1)).min(horizon);
            self.stage.run_until(&mut self.sim, until);
            if component::<ScriptedClient>(&self.sim, CLIENT).is_finished() {
                break;
            }
        }
        let sim = &self.sim;
        let now = sim.now();
        let client: &ScriptedClient = component(sim, CLIENT);
        let server: &SpaceServerAgent = component(sim, SERVER);
        let bus: &TpWireBus = component(sim, BUS);
        let k = ITEMS as usize;
        let mut out = TrialOutcome {
            ops: 1 + 2 * ITEMS,
            ..TrialOutcome::default()
        };
        out.sim.events = sim.events_processed();
        out.sim.bus(bus, now);
        out.sim.client(client);
        out.sim.server(server.stats(), server.space().stats());

        // The client's view: each op must settle with its success answer.
        let mut acked = vec![false; k];
        let mut took = vec![false; k];
        let mut settled_empty = vec![false; k];
        let mut succeeded = 0u64;
        for r in client.records() {
            let ok = match (r.step, &r.response) {
                (0, Some(Response::SubscriptionAck { .. })) => true,
                (step, Some(Response::WriteAck)) if (1..=k).contains(&step) => {
                    acked[step - 1] = true;
                    true
                }
                (step, response) if step > k && step <= 2 * k => {
                    took[step - k - 1] = r.returned_entry();
                    settled_empty[step - k - 1] =
                        matches!(response, Some(Response::Entry { tuple: None }));
                    r.returned_entry()
                }
                _ => false,
            };
            succeeded += u64::from(ok);
        }
        out.failed = out.ops - succeeded;

        // Ground truth: the audit trail and the final space content.
        let mut written: BTreeMap<u64, u64> = BTreeMap::new();
        let mut taken: BTreeMap<u64, u64> = BTreeMap::new();
        for record in server.space().audit() {
            let Some(item) = item_of(&record.tuple) else {
                continue;
            };
            match record.kind {
                EventKind::Written => *written.entry(item).or_default() += 1,
                EventKind::Taken => *taken.entry(item).or_default() += 1,
                EventKind::Expired => {}
            }
        }
        let mut leftover: BTreeMap<u64, u64> = BTreeMap::new();
        for tuple in server.space().snapshot(now) {
            if let Some(item) = item_of(&tuple) {
                *leftover.entry(item).or_default() += 1;
            }
        }
        let mut seen_written: BTreeMap<u64, u64> = BTreeMap::new();
        let mut seen_taken: BTreeMap<u64, u64> = BTreeMap::new();
        for (_, event) in client.notifications() {
            let Some(item) = item_of(&event.tuple) else {
                continue;
            };
            match event.kind {
                EventKind::Written => *seen_written.entry(item).or_default() += 1,
                EventKind::Taken => *seen_taken.entry(item).or_default() += 1,
                EventKind::Expired => {}
            }
        }
        for i in 0..ITEMS {
            let get = |m: &BTreeMap<u64, u64>| m.get(&i).copied().unwrap_or(0);
            let (w, t, left) = (get(&written), get(&taken), get(&leftover));
            let idx = i as usize;
            if w > 1 || t > 1 {
                out.fail(format!(
                    "item {i}: applied more than once (written {w}, taken {t})"
                ));
            }
            if w != t + left {
                out.fail(format!(
                    "item {i}: written {w} != taken {t} + leftover {left}"
                ));
            }
            if acked[idx] && w == 0 {
                out.fail(format!("item {i}: write acked but never applied"));
            }
            if t >= 1 && !took[idx] && settled_empty[idx] {
                out.fail(format!(
                    "item {i}: taken from the space but delivered to no one"
                ));
            }
            if get(&seen_written) > w || get(&seen_taken) > t {
                out.fail(format!("item {i}: more notify events than space events"));
            }
        }
        let stats = bus.stats();
        if stats.open_issues > 0 {
            out.fail(format!(
                "{} requests issued to an Open slave",
                stats.open_issues
            ));
        }
        if !bus.supervision_conserved() {
            out.fail("degraded-mode rebalancing lost a lane assignment");
        }

        let mut d = Digest::new();
        d.records("client", client.records());
        d.line("notifications", client.notifications().len());
        d.line("txns", stats.transactions);
        d.line("bytes_relayed", stats.bytes_relayed);
        d.block("server", &server.metrics(now).to_text());
        d.block("space", &server.space().metrics(now).to_text());
        d.block("bus", &bus.obs().snapshot(now).to_text());
        out.digest = d.value();
        out.settled()
    }
}
