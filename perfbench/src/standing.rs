//! `standing_space`: thousands of leased, keyed tuples under a live
//! subscription, then keyed reads and takes newest-first, over a
//! zero-cost direct link with no bus. Host time goes to `xmlwire`
//! encode/decode and to `Space` matching, notify and lease indexing in
//! the server; `tpwire` and `shard` do nothing, so bus changes should
//! not move this workload.

use std::collections::BTreeMap;

use tsbus_core::{ClientStep, NetDeliver, NetSend, ScriptedClient, SpaceServerAgent};
use tsbus_des::{
    Component, ComponentId, Context, Message, MessageExt, SimDuration, SimTime, Simulator,
};
use tsbus_tpwire::NodeId;
use tsbus_tuplespace::{EventKind, Pattern, Template, Tuple, Value, ValueType};
use tsbus_xmlwire::{Request, Response};

use crate::outcome::{Digest, TrialOutcome};
use crate::probe::{component, Layer, Stage};
use crate::seeds::Stream;

/// Tuples each trial keeps standing.
pub const ITEMS: usize = 2048;
/// Trials in one round.
pub const TRIALS: usize = 4;

/// One trial's generated inputs.
#[derive(Debug, Clone)]
pub struct Standing {
    /// Simulator seed.
    pub seed: u64,
    /// The tuples written, in write order, with their leases (ns).
    pub items: Vec<(Tuple, u64)>,
}

/// The round for `seed`: [`TRIALS`] trials of [`ITEMS`] tuples with
/// seeded keys, payloads and leases.
#[must_use]
pub fn plan(seed: u64) -> Vec<Standing> {
    let mut s = Stream::new(seed, 0x57a4);
    (0..TRIALS)
        .map(|_| {
            // An odd multiplier is invertible mod 2^31, so keys are distinct.
            let offset = s.range(0, 1 << 31);
            let stride = s.range(0, 1 << 30) * 2 + 1;
            let items = (0..ITEMS as u64)
                .map(|i| {
                    let key = (offset + i * stride) % (1 << 31);
                    let len = s.range(8, 25) as usize;
                    let payload: String = (0..len)
                        .map(|_| char::from(b'a' + s.range(0, 26) as u8))
                        .collect();
                    // One to two hours: alive for the whole trial.
                    let lease_ns = s.range(3_600, 7_200) * 1_000_000_000;
                    (
                        Tuple::new(vec![
                            Value::from("item"),
                            Value::Int(key as i64),
                            Value::from(payload.as_str()),
                        ]),
                        lease_ns,
                    )
                })
                .collect();
            Standing {
                seed: s.draw(),
                items,
            }
        })
        .collect()
}

fn keyed(tuple: &Tuple) -> Template {
    Template::new(vec![
        Pattern::Exact(Value::from("item")),
        Pattern::Exact(tuple.field(1).expect("items have a key").clone()),
        Pattern::AnyOfType(ValueType::Str),
    ])
}

/// Subscribe to takes, write every item, then read and take each back
/// newest-first.
fn script(items: &[(Tuple, u64)]) -> Vec<ClientStep> {
    let mut script = vec![ClientStep::Request(Request::Subscribe {
        template: Template::new(vec![
            Pattern::Exact(Value::from("item")),
            Pattern::AnyOfType(ValueType::Int),
            Pattern::AnyOfType(ValueType::Str),
        ]),
        kinds: vec![EventKind::Taken],
    })];
    for (tuple, lease_ns) in items {
        script.push(ClientStep::Request(Request::Write {
            tuple: tuple.clone(),
            lease_ns: Some(*lease_ns),
        }));
    }
    for (tuple, _) in items.iter().rev() {
        script.push(ClientStep::Request(Request::ReadIfExists {
            template: keyed(tuple),
        }));
    }
    for (tuple, _) in items.iter().rev() {
        script.push(ClientStep::Request(Request::TakeIfExists {
            template: keyed(tuple),
        }));
    }
    script
}

/// A zero-cost point-to-point transport, part of the benchmark rather
/// than the program: relays [`NetSend`] to the peer as [`NetDeliver`]
/// after a fixed latency.
#[derive(Debug)]
struct DirectLink {
    peer: ComponentId,
    from: NodeId,
}

const LINK_LATENCY: SimDuration = SimDuration::from_micros(500);

impl Component for DirectLink {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let send = msg.downcast::<NetSend>().expect("links only carry NetSend");
        let deliver = NetDeliver {
            from: self.from,
            payload: send.payload.clone(),
        };
        ctx.schedule_in(LINK_LATENCY, self.peer, deliver);
        ctx.recycle_box(send);
    }
}

const CLIENT: ComponentId = ComponentId::from_raw(0);
const SERVER: ComponentId = ComponentId::from_raw(1);

/// A standing-space trial, assembled and ready to run.
pub struct StandingRun {
    sim: Simulator,
    stage: Stage,
    items: Vec<(Tuple, u64)>,
}

/// Assembles client, server and the two link halves.
#[must_use]
pub fn build(trial: &Standing, stage: Stage) -> StandingRun {
    let client_node = NodeId::new(1).expect("static node id");
    let server_node = NodeId::new(2).expect("static node id");
    let link_client = ComponentId::from_raw(2);
    let link_server = ComponentId::from_raw(3);
    let mut sim = Simulator::with_seed(trial.seed);
    stage.add(
        &mut sim,
        "client",
        Layer::Client,
        ScriptedClient::new(
            link_client,
            server_node,
            SimDuration::from_millis(1),
            script(&trial.items),
        ),
    );
    let mut server = SpaceServerAgent::new(link_server, SimDuration::from_millis(2));
    server.space_mut().enable_audit();
    stage.add(&mut sim, "server", Layer::Server, server);
    stage.add(
        &mut sim,
        "link_client",
        Layer::Link,
        DirectLink {
            peer: SERVER,
            from: client_node,
        },
    );
    let l = stage.add(
        &mut sim,
        "link_server",
        Layer::Link,
        DirectLink {
            peer: CLIENT,
            from: server_node,
        },
    );
    assert_eq!(l, link_server, "standing id layout");
    StandingRun {
        sim,
        stage,
        items: trial.items.clone(),
    }
}

impl StandingRun {
    /// Runs the script to completion and checks every answer against the
    /// tuples written.
    #[must_use]
    pub fn run(mut self) -> TrialOutcome {
        let horizon = SimTime::from_secs(3_600);
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
        let n = self.items.len();
        let mut out = TrialOutcome {
            ops: 1 + 3 * n as u64,
            ..TrialOutcome::default()
        };
        out.sim.events = sim.events_processed();
        out.sim.client(client);
        out.sim.server(server.stats(), server.space().stats());

        let mut succeeded = 0u64;
        for r in client.records() {
            let ok = match (r.step, &r.response) {
                (0, Some(Response::SubscriptionAck { .. })) => true,
                (step, Some(Response::WriteAck)) if (1..=n).contains(&step) => true,
                (step, Some(Response::Entry { tuple: Some(t) })) if step > n => {
                    // Reads and takes both walk the items newest-first.
                    let idx = n - 1 - (step - n - 1) % n;
                    *t == self.items[idx].0
                }
                _ => false,
            };
            succeeded += u64::from(ok);
        }
        out.failed = out.ops - succeeded.min(out.ops);
        if !client.errors().is_empty() {
            out.fail(format!("client errors: {:?}", client.errors()));
        }
        let key = |t: &Tuple| match t.field(1) {
            Some(Value::Int(k)) => *k,
            _ => -1,
        };
        let mut written: BTreeMap<i64, u64> = BTreeMap::new();
        let mut taken: BTreeMap<i64, u64> = BTreeMap::new();
        let mut expired = 0u64;
        for record in server.space().audit() {
            match record.kind {
                EventKind::Written => *written.entry(key(&record.tuple)).or_default() += 1,
                EventKind::Taken => *taken.entry(key(&record.tuple)).or_default() += 1,
                EventKind::Expired => expired += 1,
            }
        }
        let leftover = server.space().snapshot(now).len();
        for (tuple, _) in &self.items {
            let k = key(tuple);
            let (w, t) = (
                written.get(&k).copied().unwrap_or(0),
                taken.get(&k).copied().unwrap_or(0),
            );
            if w != 1 || t != 1 {
                out.fail(format!("key {k}: written {w}, taken {t}"));
                break;
            }
        }
        if expired != 0 || leftover != 0 {
            out.fail(format!("{expired} expired and {leftover} left over"));
        }
        let taken_events = client
            .notifications()
            .iter()
            .filter(|(_, e)| e.kind == EventKind::Taken)
            .count();
        if taken_events != n {
            out.fail(format!("{taken_events} taken events for {n} takes"));
        }

        let mut d = Digest::new();
        d.records("client", client.records());
        d.line("notifications", client.notifications().len());
        d.block("server", &server.metrics(now).to_text());
        d.block("space", &server.space().metrics(now).to_text());
        out.digest = d.value();
        out.settled()
    }
}
