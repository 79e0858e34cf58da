//! `paper_sweep`: the paper's own traffic. Table 3 validation bursts
//! (discrete-event time against the `tpwire::analytic` closed form) and
//! the Table 4 case study swept over CBR rate × wiring × wire format ×
//! entry size. The set-ups mirror `run_validation` and
//! `run_case_study_observed` component for component, so the benchmark
//! can wrap each component in a probe.

use tsbus_core::{
    case_study_script, BusCbrSink, BusCbrSource, CaseStudyConfig, CaseStudyResult, RecoveryOutcome,
    ScriptedClient, SpaceServerAgent, TpwireEndpoint, ValidationConfig,
};
use tsbus_des::{ComponentId, SimDuration, SimTime, Simulator};
use tsbus_faults::{FaultDriver, FaultSchedule};
use tsbus_obs::Snapshot;
use tsbus_tpwire::{analytic, BusParams, NodeId, TpWireBus, Wiring};
use tsbus_tuplespace::EventKind;
use tsbus_xmlwire::WireFormat;

use crate::outcome::{fold, response_failed, Digest, TrialOutcome};
use crate::probe::{component, Layer, Stage};
use crate::seeds::Stream;

fn node(id: u8) -> NodeId {
    NodeId::new(id).expect("static node ids are in range")
}

/// The paper's Table 4 cells, `(wires, CBR bytes/s, seconds)`; `None`
/// marks the "Out of Time" cell.
pub const TABLE4: [(u8, f64, Option<f64>); 6] = [
    (1, 0.0, Some(140.0)),
    (1, 0.3, Some(151.0)),
    (1, 1.0, None),
    (2, 0.0, Some(116.0)),
    (2, 0.3, Some(122.0)),
    (2, 1.0, Some(129.0)),
];

/// One sweep point.
#[derive(Debug, Clone)]
pub enum PaperTrial {
    /// A Table 3 validation burst.
    Burst(ValidationConfig),
    /// A case-study point; `table4` names the reference cell it is.
    CaseStudy {
        /// The point's configuration.
        cfg: CaseStudyConfig,
        /// Simulator seed.
        seed: u64,
        /// `(wires, CBR rate)` when the point is a Table 4 reference cell.
        table4: Option<(u8, f64)>,
    },
}

/// The sweep for `seed`: 8 validation bursts and 32 case-study points,
/// six of which are the Table 4 reference cells. The grid is fixed, so
/// every seed's round does the same amount of work; the seed draws the
/// burst lengths (in narrow bands), the simulator seeds and the order in
/// which the points run.
#[must_use]
pub fn plan(seed: u64) -> Vec<PaperTrial> {
    let mut s = Stream::new(seed, 0x7a9e);
    let mut trials = Vec::new();
    let wirings = [
        Wiring::Single,
        Wiring::parallel_data(2).expect("valid wiring"),
        Wiring::parallel_data(4).expect("valid wiring"),
        Wiring::parallel_buses(2).expect("valid wiring"),
    ];
    for wiring in wirings {
        for n_messages in [s.range(10, 16), s.range(100, 151)] {
            trials.push(PaperTrial::Burst(ValidationConfig {
                bus: BusParams::theseus_default().with_wiring(wiring),
                n_messages,
                payload: 1,
            }));
        }
    }
    let base = CaseStudyConfig::table4_reference();
    let two_wire = base
        .bus
        .with_wiring(Wiring::parallel_data(2).expect("valid wiring"));
    for rate in [0.0, 0.3, 0.6, 1.0] {
        for wires in [1u8, 2] {
            for format in [WireFormat::Xml, WireFormat::Binary] {
                for entry_bytes in [base.entry_bytes, 2 * base.entry_bytes] {
                    let mut cfg = base.with_cbr_rate(rate).with_wire_format(format);
                    if wires == 2 {
                        cfg = cfg.with_bus(two_wire);
                    }
                    cfg.entry_bytes = entry_bytes;
                    let reference =
                        format == WireFormat::Xml && entry_bytes == base.entry_bytes && rate != 0.6;
                    trials.push(PaperTrial::CaseStudy {
                        cfg,
                        seed: s.draw(),
                        table4: reference.then_some((wires, rate)),
                    });
                }
            }
        }
    }
    for i in (1..trials.len()).rev() {
        let j = s.range(0, i as u64 + 1) as usize;
        trials.swap(i, j);
    }
    trials
}

/// A validation burst, assembled and ready to run.
pub struct BurstRun {
    sim: Simulator,
    stage: Stage,
    cfg: ValidationConfig,
    sink: ComponentId,
    bus: ComponentId,
}

/// Assembles the Fig. 6 validation set-up exactly as `run_validation`
/// does.
#[must_use]
pub fn build_burst(cfg: &ValidationConfig, stage: Stage) -> BurstRun {
    let mut sim = Simulator::with_seed(1);
    let sink = stage.add(&mut sim, "receiver", Layer::BusCbr, BusCbrSink::new());
    let bus_id = ComponentId::from_raw(2);
    let src = stage.add(
        &mut sim,
        "cbr",
        Layer::BusCbr,
        BusCbrSource::new(bus_id, node(1), node(2), 1e12, cfg.payload).burst(cfg.n_messages),
    );
    let mut bus = TpWireBus::new(cfg.bus, vec![node(1), node(2)]);
    bus.attach(node(2), sink);
    bus.attach(node(1), src);
    let b = stage.add(&mut sim, "bus", Layer::Bus, bus);
    assert_eq!(b, bus_id, "validation id layout");
    BurstRun {
        sim,
        stage,
        cfg: *cfg,
        sink,
        bus: bus_id,
    }
}

impl BurstRun {
    /// Runs the burst to full delivery and checks it against the closed
    /// form.
    #[must_use]
    pub fn run(mut self) -> TrialOutcome {
        let cfg = self.cfg;
        let per_message = analytic::message_relay_bits(&cfg.bus, 0, 1, cfg.payload as usize);
        let predicted_bits = cfg.n_messages * per_message
            + cfg.n_messages.saturating_sub(1) * analytic::txn_bits(&cfg.bus, 1);
        let predicted = cfg.bus.bit_period().saturating_mul(predicted_bits);
        let horizon = SimTime::ZERO + predicted.saturating_mul(10) + SimDuration::from_secs(1);
        let slice = (predicted / 20).max(SimDuration::from_micros(100));
        while self.sim.now() < horizon {
            let until = (self.sim.now() + slice).min(horizon);
            self.stage.run_until(&mut self.sim, until);
            if component::<BusCbrSink>(&self.sim, self.sink).messages() == cfg.n_messages {
                break;
            }
        }
        let now = self.sim.now();
        let sink: &BusCbrSink = component(&self.sim, self.sink);
        let bus: &TpWireBus = component(&self.sim, self.bus);
        let mut out = TrialOutcome::default();
        out.sim.events = self.sim.events_processed();
        out.sim.bus(bus, now);
        let mut d = Digest::new();
        d.line("delivered", sink.messages());
        d.line("bytes", sink.bytes());
        d.line("txns", bus.stats().transactions);
        d.line("bytes_relayed", bus.stats().bytes_relayed);
        d.block("bus", &bus.obs().snapshot(now).to_text());
        if sink.messages() == cfg.n_messages {
            let measured = sink
                .last_arrival()
                .expect("a full burst has a last arrival")
                .duration_since(SimTime::ZERO);
            d.line("measured_ns", measured.as_nanos());
            out.analytic_error =
                Some((measured.as_secs_f64() / predicted.as_secs_f64() - 1.0).abs());
        } else {
            out.fail(format!(
                "validation burst delivered {} of {} messages",
                sink.messages(),
                cfg.n_messages
            ));
        }
        out.digest = d.value();
        out.settled()
    }
}

/// A case-study point, assembled and ready to run.
pub struct CaseStudyRun {
    sim: Simulator,
    stage: Stage,
    cfg: CaseStudyConfig,
}

const CLIENT: ComponentId = ComponentId::from_raw(0);
const SERVER: ComponentId = ComponentId::from_raw(1);
const CBR_SINK: ComponentId = ComponentId::from_raw(5);
const BUS: ComponentId = ComponentId::from_raw(6);

/// Assembles the Fig. 7 case study exactly as `run_case_study_observed`
/// does, plus the server's audit trail (which records, and changes
/// nothing simulated).
#[must_use]
pub fn build_case_study(
    cfg: &CaseStudyConfig,
    faults: &FaultSchedule,
    seed: u64,
    stage: Stage,
) -> CaseStudyRun {
    let mut sim = Simulator::with_seed(seed);
    let ep_client = ComponentId::from_raw(2);
    let ep_server = ComponentId::from_raw(3);
    let cbr_src = ComponentId::from_raw(4);

    let script = case_study_script(cfg.entry_bytes, cfg.lease, cfg.take_delay);
    let mut client = ScriptedClient::new(ep_client, node(3), cfg.client_think, script)
        .with_format(cfg.wire_format);
    if let Some(policy) = cfg.recovery {
        client = client.with_recovery(policy);
    }
    if cfg.exactly_once {
        client = client.with_exactly_once(1);
    }
    stage.add(&mut sim, "client", Layer::Client, client);
    let mut server = SpaceServerAgent::new(ep_server, cfg.server_service);
    server.space_mut().enable_audit();
    stage.add(&mut sim, "server", Layer::Server, server);
    stage.add(
        &mut sim,
        "ep_client",
        Layer::Endpoint,
        TpwireEndpoint::new(node(1), CLIENT, BUS, cfg.client_endpoint),
    );
    stage.add(
        &mut sim,
        "ep_server",
        Layer::Endpoint,
        TpwireEndpoint::new(node(3), SERVER, BUS, cfg.server_endpoint),
    );
    stage.add(
        &mut sim,
        "cbr",
        Layer::BusCbr,
        BusCbrSource::new(BUS, node(2), node(4), cfg.cbr_rate, cfg.cbr_packet),
    );
    stage.add(&mut sim, "cbr_sink", Layer::BusCbr, BusCbrSink::new());
    let mut bus = TpWireBus::new(cfg.bus, vec![node(1), node(2), node(3), node(4)]);
    bus.attach(node(1), ep_client);
    bus.attach(node(2), cbr_src);
    bus.attach(node(3), ep_server);
    bus.attach(node(4), CBR_SINK);
    let b = stage.add(&mut sim, "bus", Layer::Bus, bus);
    assert_eq!(b, BUS, "case-study id layout");
    if !faults.is_empty() {
        stage.add(
            &mut sim,
            "faults",
            Layer::Faults,
            FaultDriver::new(BUS, faults.clone()),
        );
    }
    CaseStudyRun {
        sim,
        stage,
        cfg: *cfg,
    }
}

/// The digest `run_case_study_observed`'s outputs and the benchmark's
/// own case-study set-up are compared by.
#[must_use]
pub fn case_study_digest(result: &CaseStudyResult, snapshot: &Snapshot) -> u64 {
    let mut d = Digest::new();
    d.line("result", format!("{result:?}"));
    d.block("snapshot", &snapshot.to_text());
    d.value()
}

impl CaseStudyRun {
    /// Runs the point to completion or the horizon and returns what
    /// `run_case_study_observed` would, plus the trial's outcome.
    #[must_use]
    pub fn run(mut self) -> (CaseStudyResult, Snapshot, TrialOutcome) {
        let cfg = self.cfg;
        let horizon = SimTime::ZERO + cfg.horizon;
        let slice = SimDuration::from_secs(1).max(cfg.horizon / 3_600);
        while self.sim.now() < horizon {
            let until = (self.sim.now() + slice).min(horizon);
            self.stage.run_until(&mut self.sim, until);
            if component::<ScriptedClient>(&self.sim, CLIENT).is_finished() {
                break;
            }
        }
        let sim = &self.sim;
        let now = sim.now();
        let client: &ScriptedClient = component(sim, CLIENT);
        let server: &SpaceServerAgent = component(sim, SERVER);
        let sink: &BusCbrSink = component(sim, CBR_SINK);
        let bus: &TpWireBus = component(sim, BUS);
        let records = client.records();
        let finished = client.is_finished();
        let write_latency = records.first().and_then(|r| r.latency());
        let take_latency = records.get(1).and_then(|r| r.latency());
        let stats = bus.stats();
        let space_stats = server.space().stats();
        let result = CaseStudyResult {
            finished,
            total_time: client
                .finished_at()
                .map(|t| t.duration_since(SimTime::ZERO)),
            middleware_time: match (write_latency, take_latency) {
                (Some(w), Some(t)) => Some(w + t),
                _ => None,
            },
            write_latency,
            take_latency,
            out_of_time: !finished || !records.get(1).is_some_and(|r| r.returned_entry()),
            cbr_delivered_bytes: sink.bytes(),
            bus_transactions: stats.transactions,
            bus_utilization: bus.lane_utilization(0, now),
            bus_bytes_relayed: stats.bytes_relayed,
            bus_retries: stats.retries,
            bus_hard_failures: stats.failures,
            bus_backoff_bits: stats.backoff_bits,
            bus_fast_fails: stats.fast_fails,
            bus_dropped_deliveries: stats.dropped_deliveries,
            take_recovery: records
                .get(1)
                .map_or(RecoveryOutcome::FirstTry, |r| r.recovery_outcome()),
            dedup_replays: server.stats().dedup_replays,
            reply_timeouts: client.reply_timeouts(),
            stale_replies: client.stale_replies(),
            space_writes: space_stats.writes,
            space_takes: space_stats.takes,
            space_misses: space_stats.misses,
            space_expirations: space_stats.expirations,
            trace_dropped: bus.obs().trace_dropped()
                + server.trace().dropped()
                + client.trace().dropped()
                + server.space().audit_trace().dropped(),
        };
        let snapshot = bus
            .obs()
            .snapshot(now)
            .prefixed("bus/0")
            .merge(server.metrics(now).prefixed("server"))
            .merge(server.space().metrics(now).prefixed("space"))
            .merge(client.metrics(now).prefixed("client"));

        let mut out = TrialOutcome {
            ops: 2,
            ..TrialOutcome::default()
        };
        out.sim.events = sim.events_processed();
        out.sim.bus(bus, now);
        out.sim.client(client);
        out.sim.server(server.stats(), space_stats);
        for step in 0..2 {
            if response_failed(records.get(step).and_then(|r| r.response.as_ref())) {
                out.failed += 1;
            }
        }
        // Ground truth: the single leased entry is written once and then
        // either taken (the take returned it) or expired (the take came
        // back empty because the lease ran out first).
        let (mut written, mut taken, mut expired) = (0u64, 0u64, 0u64);
        for record in server.space().audit() {
            match record.kind {
                EventKind::Written => written += 1,
                EventKind::Taken => taken += 1,
                EventKind::Expired => expired += 1,
            }
        }
        let leftover = server.space().snapshot(now).len() as u64;
        if written != taken + expired + leftover {
            out.fail(format!(
                "conservation: written {written} != taken {taken} + expired {expired} + leftover {leftover}"
            ));
        }
        if finished {
            let returned = records.get(1).is_some_and(|r| r.returned_entry());
            if written != 1 || taken != u64::from(returned) || expired != u64::from(!returned) {
                out.fail(format!(
                    "take returned entry={returned} but the space recorded written {written}, taken {taken}, expired {expired}"
                ));
            }
        }
        let mut d = Digest::new();
        d.line("faithful", case_study_digest(&result, &snapshot));
        d.records("client", records);
        out.digest = d.value();
        (result, snapshot, out)
    }
}

/// A sweep point, assembled and ready to run.
pub enum PaperRun {
    /// A validation burst.
    Burst(BurstRun),
    /// A case-study point and the Table 4 cell it reproduces, if any.
    CaseStudy(CaseStudyRun, Option<(u8, f64)>),
}

/// Assembles a sweep point.
#[must_use]
pub fn prepare(trial: &PaperTrial, stage: Stage) -> PaperRun {
    match trial {
        PaperTrial::Burst(cfg) => PaperRun::Burst(build_burst(cfg, stage)),
        PaperTrial::CaseStudy { cfg, seed, table4 } => PaperRun::CaseStudy(
            build_case_study(cfg, &FaultSchedule::new(), *seed, stage),
            *table4,
        ),
    }
}

impl PaperRun {
    /// Runs the point and scores it; a Table 4 reference cell must be out
    /// of time exactly where the paper's is.
    #[must_use]
    pub fn run(self) -> TrialOutcome {
        let (run, table4) = match self {
            PaperRun::Burst(run) => return run.run(),
            PaperRun::CaseStudy(run, table4) => (run, table4),
        };
        let (result, _, mut out) = run.run();
        if let Some((wires, rate)) = table4 {
            let expect_out_of_time = wires == 1 && rate == 1.0;
            if result.out_of_time != expect_out_of_time {
                out.fail(format!(
                    "Table 4 cell ({wires}-wire, {rate} B/s): out_of_time = {}, expected {expect_out_of_time}",
                    result.out_of_time
                ));
            }
            let seconds = if result.out_of_time {
                None
            } else {
                result.middleware_time.map(SimDuration::as_secs_f64)
            };
            out.table4_cell = Some((wires, rate, seconds));
        }
        out.digest = fold(out.digest, u64::from(result.out_of_time));
        out.settled()
    }
}

/// Mean relative error (%) of the simulated Table 4 middleware times
/// against the paper's five timed cells, or `None` unless all six cells
/// were reproduced.
#[must_use]
pub fn table4_error_pct(cells: &[(u8, f64, Option<f64>)]) -> Option<f64> {
    let mut errors = Vec::new();
    for (wires, rate, paper) in TABLE4 {
        let ours = cells.iter().find(|(w, r, _)| *w == wires && *r == rate)?.2;
        if let (Some(paper), Some(ours)) = (paper, ours) {
            errors.push((ours / paper - 1.0).abs());
        }
    }
    Some(100.0 * errors.iter().sum::<f64>() / errors.len().max(1) as f64)
}
