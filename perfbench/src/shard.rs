//! `shard_relay`: a 4-shard cluster, mirrored R=2 with quorum writes, on
//! quiet 1 Mbit/s buses, driven through write → read → take phases with
//! 32 requests in flight. The set-up mirrors `run_shard_trial` component
//! for component, so the benchmark can wrap each component in a probe.

use tsbus_core::{EndpointCosts, SpaceServerAgent, TpwireEndpoint};
use tsbus_des::{ComponentId, SimDuration, SimTime, Simulator};
use tsbus_faults::FaultDriver;
use tsbus_obs::Tracer;
use tsbus_shard::cluster::item_of;
use tsbus_shard::{
    router_node, server_node, PartitionMap, ReplicationConfig, ShardAudit, ShardConfig,
    ShardDriver, ShardRouter, ShardTrialConfig, ShardTrialResult,
};
use tsbus_tpwire::{NodeId, TpWireBus};
use tsbus_tuplespace::EventKind;

use crate::outcome::{Digest, TrialOutcome};
use crate::probe::{component, Layer, Stage};
use crate::seeds::Stream;

/// Items each trial writes, reads and takes back.
pub const ITEMS: u64 = 96;
/// Trials in one round.
pub const TRIALS: usize = 2;

/// The pinned cluster point: 4 shards, R=2 (majority quorum W=2), quiet
/// 1 Mbit/s buses, window 32, every 16th read a keyless scatter read.
#[must_use]
pub fn trial_config(n_items: u64) -> ShardTrialConfig {
    let shard = ShardConfig::new(4, ReplicationConfig::mirrored(2))
        .expect("the pinned shard point is valid");
    let mut cfg = ShardTrialConfig::new(shard);
    cfg.bus.bit_rate_hz = 1_000_000.0;
    cfg.service_time = SimDuration::from_millis(2);
    cfg.endpoint_cost = SimDuration::from_millis(1);
    cfg.workload.window = 32;
    cfg.workload.n_items = n_items;
    cfg.workload.reads = true;
    cfg.workload.scatter_every = 16;
    cfg
}

/// The round for `seed`: [`TRIALS`] trials of the pinned point, each on
/// its own simulator seed.
#[must_use]
pub fn plan(seed: u64) -> Vec<(ShardTrialConfig, u64)> {
    let mut s = Stream::new(seed, 0x5a4d);
    (0..TRIALS)
        .map(|_| (trial_config(ITEMS), s.draw()))
        .collect()
}

/// A cluster trial, assembled and ready to run.
pub struct ShardRun {
    sim: Simulator,
    stage: Stage,
    cfg: ShardTrialConfig,
    bus_ids: Vec<ComponentId>,
}

const DRIVER: ComponentId = ComponentId::from_raw(0);
const ROUTER: ComponentId = ComponentId::from_raw(1);

fn base(s: usize) -> usize {
    2 + 4 * s
}

/// Assembles the cluster exactly as `run_shard_trial` does.
///
/// # Panics
///
/// Panics on an invalid shard configuration or on per-shard fault/burst
/// lists that do not match the shard count.
#[must_use]
pub fn build(cfg: &ShardTrialConfig, seed: u64, stage: Stage) -> ShardRun {
    let map = PartitionMap::new(&cfg.shard).expect("validated shard config");
    let n = cfg.shard.shards;
    assert!(cfg.faults.is_empty() || cfg.faults.len() == usize::from(n));
    assert!(cfg.bursts.is_empty() || cfg.bursts.len() == usize::from(n));

    let mut sim = Simulator::with_seed(seed);
    sim.set_pooling(cfg.pooling);
    let router_eps: Vec<ComponentId> = (0..usize::from(n))
        .map(|s| ComponentId::from_raw(base(s)))
        .collect();
    let bus_ids: Vec<ComponentId> = (0..usize::from(n))
        .map(|s| ComponentId::from_raw(base(s) + 3))
        .collect();
    let server_nodes: Vec<NodeId> = (0..n).map(server_node).collect();

    stage.add(
        &mut sim,
        "driver",
        Layer::Client,
        ShardDriver::new(ROUTER, cfg.workload),
    );
    let mut router = ShardRouter::new(DRIVER, router_eps.clone(), server_nodes, map, &cfg.shard)
        .with_format(cfg.wire_format)
        .with_policy(cfg.router);
    if cfg.trace_capacity > 0 {
        router.set_tracer(Tracer::bounded(cfg.trace_capacity));
    }
    stage.add(&mut sim, "router", Layer::Router, router);

    for s in 0..usize::from(n) {
        let shard = s as u8;
        let server_ep = ComponentId::from_raw(base(s) + 1);
        let server_id = ComponentId::from_raw(base(s) + 2);
        let costs = EndpointCosts::symmetric(cfg.endpoint_cost);
        let e0 = stage.add(
            &mut sim,
            format!("shard{shard}/ep_router"),
            Layer::Endpoint,
            TpwireEndpoint::new(router_node(), ROUTER, bus_ids[s], costs),
        );
        assert_eq!(e0, router_eps[s], "shard id layout");
        stage.add(
            &mut sim,
            format!("shard{shard}/ep_server"),
            Layer::Endpoint,
            TpwireEndpoint::new(server_node(shard), server_id, bus_ids[s], costs),
        );
        let mut server = SpaceServerAgent::new(server_ep, cfg.service_time);
        server.space_mut().set_indexed(cfg.indexed_space);
        server.space_mut().enable_audit();
        stage.add(
            &mut sim,
            format!("shard{shard}/server"),
            Layer::Server,
            server,
        );
        let mut params = cfg.bus;
        if let Some(Some(burst)) = cfg.bursts.get(s) {
            params = params.with_burst_error(*burst);
        }
        let mut bus = TpWireBus::new(params, vec![router_node(), server_node(shard)]);
        bus.attach(router_node(), router_eps[s]);
        bus.attach(server_node(shard), server_ep);
        let b = stage.add(&mut sim, format!("shard{shard}/bus"), Layer::Bus, bus);
        assert_eq!(b, bus_ids[s], "shard id layout");
    }
    for (s, schedule) in cfg.faults.iter().enumerate() {
        if !schedule.events().is_empty() {
            stage.add(
                &mut sim,
                format!("shard{s}/faults"),
                Layer::Faults,
                FaultDriver::new(bus_ids[s], schedule.clone()),
            );
        }
    }
    ShardRun {
        sim,
        stage,
        cfg: cfg.clone(),
        bus_ids,
    }
}

/// The digest `run_shard_trial`'s result and the benchmark's own cluster
/// set-up are compared by: every field except the kernel event count.
#[must_use]
pub fn shard_digest(result: &ShardTrialResult) -> u64 {
    let mut comparable = result.clone();
    comparable.events_processed = 0;
    let mut d = Digest::new();
    d.line("result", format!("{comparable:?}"));
    d.value()
}

impl ShardRun {
    /// Runs the workload to completion or the horizon and returns what
    /// `run_shard_trial` would, plus the trial's outcome.
    #[must_use]
    pub fn run(mut self) -> (ShardTrialResult, TrialOutcome) {
        let horizon = SimTime::ZERO + self.cfg.horizon;
        let slice = SimDuration::from_secs(1);
        while self.sim.now() < horizon {
            let until = (self.sim.now() + slice).min(horizon);
            self.stage.run_until(&mut self.sim, until);
            if component::<ShardDriver>(&self.sim, DRIVER).is_finished() {
                break;
            }
        }
        let sim = &self.sim;
        let now = sim.now();
        let driver: &ShardDriver = component(sim, DRIVER);
        let router: &ShardRouter = component(sim, ROUTER);
        let mut out = TrialOutcome::default();
        out.sim.events = sim.events_processed();
        let mut snapshots = Digest::new();
        let mut shards = Vec::with_capacity(self.bus_ids.len());
        for (s, bus_id) in self.bus_ids.iter().enumerate() {
            let server: &SpaceServerAgent = component(sim, ComponentId::from_raw(base(s) + 2));
            let bus: &TpWireBus = component(sim, *bus_id);
            out.sim.bus(bus, now);
            out.sim.server(server.stats(), server.space().stats());
            snapshots.line("txns", bus.stats().transactions);
            snapshots.line("bytes_relayed", bus.stats().bytes_relayed);
            snapshots.block("server", &server.metrics(now).to_text());
            snapshots.block("space", &server.space().metrics(now).to_text());
            let mut audit = ShardAudit {
                dedup_replays: server.stats().dedup_replays,
                bus_retries: bus.stats().retries,
                bus_fast_fails: bus.stats().fast_fails,
                breaker_trips: bus.stats().breaker_trips,
                ..ShardAudit::default()
            };
            for record in server.space().audit() {
                let Some(item) = item_of(&record.tuple) else {
                    continue;
                };
                match record.kind {
                    EventKind::Written => *audit.written.entry(item).or_default() += 1,
                    EventKind::Taken => *audit.taken.entry(item).or_default() += 1,
                    EventKind::Expired => {}
                }
            }
            for tuple in server.space().snapshot(now) {
                if let Some(item) = item_of(&tuple) {
                    audit.leftover.insert(item);
                }
            }
            shards.push(audit);
        }
        let finished = driver.is_finished();
        let finished_at = if finished { driver.finished_at() } else { now };
        let result = ShardTrialResult {
            finished,
            finished_at,
            ops_completed: driver.ops_completed(),
            throughput: driver.ops_completed() as f64 / finished_at.as_secs_f64().max(f64::EPSILON),
            write_acked: driver.write_acked().to_vec(),
            take_entry: driver.take_entry().to_vec(),
            reads_hit: driver.reads_hit(),
            degraded_ops: driver.degraded_ops(),
            attempts_total: driver.attempts_total(),
            read_repairs: router.read_repairs(),
            degraded_reads: router.degraded_reads(),
            repair_writes: router.repair_writes(),
            quorum_acks: router.quorum_acks(),
            quorum_failures: router.quorum_failures(),
            replica_erases: router.replica_erases(),
            retries: router.retries(),
            fast_fails: router.fast_fails(),
            stale_replies: router.stale_replies(),
            parked_subops: router.parked_subops(),
            shards,
            trace: router.trace().events().cloned().collect(),
            trace_dropped: router.trace().dropped(),
            events_processed: sim.events_processed(),
        };
        out.sim.router_subops = result.attempts_total;
        out.sim.router_retries = result.retries;
        out.sim.router_read_repairs = result.read_repairs;
        self.score(&result, &mut out);
        let mut d = Digest::new();
        d.line("faithful", shard_digest(&result));
        d.line("snapshots", snapshots.value());
        out.digest = d.value();
        (result, out.settled())
    }

    /// Op accounting and the cluster's correctness checks.
    fn score(&self, result: &ShardTrialResult, out: &mut TrialOutcome) {
        let workload = self.cfg.workload;
        let n = workload.n_items;
        let phases = 1 + u64::from(workload.reads) + u64::from(workload.takes);
        out.ops = n * phases;
        let unacked = result.write_acked.iter().filter(|a| !**a).count() as u64;
        let empty_takes = if workload.takes {
            result.take_entry.iter().filter(|t| !**t).count() as u64
        } else {
            0
        };
        let read_misses = if workload.reads {
            n - result.reads_hit.min(n)
        } else {
            0
        };
        out.failed =
            (out.ops - result.ops_completed.min(out.ops)) + unacked + empty_takes + read_misses;
        out.failed = out.failed.min(out.ops);
        if !result.finished {
            out.fail("cluster trial did not finish before the horizon");
        }
        if result.quorum_failures > 0 {
            out.fail(format!(
                "{} writes lost their quorum",
                result.quorum_failures
            ));
        }
        let quorum = u64::from(self.cfg.shard.replication.write_quorum);
        for item in 0..n {
            let copies: u64 = result
                .shards
                .iter()
                .map(|a| a.written.get(&item).copied().unwrap_or(0))
                .sum();
            if result.write_acked[item as usize] && copies < quorum {
                out.fail(format!(
                    "item {item}: acked at quorum but written on {copies} shards"
                ));
            }
        }
        for (s, audit) in result.shards.iter().enumerate() {
            for (item, written) in &audit.written {
                let taken = audit.taken.get(item).copied().unwrap_or(0);
                let left = u64::from(audit.leftover.contains(item));
                if *written != taken + left {
                    out.fail(format!(
                        "shard {s} item {item}: written {written} != taken {taken} + leftover {left}"
                    ));
                }
            }
            if workload.takes && !audit.leftover.is_empty() {
                out.fail(format!(
                    "shard {s}: {} items left after the take phase",
                    audit.leftover.len()
                ));
            }
        }
    }
}
