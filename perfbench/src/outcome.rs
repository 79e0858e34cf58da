//! What one trial hands back: client-visible op accounting, failed
//! correctness checks, the simulated counters each layer exposes, and a
//! digest of the simulated outputs.

use std::fmt::Write as _;

use tsbus_core::{OpRecord, ScriptedClient, ServerStats};
use tsbus_des::SimTime;
use tsbus_tpwire::TpWireBus;
use tsbus_tuplespace::SpaceStats;
use tsbus_xmlwire::Response;

/// FNV-1a over a canonical text rendering of the simulated outputs.
///
/// The text never includes the kernel's event count: a simulator-only
/// speed-up (relay trains, idle skipping) may legitimately remove events
/// while every simulated result stays the same.
#[derive(Debug, Clone)]
pub struct Digest {
    text: String,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// An empty digest.
    #[must_use]
    pub fn new() -> Self {
        Digest {
            text: String::new(),
        }
    }

    /// Appends one `key value` line.
    pub fn line(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.text, "{key} {value}");
    }

    /// Appends a pre-rendered block (e.g. a snapshot's `to_text`).
    pub fn block(&mut self, key: &str, text: &str) {
        let _ = writeln!(self.text, "[{key}]");
        self.text.push_str(text);
    }

    /// Appends every op record of a scripted client: request, outcome,
    /// completion time and attempts.
    pub fn records(&mut self, key: &str, records: &[OpRecord]) {
        for r in records {
            let done = r.completed_at.map_or(u64::MAX, SimTime::as_nanos);
            let _ = writeln!(
                self.text,
                "{key} step={} sent={} done={done} attempts={} response={:?}",
                r.step,
                r.sent_at.as_nanos(),
                r.attempts,
                r.response
            );
        }
    }

    /// The 64-bit FNV-1a hash of everything appended.
    #[must_use]
    pub fn value(&self) -> u64 {
        fnv1a(self.text.as_bytes())
    }
}

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds `next` into a running digest (order-sensitive).
#[must_use]
pub fn fold(acc: u64, next: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&acc.to_le_bytes());
    bytes[8..].copy_from_slice(&next.to_le_bytes());
    fnv1a(&bytes)
}

/// Simulated per-layer counters of one trial. All of them are results
/// of the simulation, not host measurements, so they repeat exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimCounters {
    /// Kernel events dispatched (excluded from the digest).
    pub events: u64,
    /// Bus transactions completed.
    pub bus_txns: u64,
    /// Bus keep-alive/discovery polls.
    pub bus_polls: u64,
    /// Stream messages the bus relayed end to end.
    pub bus_relay_msgs: u64,
    /// Bus transactions re-sent.
    pub bus_retries: u64,
    /// Simulated nanoseconds lane 0 was busy.
    pub bus_busy_ns: f64,
    /// Simulated nanoseconds the buses existed.
    pub bus_sim_ns: f64,
    /// Fault commands the bus applied.
    pub faults_injected: u64,
    /// Requests failed fast against an Open breaker.
    pub fast_fails: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Sends summed over scripted-client ops.
    pub client_attempts: u64,
    /// Scripted-client ops (the denominator of attempts per op).
    pub client_ops: u64,
    /// Attempts declared failed by the client's reply timeout.
    pub reply_timeouts: u64,
    /// Simulated round-trip latencies of completed client ops (ns).
    pub latencies_ns: Vec<u64>,
    /// Server duplicate replays.
    pub dedup_replays: u64,
    /// Server waiters parked.
    pub waiters_parked: u64,
    /// Space writes + reads + takes + misses.
    pub space_ops: u64,
    /// Space reads + takes that found an entry.
    pub space_hits: u64,
    /// Space reads + takes that found nothing.
    pub space_misses: u64,
    /// Space entries that expired.
    pub space_expirations: u64,
    /// Router sub-request sends (shard workloads).
    pub router_subops: u64,
    /// Router sub-request re-sends.
    pub router_retries: u64,
    /// Router read-repairs.
    pub router_read_repairs: u64,
}

impl SimCounters {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &SimCounters) {
        self.events += other.events;
        self.bus_txns += other.bus_txns;
        self.bus_polls += other.bus_polls;
        self.bus_relay_msgs += other.bus_relay_msgs;
        self.bus_retries += other.bus_retries;
        self.bus_busy_ns += other.bus_busy_ns;
        self.bus_sim_ns += other.bus_sim_ns;
        self.faults_injected += other.faults_injected;
        self.fast_fails += other.fast_fails;
        self.breaker_trips += other.breaker_trips;
        self.client_attempts += other.client_attempts;
        self.client_ops += other.client_ops;
        self.reply_timeouts += other.reply_timeouts;
        self.latencies_ns.extend_from_slice(&other.latencies_ns);
        self.dedup_replays += other.dedup_replays;
        self.waiters_parked += other.waiters_parked;
        self.space_ops += other.space_ops;
        self.space_hits += other.space_hits;
        self.space_misses += other.space_misses;
        self.space_expirations += other.space_expirations;
        self.router_subops += other.router_subops;
        self.router_retries += other.router_retries;
        self.router_read_repairs += other.router_read_repairs;
    }

    /// Books one bus's counters, observed at `now`.
    pub fn bus(&mut self, bus: &TpWireBus, now: SimTime) {
        let stats = bus.stats();
        self.bus_txns += stats.transactions;
        self.bus_polls += stats.polls;
        self.bus_relay_msgs += stats.messages_relayed;
        self.bus_retries += stats.retries;
        self.faults_injected += stats.faults_injected;
        self.fast_fails += stats.fast_fails;
        self.breaker_trips += stats.breaker_trips;
        let sim_ns = now.as_nanos() as f64;
        self.bus_busy_ns += bus.lane_utilization(0, now) * sim_ns;
        self.bus_sim_ns += sim_ns;
    }

    /// Books a scripted client's op records and timeouts.
    pub fn client(&mut self, client: &ScriptedClient) {
        for r in client.records() {
            self.client_ops += 1;
            self.client_attempts += u64::from(r.attempts);
            if let Some(latency) = r.latency() {
                self.latencies_ns.push(latency.as_nanos());
            }
        }
        self.reply_timeouts += client.reply_timeouts();
    }

    /// Books a server's counters and its space's operation counts.
    pub fn server(&mut self, stats: ServerStats, space: SpaceStats) {
        self.dedup_replays += stats.dedup_replays;
        self.waiters_parked += stats.parked;
        self.space_ops += space.writes + space.reads + space.takes + space.misses;
        self.space_hits += space.reads + space.takes;
        self.space_misses += space.misses;
        self.space_expirations += space.expirations;
    }
}

/// Everything one trial reports.
#[derive(Debug, Clone, Default)]
pub struct TrialOutcome {
    /// Client-visible tuple ops attempted.
    pub ops: u64,
    /// Ops that failed (error or give-up) or never finished; a failed
    /// correctness check adds every op of the trial.
    pub failed: u64,
    /// Correctness checks that failed, with evidence.
    pub check_failures: Vec<String>,
    /// Simulated per-layer counters.
    pub sim: SimCounters,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Table 4 reference cell this trial reproduces, if any:
    /// `(wires, cbr rate, middleware seconds or None when out of time)`.
    pub table4_cell: Option<(u8, f64, Option<f64>)>,
    /// `|DES / closed form − 1|` for a Table 3 validation burst.
    pub analytic_error: Option<f64>,
}

impl TrialOutcome {
    /// Records a failed check; the trial's ops all count as failed.
    pub fn fail(&mut self, check: impl Into<String>) {
        self.check_failures.push(check.into());
    }

    /// Applies the rule that a failed check fails every op of the trial.
    #[must_use]
    pub fn settled(mut self) -> Self {
        if !self.check_failures.is_empty() {
            self.failed = self.ops;
        }
        self
    }
}

/// Whether a final response is a failure of the op (transport error or
/// server error). An empty read or take is a valid answer, not a failure.
#[must_use]
pub fn response_failed(response: Option<&Response>) -> bool {
    matches!(response, None | Some(Response::Error { .. }))
}
