//! The measurement loop: set-up timing, whole rounds until the time
//! budget is spent, and the metrics computed from them.
//!
//! A shared host drifts in speed by ±20 % over tens of seconds (measured
//! on a 2-vCPU 2.1 GHz VM), far more than the regressions worth catching.
//! So about once a second the loop also times a fixed reference kernel
//! that belongs to the benchmark, not the program, and calibrates the
//! run's host times by it: each is scaled by [`REFERENCE_NOMINAL_NS`] over
//! the run's median reference time, so it reads as a time on a host where
//! the kernel takes exactly 6.5 ms. A change to the program cannot move
//! the kernel, so it moves the calibrated figures as it moves the raw
//! ones. The raw figures are printed beside them.

use std::time::{Duration, Instant};

use crate::outcome::{fold, SimCounters, TrialOutcome};
use crate::paper::table4_error_pct;
use crate::probe::{take_spans, Layer, Spans, Stage};
use crate::{plan, Workload};

/// The reference kernel's time on the nominal host (about what one core
/// of a 2.1 GHz shared VM takes at a quiet moment).
pub const REFERENCE_NOMINAL_NS: f64 = 6.5e6;

/// How often the loop re-times the reference kernel.
const REFERENCE_EVERY: Duration = Duration::from_secs(1);

/// The reference kernel: a fixed mix of the kind of work a simulator
/// does — filling and sorting a small vector, then inserting into and
/// probing a hash map — on a working set small enough to stay in a
/// core's private caches, so it follows the core's speed rather than
/// contention for shared cache. Its buffers are allocated once, so no
/// timing includes allocation or page faults.
#[derive(Debug)]
struct Reference {
    values: Vec<u64>,
    map: std::collections::HashMap<u64, u64>,
}

impl Reference {
    const LEN: usize = 4096;
    const REPEATS: u64 = 24;

    fn new() -> Self {
        Reference {
            values: Vec::with_capacity(Self::LEN),
            map: std::collections::HashMap::with_capacity(Self::LEN),
        }
    }

    /// Median host nanoseconds of three runs of the kernel.
    fn time_ns(&mut self) -> u64 {
        let mut samples = [0u64; 3];
        for sample in &mut samples {
            let started = Instant::now();
            let mut hits = 0u64;
            for rep in 0..Self::REPEATS {
                self.values.clear();
                self.map.clear();
                let mut x = 0x1234_5678_9abc_def0_u64 ^ rep;
                for _ in 0..Self::LEN {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    self.values.push(x);
                }
                self.values.sort_unstable();
                for (i, v) in self.values.iter().enumerate() {
                    self.map.insert(*v % 8_191, i as u64);
                }
                hits += self
                    .values
                    .iter()
                    .filter_map(|v| self.map.get(&(v >> 51)))
                    .sum::<u64>();
            }
            std::hint::black_box(hits);
            *sample = started.elapsed().as_nanos() as u64;
        }
        samples.sort_unstable();
        samples[1]
    }
}

/// One trial as run: host time, op accounting and per-layer spans.
#[derive(Debug, Clone)]
pub struct TrialRecord {
    /// Round the trial belongs to.
    pub round: usize,
    /// Index of the trial within its round.
    pub index: usize,
    /// Host nanoseconds to build the trial's simulator and run it to the
    /// last check.
    pub host_ns: u64,
    /// Ops attempted.
    pub ops: u64,
    /// Ops failed.
    pub failed: u64,
    /// Per-layer spans (all zero when untraced).
    pub spans: Spans,
}

/// Whole rounds of one stage.
#[derive(Debug, Clone, Default)]
pub struct Rounds {
    /// Every trial run, in order.
    pub records: Vec<TrialRecord>,
    /// Host nanoseconds of each round's set-up: generating its inputs
    /// from the seed and building every simulator, before any event.
    pub setup_ns: Vec<u64>,
    /// Outcomes of the first round (later rounds repeat them exactly,
    /// which [`run_rounds`] checks through the digest).
    pub first: Vec<TrialOutcome>,
    /// Digest of the first round's simulated outputs.
    pub digest: u64,
    /// Correctness checks that failed, over all rounds.
    pub check_failures: Vec<String>,
    /// Host nanoseconds of each timing of the reference kernel.
    pub reference_ns: Vec<u64>,
}

impl Rounds {
    /// The factor that turns this run's host times into times on the
    /// nominal host: the nominal reference time over the run's median.
    #[must_use]
    pub fn calibration(&self) -> f64 {
        let mut samples: Vec<f64> = self.reference_ns.iter().map(|ns| *ns as f64).collect();
        REFERENCE_NOMINAL_NS / median(&mut samples)
    }

    /// Rounds completed.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.setup_ns.len()
    }

    /// Host nanoseconds over all trials.
    #[must_use]
    pub fn host_ns(&self) -> u64 {
        self.records.iter().map(|r| r.host_ns).sum()
    }

    /// Calibrated nanoseconds over all trials.
    #[must_use]
    pub fn nominal_ns(&self) -> f64 {
        self.host_ns() as f64 * self.calibration()
    }

    /// Ops attempted over all rounds.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.records.iter().map(|r| r.ops).sum()
    }

    /// Ops failed over all rounds.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.records.iter().map(|r| r.failed).sum()
    }
}

/// Runs whole rounds of `workload` on `stage` until `budget` is spent
/// (at least one round). Each round first generates its inputs from
/// `seed` and builds every trial's simulator (the set-up), then runs the
/// trials in order. Every round must reproduce the first round's digest
/// exactly.
#[must_use]
pub fn run_rounds(workload: Workload, seed: u64, stage: Stage, budget: Duration) -> Rounds {
    let mut out = Rounds::default();
    let mut reference = Reference::new();
    let mut last_reference: Option<Instant> = None;
    let started = Instant::now();
    let _ = take_spans();
    // Start another round only while it would end, on average, no more
    // than half a round past the budget.
    while out.rounds() == 0
        || started.elapsed() + started.elapsed() / (2 * out.rounds() as u32) < budget
    {
        let round = out.rounds();
        let setup_started = Instant::now();
        let trials = plan(workload, seed);
        let mut prepared = Vec::with_capacity(trials.len());
        for trial in &trials {
            let t0 = Instant::now();
            prepared.push((trial.prepare(stage), t0.elapsed()));
        }
        out.setup_ns.push(setup_started.elapsed().as_nanos() as u64);
        let _ = take_spans();
        let mut digest = 0u64;
        for (index, (run, build)) in prepared.into_iter().enumerate() {
            if last_reference.is_none_or(|at| at.elapsed() >= REFERENCE_EVERY) {
                out.reference_ns.push(reference.time_ns());
                last_reference = Some(Instant::now());
            }
            let t0 = Instant::now();
            let outcome = run.run();
            let host_ns = (build + t0.elapsed()).as_nanos() as u64;
            digest = fold(digest, outcome.digest);
            out.records.push(TrialRecord {
                round,
                index,
                host_ns,
                ops: outcome.ops,
                failed: outcome.failed,
                spans: take_spans(),
            });
            for failure in &outcome.check_failures {
                out.check_failures
                    .push(format!("round {round} trial {index}: {failure}"));
            }
            if round == 0 {
                out.first.push(outcome);
            }
        }
        if round == 0 {
            out.digest = digest;
        } else if digest != out.digest {
            out.check_failures.push(format!(
                "round {round} digest {digest:016x} differs from round 0 {:016x}",
                out.digest
            ));
        }
    }
    out.reference_ns.push(reference.time_ns());
    out
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank-interpolated quantile of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// A named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics of an untraced run. `peak_rss_mb` is measured
/// by the launcher from outside the process and is not included here.
#[must_use]
pub fn end_to_end(rounds: &Rounds) -> Vec<Metric> {
    let scale = rounds.calibration();
    let mut setup_s: Vec<f64> = rounds
        .setup_ns
        .iter()
        .map(|ns| *ns as f64 * scale / 1e9)
        .collect();
    let mut trial_ms: Vec<f64> = rounds
        .records
        .iter()
        .map(|r| r.host_ns as f64 * scale / 1e6)
        .collect();
    vec![
        metric(
            "ops_per_s",
            "1/s",
            rounds.ops() as f64 / (rounds.nominal_ns() / 1e9),
        ),
        metric("trial_ms_p50", "ms", median(&mut trial_ms)),
        metric("setup_s", "s", median(&mut setup_s)),
    ]
}

/// [`end_to_end`] before calibration: plain host time of this run.
#[must_use]
pub fn raw_end_to_end(rounds: &Rounds) -> Vec<Metric> {
    let host_s = rounds.host_ns() as f64 / 1e9;
    let mut setup_s: Vec<f64> = rounds.setup_ns.iter().map(|ns| *ns as f64 / 1e9).collect();
    let mut trial_ms: Vec<f64> = rounds
        .records
        .iter()
        .map(|r| r.host_ns as f64 / 1e6)
        .collect();
    vec![
        metric("raw_ops_per_s", "1/s", rounds.ops() as f64 / host_s),
        metric("raw_trial_ms_p50", "ms", median(&mut trial_ms)),
        metric("raw_setup_s", "s", median(&mut setup_s)),
    ]
}

/// Figures that belong beside the metrics but are not bounded: the
/// failure fraction, the tail (where a run has at least 100 trials) and
/// the simulated accuracy of `paper_sweep`.
#[must_use]
pub fn extras(rounds: &Rounds) -> Vec<(String, String)> {
    let mut reference: Vec<f64> = rounds
        .reference_ns
        .iter()
        .map(|ns| *ns as f64 / 1e6)
        .collect();
    let mut out = vec![
        ("rounds".to_owned(), rounds.rounds().to_string()),
        (
            "reference_ms_p50".to_owned(),
            format!("{} (n={})", median(&mut reference), reference.len()),
        ),
        ("trials".to_owned(), rounds.records.len().to_string()),
        (
            "op_fail_frac".to_owned(),
            (rounds.failed() as f64 / rounds.ops().max(1) as f64).to_string(),
        ),
    ];
    if rounds.records.len() >= 100 {
        let scale = rounds.calibration();
        let mut trial_ms: Vec<f64> = rounds
            .records
            .iter()
            .map(|r| r.host_ns as f64 * scale / 1e6)
            .collect();
        out.push((
            "trial_ms_p90".to_owned(),
            format!("{} ms (n={})", quantile(&mut trial_ms, 0.9), trial_ms.len()),
        ));
    }
    let (table4, analytic) = accuracy(&rounds.first);
    if let Some(t) = table4 {
        out.push(("table4_error_pct".to_owned(), t.to_string()));
    }
    if let Some(a) = analytic {
        out.push(("analytic_error_pct".to_owned(), a.to_string()));
    }
    out
}

/// `(table4_error_pct, analytic_error_pct)` of a round, where present.
#[must_use]
pub fn accuracy(first: &[TrialOutcome]) -> (Option<f64>, Option<f64>) {
    let cells: Vec<_> = first.iter().filter_map(|o| o.table4_cell).collect();
    let table4 = if cells.is_empty() {
        None
    } else {
        table4_error_pct(&cells)
    };
    let errors: Vec<f64> = first.iter().filter_map(|o| o.analytic_error).collect();
    let analytic =
        (!errors.is_empty()).then(|| 100.0 * errors.iter().sum::<f64>() / errors.len() as f64);
    (table4, analytic)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run, per round (one pass over the
/// run's trials): host time and calls at each layer's entry points from
/// the traced rounds, simulated counters from the round's outcomes, and
/// the tracing overhead against the untraced rounds of the same run.
#[must_use]
pub fn per_layer(traced: &Rounds, untraced: &Rounds) -> Vec<Metric> {
    let n = traced.rounds().max(1) as f64;
    let mut spans = Spans::default();
    for r in &traced.records {
        spans.add(&r.spans);
    }
    let calls = |l: Layer| spans.of(l).calls as f64 / n;
    let self_ms = |l: Layer| spans.of(l).ns as f64 / 1e6 / n;
    let mut sim = SimCounters::default();
    for o in &traced.first {
        sim.add(&o.sim);
    }
    let ops: u64 = traced.first.iter().map(|o| o.ops).sum();
    let ops = ops as f64;
    let events = sim.events as f64;
    let kernel_ns = spans.of(Layer::Kernel).ns as f64 / n;
    let mut latencies: Vec<f64> = sim.latencies_ns.iter().map(|ns| *ns as f64 / 1e6).collect();
    let bus_calls = calls(Layer::Bus);
    let (table4, analytic) = accuracy(&traced.first);
    let traced_round_ns = traced.nominal_ns() / n;
    let untraced_round_ns = untraced.nominal_ns() / untraced.rounds().max(1) as f64;
    vec![
        metric("des.events", "count", events),
        metric("des.events_per_op", "events/op", ratio(events, ops)),
        metric("des.self_ms", "ms", kernel_ns / 1e6),
        metric("des.ns_per_event", "ns", ratio(kernel_ns, events)),
        metric("tpwire.bus.calls", "count", bus_calls),
        metric("tpwire.bus.self_ms", "ms", self_ms(Layer::Bus)),
        metric("tpwire.bus.txns", "count", sim.bus_txns as f64),
        metric(
            "tpwire.bus.poll_frac",
            "fraction",
            ratio(sim.bus_polls as f64, sim.bus_txns as f64),
        ),
        metric("tpwire.bus.relay_msgs", "count", sim.bus_relay_msgs as f64),
        metric(
            "tpwire.bus.calls_per_relay_msg",
            "calls/msg",
            ratio(bus_calls, sim.bus_relay_msgs as f64),
        ),
        metric(
            "tpwire.bus.retry_frac",
            "fraction",
            ratio(
                sim.bus_retries as f64,
                (sim.bus_txns + sim.bus_retries) as f64,
            ),
        ),
        metric(
            "tpwire.bus.busy_frac",
            "fraction",
            ratio(sim.bus_busy_ns, sim.bus_sim_ns),
        ),
        metric("faults.driver.calls", "count", calls(Layer::Faults)),
        metric("faults.injected", "count", sim.faults_injected as f64),
        metric("faults.fast_fails", "count", sim.fast_fails as f64),
        metric("faults.breaker_trips", "count", sim.breaker_trips as f64),
        metric("core.endpoint.calls", "count", calls(Layer::Endpoint)),
        metric("core.endpoint.self_ms", "ms", self_ms(Layer::Endpoint)),
        metric("core.client.calls", "count", calls(Layer::Client)),
        metric("core.client.self_ms", "ms", self_ms(Layer::Client)),
        metric(
            "core.client.attempts_per_op",
            "attempts/op",
            ratio(sim.client_attempts as f64, sim.client_ops as f64),
        ),
        metric(
            "core.client.reply_timeouts",
            "count",
            sim.reply_timeouts as f64,
        ),
        metric(
            "core.client.sim_latency_ms_p50",
            "ms",
            median(&mut latencies),
        ),
        metric("core.server.calls", "count", calls(Layer::Server)),
        metric("core.server.self_ms", "ms", self_ms(Layer::Server)),
        metric(
            "core.server.dedup_replays",
            "count",
            sim.dedup_replays as f64,
        ),
        metric(
            "core.server.waiters_parked",
            "count",
            sim.waiters_parked as f64,
        ),
        metric("tuplespace.space.ops", "count", sim.space_ops as f64),
        metric(
            "tuplespace.space.hit_frac",
            "fraction",
            ratio(
                sim.space_hits as f64,
                (sim.space_hits + sim.space_misses) as f64,
            ),
        ),
        metric(
            "tuplespace.space.expirations",
            "count",
            sim.space_expirations as f64,
        ),
        metric(
            "xmlwire.bytes_per_op",
            "bytes/op",
            ratio(spans.wire_bytes as f64 / n, ops),
        ),
        metric("shard.router.calls", "count", calls(Layer::Router)),
        metric("shard.router.self_ms", "ms", self_ms(Layer::Router)),
        metric(
            "shard.router.subops_per_op",
            "subops/op",
            ratio(sim.router_subops as f64, ops),
        ),
        metric("shard.router.retries", "count", sim.router_retries as f64),
        metric(
            "shard.router.read_repairs",
            "count",
            sim.router_read_repairs as f64,
        ),
        metric("core.buscbr.calls", "count", calls(Layer::BusCbr)),
        metric("core.buscbr.self_ms", "ms", self_ms(Layer::BusCbr)),
        metric("bench.link.calls", "count", calls(Layer::Link)),
        metric("bench.link.self_ms", "ms", self_ms(Layer::Link)),
        metric(
            "trace.overhead_frac",
            "fraction",
            ratio(traced_round_ns, untraced_round_ns) - 1.0,
        ),
        metric("table4_error_pct", "%", table4.unwrap_or(0.0)),
        metric("analytic_error_pct", "%", analytic.unwrap_or(0.0)),
    ]
}
