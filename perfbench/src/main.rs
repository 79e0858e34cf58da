//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): times set-up, then runs whole rounds of the
//! workload for `--seconds` and prints the end-to-end metrics. Traced
//! (`--trace 1`): runs half the time untraced and half with every
//! component probed, checks both halves hash to the same `sim_digest`,
//! prints the per-layer metrics and writes the per-(trial, layer) spans
//! to `perfbench/out/`. The last line of standard output is one JSON
//! object; `perfbench/run.py` adds the peak resident memory it measures
//! from outside.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::measure::{
    end_to_end, extras, per_layer, raw_end_to_end, run_rounds, Metric, Rounds,
};
use perfbench::probe::{Layer, Stage};
use perfbench::{plan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_sweep|shard_relay|chaos_storm|standing_space> --seed <n> --seconds <1..600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Writes one `round trial layer calls ns` row per (trial, layer) with
/// any calls, plus each trial's transport bytes.
fn write_spans(path: &Path, rounds: &Rounds) -> std::io::Result<()> {
    let mut text = String::from("round\ttrial\tlayer\tcalls\tns\n");
    for r in &rounds.records {
        for layer in Layer::ALL {
            let t = r.spans.of(layer);
            if t.calls > 0 {
                let _ = writeln!(
                    text,
                    "{}\t{}\t{}\t{}\t{}",
                    r.round,
                    r.index,
                    layer.name(),
                    t.calls,
                    t.ns
                );
            }
        }
        let _ = writeln!(
            text,
            "{}\t{}\twire_bytes\t0\t{}",
            r.round, r.index, r.spans.wire_bytes
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    // Warm-up: one untimed trial fills caches and finishes lazy set-up.
    if let Some(trial) = plan(args.workload, args.seed).first() {
        let _ = trial.prepare(Stage::UNTRACED).run();
    }

    let budget = Duration::from_secs(args.seconds);
    let (metrics, mut failures, attempted, failed, digest_line, extra) = if args.trace {
        let untraced = run_rounds(args.workload, args.seed, Stage::UNTRACED, budget / 2);
        let traced = run_rounds(args.workload, args.seed, Stage::TRACED, budget / 2);
        let mut failures = untraced.check_failures.clone();
        failures.extend(traced.check_failures.iter().cloned());
        if traced.digest != untraced.digest {
            failures.push(format!(
                "traced sim_digest {:016x} != untraced {:016x}",
                traced.digest, untraced.digest
            ));
        }
        let path = format!("perfbench/out/spans-{name}-seed{}.tsv", args.seed);
        if let Err(e) = write_spans(Path::new(&path), &traced) {
            failures.push(format!("writing {path}: {e}"));
        }
        (
            per_layer(&traced, &untraced),
            failures,
            untraced.ops() + traced.ops(),
            untraced.failed() + traced.failed(),
            format!(
                "sim_digest={:016x} traced_sim_digest={:016x} spans={path}",
                untraced.digest, traced.digest
            ),
            extras(&traced),
        )
    } else {
        let rounds = run_rounds(args.workload, args.seed, Stage::UNTRACED, budget);
        let mut extra = extras(&rounds);
        for m in raw_end_to_end(&rounds) {
            extra.push((m.name.to_owned(), format!("{} {}", m.value, m.unit)));
        }
        (
            end_to_end(&rounds),
            rounds.check_failures.clone(),
            rounds.ops(),
            rounds.failed(),
            format!("sim_digest={:016x}", rounds.digest),
            extra,
        )
    };
    let mut failed = failed;
    if !failures.is_empty() {
        // A failed check fails the run: every op attempted counts.
        failed = attempted;
    }
    failures.truncate(20);
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let mut info = format!(
        "# perfbench workload={name} seed={} {digest_line}",
        args.seed
    );
    for (k, v) in &extra {
        let _ = write!(info, " {k}={v}");
    }
    println!("{info}");
    for m in &metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(failures.is_empty(), attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}
