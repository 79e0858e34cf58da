//! # perfbench — the tsbus commit-to-commit benchmark
//!
//! Four named workloads, each built here from the layers' public
//! constructors and a workload seed, run at shipping settings in one
//! single-threaded process:
//!
//! | workload | stresses |
//! |---|---|
//! | `paper_sweep` | idle polls and CBR relays on a slow bus (Tables 3 and 4) |
//! | `shard_relay` | relay frames, shard router, quorum fan-out |
//! | `chaos_storm` | retries, breakers, dedup replays, reply timeouts |
//! | `standing_space` | codec and `Space` matching, notify, lease index |
//!
//! An untraced run reports the end-to-end metrics. A traced run wraps
//! every component in a [`probe::Timed`] and reports per-layer host time
//! and the simulated counters of every layer; its simulated outputs must
//! hash to the same `sim_digest` as the untraced run's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod measure;
pub mod outcome;
pub mod paper;
pub mod probe;
pub mod seeds;
pub mod shard;
pub mod standing;

use outcome::TrialOutcome;
use probe::Stage;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 3 validation bursts plus the Table 4 case-study sweep.
    PaperSweep,
    /// The 4-shard mirrored cluster on quiet buses.
    ShardRelay,
    /// Fault storms on one supervised segment.
    ChaosStorm,
    /// A large standing space over a direct link.
    StandingSpace,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::ShardRelay,
        Workload::ChaosStorm,
        Workload::StandingSpace,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::ShardRelay => "shard_relay",
            Workload::ChaosStorm => "chaos_storm",
            Workload::StandingSpace => "standing_space",
        }
    }

    /// Parses a command-line workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One trial's generated inputs.
#[derive(Debug, Clone)]
pub enum Trial {
    /// A `paper_sweep` point.
    Paper(Box<paper::PaperTrial>),
    /// A `shard_relay` cluster trial and its simulator seed.
    Shard(Box<tsbus_shard::ShardTrialConfig>, u64),
    /// A `chaos_storm` storm.
    Chaos(chaos::Storm),
    /// A `standing_space` trial.
    Standing(standing::Standing),
}

/// The trials of one round of `workload` for `seed`. A run repeats its
/// round whole, so every run measures the same mix.
#[must_use]
pub fn plan(workload: Workload, seed: u64) -> Vec<Trial> {
    match workload {
        Workload::PaperSweep => paper::plan(seed)
            .into_iter()
            .map(|t| Trial::Paper(Box::new(t)))
            .collect(),
        Workload::ShardRelay => shard::plan(seed)
            .into_iter()
            .map(|(cfg, s)| Trial::Shard(Box::new(cfg), s))
            .collect(),
        Workload::ChaosStorm => chaos::plan(seed).into_iter().map(Trial::Chaos).collect(),
        Workload::StandingSpace => standing::plan(seed)
            .into_iter()
            .map(Trial::Standing)
            .collect(),
    }
}

/// A trial whose simulator is built and has not dispatched an event.
pub enum Prepared {
    /// See [`paper::PaperRun`].
    Paper(paper::PaperRun),
    /// See [`shard::ShardRun`].
    Shard(shard::ShardRun),
    /// See [`chaos::StormRun`].
    Chaos(chaos::StormRun),
    /// See [`standing::StandingRun`].
    Standing(standing::StandingRun),
}

impl Trial {
    /// Builds the trial's simulator on `stage`.
    #[must_use]
    pub fn prepare(&self, stage: Stage) -> Prepared {
        match self {
            Trial::Paper(t) => Prepared::Paper(paper::prepare(t, stage)),
            Trial::Shard(cfg, seed) => Prepared::Shard(shard::build(cfg, *seed, stage)),
            Trial::Chaos(storm) => Prepared::Chaos(chaos::build(storm, stage)),
            Trial::Standing(t) => Prepared::Standing(standing::build(t, stage)),
        }
    }
}

impl Prepared {
    /// Runs the trial and scores it.
    #[must_use]
    pub fn run(self) -> TrialOutcome {
        match self {
            Prepared::Paper(run) => run.run(),
            Prepared::Shard(run) => run.run().1,
            Prepared::Chaos(run) => run.run(),
            Prepared::Standing(run) => run.run(),
        }
    }
}
