//! A storm harsher than `chaos_storm` uses: long error bursts and a crash
//! of the server's node. Exactly-once still holds, but ops are lost: when
//! the bus abandons a reply relay mid-message the client receives a
//! garbled reply and settles the op on it without retrying. That is why
//! `chaos_storm` keeps its faults inside what the stack recovers from.
//! Run the ignored test with `cargo test -- --ignored` to see the loss.

use perfbench::chaos::{build, Storm};
use perfbench::probe::Stage;
use tsbus_des::{SimDuration, SimTime};
use tsbus_faults::{BurstParams, FaultKind, FaultSchedule};

fn severe(seed: u64) -> Storm {
    Storm {
        seed,
        burst: BurstParams::with_mean_lengths(300.0, 13.0, 0.0, 1.0),
        schedule: FaultSchedule::new()
            .at(SimTime::from_millis(300), FaultKind::SlaveCrash(3))
            .at(SimTime::from_millis(700), FaultKind::SlaveRevive(3)),
        reply_timeout: SimDuration::from_millis(1_200),
    }
}

#[test]
fn severe_storm_keeps_exactly_once() {
    for seed in 1..=4 {
        let outcome = build(&severe(seed), Stage::UNTRACED).run();
        assert!(
            outcome.check_failures.is_empty(),
            "seed {seed}: {:?}",
            outcome.check_failures
        );
    }
}

#[test]
#[ignore = "known gap: a reply garbled by a mid-message relay abandon settles its op without a retry"]
fn severe_storm_completes_every_op() {
    for seed in 1..=4 {
        let outcome = build(&severe(seed), Stage::UNTRACED).run();
        assert_eq!(outcome.failed, 0, "seed {seed}: ops lost");
    }
}
