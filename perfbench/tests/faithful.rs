//! The benchmark builds its own simulators so it can probe every
//! component. These tests pin that those set-ups are the ones users call:
//! for fixed configurations they must produce the same digest as the
//! library entry points, traced or not.

use perfbench::paper::{build_case_study, case_study_digest};
use perfbench::probe::Stage;
use perfbench::shard::{build, shard_digest, trial_config};
use perfbench::{plan, Workload};
use tsbus_core::{run_case_study_observed, CaseStudyConfig};
use tsbus_des::SimTime;
use tsbus_faults::{FaultKind, FaultSchedule};
use tsbus_shard::run_shard_trial;
use tsbus_tpwire::Wiring;

#[test]
fn case_study_setup_matches_run_case_study_observed() {
    let two_wire = Wiring::parallel_data(2).expect("valid wiring");
    let base = CaseStudyConfig::table4_reference();
    let crash = FaultSchedule::new()
        .at(SimTime::from_secs(20), FaultKind::SlaveCrash(2))
        .at(SimTime::from_secs(25), FaultKind::SlaveRevive(2));
    let cases = [
        (base.with_cbr_rate(0.3), FaultSchedule::new()),
        (
            base.with_cbr_rate(1.0)
                .with_bus(base.bus.with_wiring(two_wire)),
            FaultSchedule::new(),
        ),
        (base.with_cbr_rate(0.3), crash),
    ];
    for (cfg, faults) in cases {
        let (lib_result, lib_snapshot) = run_case_study_observed(&cfg, &faults, 7);
        let expected = case_study_digest(&lib_result, &lib_snapshot);
        for stage in [Stage::UNTRACED, Stage::TRACED] {
            let (result, snapshot, _) = build_case_study(&cfg, &faults, 7, stage).run();
            assert_eq!(
                case_study_digest(&result, &snapshot),
                expected,
                "{stage:?} case study drifted from the library:\n{result:?}\nvs\n{lib_result:?}"
            );
        }
    }
}

#[test]
fn shard_setup_matches_run_shard_trial() {
    let cfg = trial_config(40);
    let lib = run_shard_trial(&cfg, 5);
    assert!(lib.finished);
    for stage in [Stage::UNTRACED, Stage::TRACED] {
        let (result, outcome) = build(&cfg, 5, stage).run();
        assert_eq!(
            shard_digest(&result),
            shard_digest(&lib),
            "{stage:?} cluster drifted from the library"
        );
        assert!(
            outcome.check_failures.is_empty(),
            "{:?}",
            outcome.check_failures
        );
        assert_eq!(outcome.failed, 0);
    }
}

#[test]
fn traced_and_untraced_trials_agree_on_every_workload() {
    for workload in Workload::ALL {
        let trials = plan(workload, 11);
        let trial = &trials[trials.len() / 2];
        let untraced = trial.prepare(Stage::UNTRACED).run();
        let traced = trial.prepare(Stage::TRACED).run();
        assert_eq!(untraced.digest, traced.digest, "{}", workload.name());
        assert_eq!(untraced.sim, traced.sim, "{}", workload.name());
        let spans = perfbench::probe::take_spans();
        assert!(
            spans.layers.iter().any(|t| t.calls > 0),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn inputs_follow_the_seed() {
    for workload in Workload::ALL {
        let digest = |seed| -> u64 {
            let trials = plan(workload, seed);
            perfbench::outcome::fnv1a(format!("{trials:?}").as_bytes())
        };
        assert_eq!(digest(3), digest(3), "{}", workload.name());
        assert_ne!(digest(3), digest(4), "{}", workload.name());
    }
}
