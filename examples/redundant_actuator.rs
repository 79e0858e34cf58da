//! Figure 1 — redundant actuators with tuplespace-coordinated failover.
//!
//! Run with `cargo run -p tsbus-core --example redundant_actuator`.
//!
//! Implements the paper's §2.1 fault-tolerance algorithm verbatim:
//!
//! 1. at startup the control agent puts a start tuple in the space and
//!    waits until it is removed;
//! 2. every actuator agent races to take it — exactly one wins and becomes
//!    *operating*, the others become *backup*;
//! 3. on each tick the operating actuator writes a heartbeat tuple
//!    ("operating OK");
//! 4. on each tick the backup tries to take the heartbeat; when that fails
//!    (its dual died), it promotes itself and takes over.
//!
//! The example injects a failure and shows the backup picking up within
//! one tick. Both agents share one [`Space`] and run in a virtual-time
//! tick loop, so the race and the failover replay identically every run.

use tsbus_des::{SimDuration, SimTime};
use tsbus_tuplespace::{template, tuple, Lease, Space, ValueType};

const TICK: SimDuration = SimDuration::from_millis(25);

/// One actuator agent.
struct Actuator {
    name: &'static str,
    /// Ticks after which the agent dies silently, if any.
    crash_after: Option<u32>,
    crashed: bool,
    operating: bool,
    ticks_operating: u32,
}

impl Actuator {
    fn new(name: &'static str, crash_after: Option<u32>) -> Self {
        Actuator {
            name,
            crash_after,
            crashed: false,
            operating: false,
            ticks_operating: 0,
        }
    }

    /// Step 2: race for the start tuple; one winner operates.
    fn start(&mut self, space: &mut Space, now: SimTime) {
        self.operating = space.take(&template!["actuator-start"], now).is_some();
        if self.operating {
            println!("{}: won the start tuple -> OPERATING", self.name);
        } else {
            println!("{}: start tuple already taken -> BACKUP", self.name);
        }
    }

    fn tick(&mut self, space: &mut Space, now: SimTime) {
        if self.crashed {
            return;
        }
        if self.operating {
            // Step 3: execute the control program, publish a heartbeat.
            self.ticks_operating += 1;
            if self.crash_after == Some(self.ticks_operating) {
                println!(
                    "{}: !! injected failure after {} ticks",
                    self.name, self.ticks_operating
                );
                self.crashed = true;
                return;
            }
            let lease = Lease::for_duration(now, TICK * 2);
            space.write(tuple!["actuator-state", "operating OK"], lease, now);
        } else {
            // Step 4: consume the dual's heartbeat; if none arrived, begin
            // the recovery procedure.
            let heartbeat = space.take(&template!["actuator-state", ValueType::Str], now);
            if heartbeat.is_none() {
                println!("{}: heartbeat missing -> promoting to OPERATING", self.name);
                self.operating = true;
            }
        }
    }
}

fn main() {
    println!("Figure 1 — redundant actuators over the tuplespace\n");
    let mut space = Space::new();
    let mut now = SimTime::ZERO;

    // Step 1: the control agent arms the system.
    space.write(tuple!["actuator-start"], Lease::Forever, now);

    // A reaches the space first, so it wins the race.
    let mut agents = [
        Actuator::new("actuator-A", Some(8)),
        Actuator::new("actuator-B", None),
    ];
    for agent in &mut agents {
        agent.start(&mut space, now);
    }

    // The control agent observes the start tuple disappearing (step 1's
    // wait) and then lets the system run through the failure.
    assert!(space.read(&template!["actuator-start"], now).is_none());
    println!("control: start tuple taken, control loop running\n");

    for _ in 0..20 {
        now += TICK;
        for agent in &mut agents {
            agent.tick(&mut space, now);
        }
    }

    let [a, b] = &agents;
    let (a_ticks, b_ticks) = (a.ticks_operating, b.ticks_operating);
    println!("\nactuator-A operated for {a_ticks} ticks (then failed)");
    println!("actuator-B operated for {b_ticks} ticks (after taking over)");
    assert!(a_ticks > 0, "A won the race and operated");
    assert!(b_ticks > 0, "B took over after the failure");
    println!("\nfailover complete: the controlled device never lost its actuator");
}
