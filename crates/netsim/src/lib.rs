//! # tsbus-netsim — NS-2-style links on the tsbus DES kernel
//!
//! The generic network layer of the workspace: [`Packet`]s and duplex
//! [`Link`]s with serialization and propagation delay, drop-tail queues
//! and a seeded [`LinkFaults`](tsbus_faults::LinkFaults) matrix per
//! direction, the NS-2 `duplex-link` analog.
//!
//! The TpWIRE bus itself lives in `tsbus-tpwire` (it is a master/slave
//! polled bus, not a packet-switched link), and its CBR load comes from
//! `tsbus-core`'s `BusCbrSource`. This crate is the substrate of the
//! Ethernet/TCP baseline the paper discusses in §4.3.
//!
//! ## Example: one packet over a 1 Mb/s link
//!
//! ```
//! use bytes::Bytes;
//! use tsbus_des::{Component, Context, Message, MessageExt, SimDuration, SimTime, Simulator};
//! use tsbus_netsim::{Deliver, Link, LinkSpec, Packet, Transmit};
//!
//! /// An endpoint that records when packets arrive.
//! #[derive(Default)]
//! struct Receiver {
//!     arrivals: Vec<SimTime>,
//! }
//!
//! impl Component for Receiver {
//!     fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
//!         if msg.is::<Deliver>() {
//!             self.arrivals.push(ctx.now());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new();
//! let a = sim.add_component("a", Receiver::default());
//! let b = sim.add_component("b", Receiver::default());
//! let spec = LinkSpec::new(1_000_000.0, SimDuration::from_micros(10), 64);
//! let link = sim.add_component("link", Link::new(spec, a, b));
//!
//! // 125 bytes take 1 ms to clock out at 1 Mb/s, then 10 µs to propagate.
//! let packet = Packet::new(a, b, 125, Bytes::new(), SimTime::ZERO);
//! sim.with_context(|ctx| ctx.send(link, Transmit { from: a, packet }));
//! sim.run_until(SimTime::from_secs(1));
//!
//! let receiver: &Receiver = sim.component(b).expect("registered above");
//! assert_eq!(receiver.arrivals, [SimTime::from_micros(1_010)]);
//! let link: &Link = sim.component(link).expect("registered above");
//! assert_eq!(link.stats(0, SimTime::from_secs(1)).forwarded, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod link;
mod packet;

pub use link::{Link, LinkSpec, LinkStats};
pub use packet::{Deliver, Packet, PacketSeq, Transmit};
