//! # bda-sim — the adaptive testbed (paper §3)
//!
//! A discrete-event simulation engine mirroring the paper's testbed
//! architecture (Fig. 3):
//!
//! * [`server::BroadcastServer`] — wraps a built broadcast system
//!   ([`bda_core::DynSystem`]) and exposes channel timing plus broadcast
//!   statistics;
//! * [`reqgen::RequestGenerator`] — generates requests "periodically based
//!   on certain distribution … the request generation process follows
//!   exponential distribution", drawing keys from a
//!   [`bda_datagen::QueryWorkload`];
//! * [`engine`] — the event queue: request arrivals and per-client wake-ups
//!   interleave in global time order, each client advancing through its
//!   access protocol one bucket read / doze at a time;
//! * [`results::ResultHandler`] — accumulates access-time and tuning-time
//!   statistics;
//! * [`accuracy::AccuracyController`] — terminates the simulation only once
//!   the requested confidence level and accuracy are achieved (Table 1:
//!   confidence 0.99, accuracy 0.01), using a Student-t confidence
//!   interval exactly as defined in the paper's footnote 1;
//! * [`simulator::Simulator`] — the coordinator tying all of the above
//!   together (init → start → simulate rounds → end).
//!
//! The engine drives the *same* protocol machines as the fast direct
//! walker (`bda_core::machine::run_machine`), so event-driven and one-shot
//! execution provably agree — the integration suite asserts it.

pub mod accuracy;
pub mod engine;
pub mod reqgen;
pub mod results;
pub mod server;
pub mod sharded;
pub mod simulator;
pub mod stats;
pub mod timeline;
pub mod updates;

pub use accuracy::AccuracyController;
pub use engine::{CompletedRequest, Engine, EngineStats};
pub use reqgen::RequestGenerator;
pub use results::ResultHandler;
pub use server::{BroadcastServer, StripedVersionedServer, VersionedServer};
pub use sharded::{run_requests_partitioned, ShardRun, ShardedEngine};
pub use simulator::{SimConfig, SimReport, Simulator};
pub use stats::{student_t_quantile, Summary, Welford};
pub use timeline::{append_scheme_timeline, perfetto_trace, replay_spans, SpanSegment};
pub use updates::{UpdateOp, UpdateSpec, UpdateStream};
