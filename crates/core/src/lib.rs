//! # bda-core — broadcast channel substrate for wireless data access
//!
//! This crate is the foundation of the `bda` workspace, a reproduction of
//! *Broadcast-Based Data Access in Wireless Environments* (Yang &
//! Bouguettaya, EDBT 2002). It models the push-based broadcast medium the
//! paper evaluates indexing schemes on:
//!
//! * **Byte-time.** Following the paper (§4.1), both evaluation metrics —
//!   *access time* (client waiting time) and *tuning time* (power consumed
//!   listening) — are measured in **bytes read from the channel**, not in
//!   wall-clock units. [`Ticks`] therefore counts bytes since the start of
//!   the simulation; one tick = one byte broadcast.
//! * **Buckets.** The atomic unit a client can read is a [`bucket::Bucket`];
//!   a broadcast cycle is a [`channel::Channel`] — a fixed cyclic sequence of
//!   buckets that the server repeats forever.
//! * **Protocol machines.** Each access method (flat broadcast, `(1,m)`
//!   indexing, distributed indexing, hashing, signature indexing) is driven
//!   by a resumable client state machine ([`machine::ProtocolMachine`]) that
//!   decides, after every bucket it reads, whether to keep listening, doze
//!   until a known offset, or finish. Two drivers execute machines: the
//!   direct walker ([`machine::run_machine`]) used by benchmarks, and the
//!   discrete-event testbed in `bda-sim`, which steps the same machines
//!   through [`scheme::QueryRun`].
//! * **Flat broadcast.** The paper's baseline — no index, clients scan every
//!   bucket — lives here as [`flat::FlatScheme`].
//!
//! Concrete indexing schemes live in sibling crates (`bda-btree`,
//! `bda-hash`, `bda-signature`); they all implement [`scheme::Scheme`] and
//! produce [`scheme::System`]s that this crate can exercise uniformly.

pub mod bucket;
pub mod channel;
pub mod coverage;
pub mod disks;
pub mod dynamic;
pub mod error;
pub mod errors_model;
pub mod flat;
pub mod key;
pub mod machine;
pub mod multichannel;
pub mod params;
pub mod record;
pub mod scheme;

pub use bucket::{Bucket, BucketMeta};
pub use channel::Channel;
pub use coverage::Coverage;
pub use disks::{
    DiskConfig, DiskGeometry, DiskLayout, DiskMachine, DiskScheme, DiskSystem, FlatDisksScheme,
    RepetitionSchedule,
};
pub use dynamic::{Epoch, ProgramTimeline, VersionedSlot, VersionedWalk};
pub use error::{BdaError, ProtocolFault, Result};
pub use errors_model::{
    BurstModel, ChainState, ChannelModel, ErrorModel, LossModel, OutageSchedule, RetryPolicy,
};
pub use flat::{FlatPayload, FlatScheme, FlatSystem};
pub use key::Key;
pub use machine::{
    AccessOutcome, Action, FastForward, ProtocolMachine, StaleResponse, Verdict, Walk, WalkStep,
};
pub use multichannel::{
    channel_model_for, even_partition, patch_outcome, patch_spans, remix_seed, BucketRef,
    GroupConfig, GroupPayload, GroupSlot, GroupWalk, IndexedGroupScheme, IndexedGroupSystem,
    StripedScheme, StripedSlot, StripedSystem, SwitchedRun,
};
pub use params::Params;
pub use record::{Dataset, Record};
pub use scheme::{DynSystem, QueryRun, QuerySlot, Scheme, System, WalkSlot};

// Observability vocabulary, re-exported so scheme crates implementing
// `ProtocolMachine::bucket_kind` (and drivers wiring recorders through
// walks) need not depend on `bda-obs` directly.
pub use bda_obs::{BucketKind, NoopRecorder, Phase, PhaseSpans, Recorder, SpanRecorder};

/// Simulation time, measured in **bytes broadcast** since time zero.
///
/// The broadcast server emits exactly one byte per tick, so a bucket of
/// `size` bytes occupies the half-open interval `[start, start + size)` on
/// the time axis. Using bytes as the clock matches the paper's measurement
/// methodology: access time and tuning time are both reported as byte
/// counts, which makes results independent of CPU speed, network delay and
/// host load (§4.1).
pub type Ticks = u64;
