//! Scheme and system traits — the uniform surface every access method
//! exposes to the testbed and benchmark harness.

use crate::channel::Channel;
use crate::error::Result;
use crate::errors_model::{ChannelModel, RetryPolicy};
use crate::key::Key;
use crate::machine::{AccessOutcome, ProtocolMachine, Walk, WalkStep};
use crate::params::Params;
use crate::record::Dataset;
use crate::Ticks;
use bda_obs::{NoopRecorder, PhaseSpans, Recorder, SpanRecorder};

/// A broadcast access method: given a dataset and sizing parameters, lay
/// out a broadcast cycle.
///
/// This corresponds to the paper's testbed step "depending on which
/// indexing scheme is selected, the `BroadcastServer` creates the
/// corresponding `Channel` object" (§3). The returned [`System`] bundles
/// the laid-out channel with everything needed to spawn client protocol
/// machines.
pub trait Scheme {
    /// The built broadcast system this scheme produces.
    type System: System;

    /// Lay out the broadcast cycle for `dataset` under `params`.
    fn build(&self, dataset: &Dataset, params: &Params) -> Result<Self::System>;

    /// Lay out a broadcast cycle for `dataset` stamped with program
    /// `version` — the rebuild path a dynamic broadcast server takes at
    /// every cycle boundary where updates were applied. Identical to
    /// [`Scheme::build`] except that the channel and every bucket header
    /// carry `version` instead of 0.
    fn rebuild(&self, dataset: &Dataset, params: &Params, version: u64) -> Result<Self::System> {
        let mut sys = self.build(dataset, params)?;
        sys.channel_mut().set_version(version);
        Ok(sys)
    }
}

/// A fully built broadcast system: a channel plus the ability to start
/// client queries against it.
pub trait System: Send + Sync {
    /// Scheme-specific bucket payload type.
    type Payload: Send + Sync;
    /// The client protocol machine type for this scheme.
    type Machine: ProtocolMachine<Self::Payload> + Send;

    /// Human-readable scheme name ("flat", "(1,m)", "distributed",
    /// "hashing", "signature", …).
    fn scheme_name(&self) -> &'static str;

    /// The broadcast cycle.
    fn channel(&self) -> &Channel<Self::Payload>;

    /// Mutable access to the broadcast cycle, so a dynamic server can stamp
    /// a freshly rebuilt program with its cycle version (see
    /// [`Scheme::rebuild`]).
    fn channel_mut(&mut self) -> &mut Channel<Self::Payload>;

    /// Create a protocol machine that searches for `key`.
    fn query(&self, key: Key) -> Self::Machine;
}

/// A stepping client query with type-erased internals, used by the
/// discrete-event testbed to interleave many concurrent clients.
///
/// Each [`QueryRun::step`] performs exactly one protocol action (one bucket
/// read, one doze, or completion), so the event engine can schedule the
/// client's next wake-up faithfully.
pub trait QueryRun {
    /// Perform the next protocol action.
    fn step(&mut self) -> WalkStep;

    /// Absolute time the client has reached so far.
    fn now(&self) -> Ticks;
}

impl<T: QueryRun + ?Sized> QueryRun for Box<T> {
    fn step(&mut self) -> WalkStep {
        (**self).step()
    }

    fn now(&self) -> Ticks {
        (**self).now()
    }
}

impl<P, M: ProtocolMachine<P>, R: Recorder> QueryRun for Walk<'_, P, M, R> {
    fn step(&mut self) -> WalkStep {
        Walk::step(self)
    }

    fn now(&self) -> Ticks {
        Walk::now(self)
    }
}

/// A **reusable** stepping-query slot: the allocation-free counterpart of
/// [`DynSystem::begin`].
///
/// [`DynSystem::begin`] boxes a fresh walker per request, which caps how
/// many concurrent clients a simulation can sustain. A `QuerySlot` is
/// allocated once (per *concurrent client slot*, not per request) and then
/// re-armed with [`QuerySlot::start`] for each new query, so a steady-state
/// simulation with a bounded client population performs no per-request heap
/// allocation at all. The discrete-event engine in `bda-sim` keeps a slab
/// of these.
///
/// `Send` is a supertrait so a slab of slots can be owned by a worker
/// thread: the sharded engine partitions clients across cores, and each
/// shard's arena (slots included) lives on that shard's thread. Every
/// slot implementation is plain data plus `&`-references into a
/// [`System`] (which is `Sync`), so the bound is free.
pub trait QuerySlot: Send {
    /// (Re)arm the slot for a new query on `key` tuning in at `tune_in`.
    /// Any previous query's state is discarded; internal storage is reused.
    fn start(&mut self, key: Key, tune_in: Ticks);

    /// Perform the next protocol action of the current query.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never started.
    fn step(&mut self) -> WalkStep;

    /// Absolute time the current query has reached.
    fn now(&self) -> Ticks;

    /// Whether the current query has completed (also true before the first
    /// [`QuerySlot::start`]).
    fn is_done(&self) -> bool;

    /// The current query's per-phase span decomposition, when this slot
    /// records one (an `observed` [`DynSystem::make_slot`]). The default —
    /// and every uninstrumented slot — returns `None`.
    fn spans(&self) -> Option<&PhaseSpans> {
        None
    }

    /// Ask the slot's subsequent queries to use analytical fast-forward
    /// (see [`Walk::set_fast_forward`]): bit-identical outcomes and
    /// accounting, O(1) walk steps per interesting bucket. The default is
    /// a no-op — slots that cannot fast-forward (e.g. walks over a
    /// *dynamic* broadcast program, whose cycle may change under the
    /// scan) simply keep stepping bucket by bucket.
    fn set_fast_forward(&mut self, enabled: bool) {
        let _ = enabled;
    }
}

/// The canonical [`QuerySlot`] for any [`System`]: an in-place
/// [`Walk`], rebuilt (not reallocated) on every [`QuerySlot::start`].
///
/// Each query runs with a fresh `R` recorder. With the default
/// [`NoopRecorder`] the slot records nothing; with a [`SpanRecorder`] its
/// per-phase spans are exposed via [`QuerySlot::spans`] until the next
/// [`QuerySlot::start`].
pub struct WalkSlot<'a, S: System, R = NoopRecorder> {
    system: &'a S,
    walk: Option<Walk<'a, S::Payload, S::Machine, R>>,
    channel: ChannelModel,
    policy: RetryPolicy,
    ff: bool,
}

impl<'a, S: System, R: Recorder + Default> WalkSlot<'a, S, R> {
    /// An empty slot whose queries all run behind `channel` with the
    /// client retry `policy`; call [`QuerySlot::start`] to arm it.
    pub fn new(system: &'a S, channel: ChannelModel, policy: RetryPolicy) -> Self {
        WalkSlot {
            system,
            walk: None,
            channel,
            policy,
            ff: false,
        }
    }
}

impl<S: System, R: Recorder + Default + Send> QuerySlot for WalkSlot<'_, S, R> {
    fn start(&mut self, key: Key, tune_in: Ticks) {
        let mut walk = Walk::with_channel_recorder(
            self.system.channel(),
            self.system.query(key),
            tune_in,
            self.channel,
            self.policy,
            R::default(),
        );
        walk.set_fast_forward(self.ff);
        self.walk = Some(walk);
    }

    fn set_fast_forward(&mut self, enabled: bool) {
        self.ff = enabled;
        if let Some(walk) = self.walk.as_mut() {
            walk.set_fast_forward(enabled);
        }
    }

    fn step(&mut self) -> WalkStep {
        self.walk
            .as_mut()
            .expect("QuerySlot::step before start")
            .step()
    }

    fn now(&self) -> Ticks {
        self.walk
            .as_ref()
            .expect("QuerySlot::now before start")
            .now()
    }

    fn is_done(&self) -> bool {
        self.walk.as_ref().map_or(true, Walk::is_done)
    }

    fn spans(&self) -> Option<&PhaseSpans> {
        self.walk.as_ref().and_then(|w| w.recorder().spans())
    }
}

/// Object-safe view of a [`System`], so the testbed and harness can treat
/// heterogeneous schemes uniformly (`Box<dyn DynSystem>`).
///
/// Every [`System`] implements this automatically (blanket impl), so
/// `probe`/`begin` are available on concrete systems too — import this
/// trait to use them. Keeping `probe` on exactly one trait avoids method
/// ambiguity when both traits are in scope.
///
/// A client's channel is always the pair `(ChannelModel, RetryPolicy)`:
/// [`ChannelModel::NONE`] with [`RetryPolicy::UNBOUNDED`] is the paper's
/// perfect channel.
pub trait DynSystem: Send + Sync {
    /// Human-readable scheme name.
    fn scheme_name(&self) -> &'static str;

    /// Broadcast cycle length in bytes (`Bt`).
    fn cycle_len(&self) -> Ticks;

    /// Buckets per cycle.
    fn num_buckets(&self) -> usize;

    /// Run one complete query over a lossless channel (fast path).
    fn probe(&self, key: Key, tune_in: Ticks) -> AccessOutcome {
        self.probe_with_channel(key, tune_in, ChannelModel::NONE, RetryPolicy::UNBOUNDED)
    }

    /// Run one complete query behind `channel` (i.i.d. or burst loss,
    /// outage windows, or none) under the client retry `policy` — the
    /// direct walker.
    fn probe_with_channel(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> AccessOutcome;

    /// [`DynSystem::probe_with_channel`] with span instrumentation: also
    /// returns the query's per-phase access/tuning decomposition, whose
    /// totals equal the outcome's `access`/`tuning` exactly.
    fn probe_recorded(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> (AccessOutcome, PhaseSpans);

    /// Start a stepping query for the event-driven testbed.
    fn begin(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Box<dyn QueryRun + '_>;

    /// Allocate a reusable client slot. One slot serves many sequential
    /// queries via [`QuerySlot::start`]; the slab-based event engine keeps
    /// one per concurrent client instead of boxing a walker per request.
    /// An `observed` slot records per-phase spans, exposed via
    /// [`QuerySlot::spans`] after each completion.
    fn make_slot(
        &self,
        channel: ChannelModel,
        policy: RetryPolicy,
        observed: bool,
    ) -> Box<dyn QuerySlot + '_>;
}

impl<S: System> DynSystem for S
where
    S::Machine: 'static,
{
    fn scheme_name(&self) -> &'static str {
        System::scheme_name(self)
    }

    fn cycle_len(&self) -> Ticks {
        self.channel().cycle_len()
    }

    fn num_buckets(&self) -> usize {
        self.channel().num_buckets()
    }

    fn probe_with_channel(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> AccessOutcome {
        drain(&mut one_shot_walk(
            self,
            key,
            tune_in,
            channel,
            policy,
            NoopRecorder,
        ))
    }

    fn probe_recorded(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> (AccessOutcome, PhaseSpans) {
        let mut walk = one_shot_walk(self, key, tune_in, channel, policy, SpanRecorder::new());
        (drain(&mut walk), walk.recorder().spans)
    }

    // Bucket by bucket on purpose: this is the stepping run the heap
    // reference oracle drives, and the slow twin the equivalence suites
    // hold every fast-forwarding drain to.
    fn begin(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Box<dyn QueryRun + '_> {
        Box::new(Walk::with_channel(
            self.channel(),
            self.query(key),
            tune_in,
            channel,
            policy,
        ))
    }

    fn make_slot(
        &self,
        channel: ChannelModel,
        policy: RetryPolicy,
        observed: bool,
    ) -> Box<dyn QuerySlot + '_> {
        if observed {
            Box::new(WalkSlot::<_, SpanRecorder>::new(self, channel, policy))
        } else {
            Box::new(WalkSlot::<_, NoopRecorder>::new(self, channel, policy))
        }
    }
}

/// The walk every one-shot drain of a [`System`] runs: analytical
/// fast-forward on, which collapses scans to O(1) steps for machines with
/// [`ProtocolMachine::FAST_FORWARD`] and changes nothing for the rest.
pub(crate) fn one_shot_walk<S: System, R: Recorder>(
    system: &S,
    key: Key,
    tune_in: Ticks,
    channel: ChannelModel,
    policy: RetryPolicy,
    recorder: R,
) -> Walk<'_, S::Payload, S::Machine, R> {
    let mut walk = Walk::with_channel_recorder(
        system.channel(),
        system.query(key),
        tune_in,
        channel,
        policy,
        recorder,
    );
    walk.set_fast_forward(true);
    walk
}

/// Drive a [`QueryRun`] to completion and return its outcome — the loop
/// every one-shot probe runs.
pub fn drain<Q: QueryRun + ?Sized>(run: &mut Q) -> AccessOutcome {
    loop {
        if let WalkStep::Done(out) = run.step() {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors_model::ErrorModel;
    use crate::flat::FlatScheme;
    use crate::machine::run_machine;
    use crate::record::Record;

    fn tiny_dataset() -> Dataset {
        Dataset::new((0..8).map(|i| Record::keyed(i * 10)).collect()).unwrap()
    }

    #[test]
    fn dyn_system_matches_typed_system() {
        let ds = tiny_dataset();
        let params = Params::paper();
        let sys = FlatScheme.build(&ds, &params).unwrap();
        let dynsys: &dyn DynSystem = &sys;

        assert_eq!(dynsys.scheme_name(), "flat");
        assert_eq!(dynsys.num_buckets(), 8);
        assert_eq!(dynsys.cycle_len(), 8 * u64::from(params.data_bucket_size()));

        for t in [0u64, 17, 1000, 5555] {
            let a = run_machine(sys.channel(), sys.query(Key(30)), t);
            let b = dynsys.probe(Key(30), t);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn reused_slot_agrees_with_one_shot_probe() {
        let ds = tiny_dataset();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let dynsys: &dyn DynSystem = &sys;
        let mut slot = dynsys.make_slot(ChannelModel::NONE, RetryPolicy::UNBOUNDED, false);
        assert!(slot.is_done(), "fresh slot is idle");
        // One slot serves many sequential queries.
        for key in [Key(0), Key(50), Key(55), Key(20)] {
            for t in [0u64, 123, 4096] {
                slot.start(key, t);
                assert!(!slot.is_done());
                let stepped = loop {
                    if let WalkStep::Done(out) = slot.step() {
                        break out;
                    }
                };
                assert!(slot.is_done());
                assert_eq!(stepped, dynsys.probe(key, t));
            }
        }
    }

    #[test]
    fn fault_armed_slot_agrees_with_policy_probe() {
        let ds = tiny_dataset();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let dynsys: &dyn DynSystem = &sys;
        let channel = ChannelModel::iid(ErrorModel::new(0.2, 11));
        let policy = RetryPolicy::bounded(3);
        let mut slot = dynsys.make_slot(channel, policy, false);
        for key in [Key(0), Key(50), Key(55), Key(20)] {
            for t in [0u64, 123, 4096] {
                slot.start(key, t);
                let stepped = loop {
                    if let WalkStep::Done(out) = slot.step() {
                        break out;
                    }
                };
                assert_eq!(stepped, dynsys.probe_with_channel(key, t, channel, policy));
                let mut run = dynsys.begin(key, t, channel, policy);
                assert_eq!(drain(run.as_mut()), stepped);
            }
        }
    }

    #[test]
    fn observed_slot_and_probe_agree_with_plain_ones() {
        let ds = tiny_dataset();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let dynsys: &dyn DynSystem = &sys;
        let channel = ChannelModel::iid(ErrorModel::new(0.2, 11));
        let policy = RetryPolicy::bounded(3);
        let mut slot = dynsys.make_slot(channel, policy, true);
        assert!(slot.spans().is_none(), "unarmed slot has no spans");
        for key in [Key(0), Key(50), Key(55), Key(20)] {
            for t in [0u64, 123, 4096] {
                let plain = dynsys.probe_with_channel(key, t, channel, policy);
                let (recorded, spans) = dynsys.probe_recorded(key, t, channel, policy);
                assert_eq!(plain, recorded);
                assert_eq!(spans.total_access(), plain.access);
                assert_eq!(spans.total_tuning(), plain.tuning);

                slot.start(key, t);
                let stepped = loop {
                    if let WalkStep::Done(out) = slot.step() {
                        break out;
                    }
                };
                assert_eq!(stepped, plain);
                let slot_spans = slot.spans().expect("observed slot exposes spans");
                assert_eq!(*slot_spans, spans);
            }
        }
    }

    #[test]
    fn stepping_run_agrees_with_one_shot_probe() {
        let ds = tiny_dataset();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let dynsys: &dyn DynSystem = &sys;
        for key in [Key(0), Key(50), Key(55)] {
            for t in [0u64, 123, 4096] {
                let fast = dynsys.probe(key, t);
                let mut run = dynsys.begin(key, t, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
                let stepped = drain(run.as_mut());
                assert_eq!(fast, stepped);
            }
        }
    }
}
