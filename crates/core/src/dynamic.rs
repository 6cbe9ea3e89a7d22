//! Dynamic broadcast programs: versioned epochs and the stale-aware walker.
//!
//! The paper freezes the broadcast program: every cycle repeats the same
//! buckets forever, so a client chasing a pointer can never be misled. A
//! *dynamic* server mutates the database between cycles and rebuilds the
//! program, which breaks that guarantee — a pointer read from version `v`
//! may land in a bucket laid out by version `v + 1` whose offsets mean
//! something entirely different.
//!
//! This module models the client side of that world:
//!
//! * A [`ProgramTimeline`] is the air history: a sequence of [`Epoch`]s,
//!   each broadcasting one immutable program (a built [`System`]) for a
//!   whole number of its cycles. Version stamps are carried in every
//!   bucket header ([`crate::Bucket::version`]).
//! * A [`VersionedWalk`] drives a [`ProtocolMachine`] across the timeline
//!   with byte-exact [`Walk`](crate::machine::Walk)-compatible accounting.
//!   Before a bucket's payload reaches the machine, the walker compares the
//!   header version against the walk's **anchor version** (the program the
//!   machine's pointers were derived from). On mismatch it reports the
//!   skew to the machine ([`ProtocolMachine::on_stale`]) and, for the default
//!   [`StaleResponse::Respawn`], rebuilds the machine against the live
//!   program and re-anchors at the skewed bucket.
//!
//! The discipline that makes verdicts sound: **a machine only ever sees
//! payloads whose version equals its own build version.** Every verdict is
//! therefore computed entirely within one program version, so "found"
//! means the record was broadcast by some program on the air during the
//! walk, and "not found" means some single program provably lacked it —
//! never a phantom read of a half-old, half-new cycle.
//!
//! With a single epoch (a frozen program) the walker executes the exact
//! same decisions as [`Walk`](crate::machine::Walk) and produces
//! bit-identical [`AccessOutcome`]s — the keystone invariant the differential suite in
//! `bda-sim` pins down.

use crate::bucket::{Bucket, BucketMeta};
use crate::error::{BdaError, Result};
use crate::errors_model::{ChannelModel, RetryPolicy};
use crate::key::Key;
use crate::machine::{AccessOutcome, Action, ProtocolMachine, StaleResponse, WalkStep};
use crate::scheme::{QueryRun, QuerySlot, System};
use crate::Ticks;
use bda_obs::{BucketKind, NoopRecorder, Phase, PhaseSpans, Recorder};

/// One stretch of air time during which a single broadcast program repeats.
#[derive(Debug)]
pub struct Epoch<S: System> {
    /// The immutable program on the air during this epoch. Its channel
    /// (and every bucket header) is stamped with the epoch's version.
    pub system: S,
    /// Absolute time the epoch begins. The first cycle of the program
    /// starts exactly here.
    pub start: Ticks,
}

impl<S: System> Epoch<S> {
    /// The program version this epoch broadcasts.
    pub fn version(&self) -> u64 {
        self.system.channel().version()
    }
}

/// The broadcast history of a dynamic server: consecutive [`Epoch`]s, each
/// spanning a whole number of its own program's cycles. The last epoch
/// extends forever (the server stopped updating, or the simulation horizon
/// ended).
#[derive(Debug)]
pub struct ProgramTimeline<S: System> {
    epochs: Vec<Epoch<S>>,
}

impl<S: System> ProgramTimeline<S> {
    /// Assemble a timeline. Fails unless the epochs are non-empty, start at
    /// time 0, strictly increase, and each finite epoch spans a whole
    /// number of its own cycles — the alignment that guarantees every
    /// epoch boundary is also a cycle boundary of the outgoing program, so
    /// no bucket straddles two programs.
    pub fn new(epochs: Vec<Epoch<S>>) -> Result<Self> {
        if epochs.is_empty() {
            return Err(BdaError::BuildError("timeline has no epochs".into()));
        }
        if epochs[0].start != 0 {
            return Err(BdaError::BuildError(format!(
                "first epoch starts at {} instead of 0",
                epochs[0].start
            )));
        }
        for i in 0..epochs.len() - 1 {
            let span = epochs[i + 1].start.saturating_sub(epochs[i].start);
            let cycle = epochs[i].system.channel().cycle_len();
            if span == 0 {
                return Err(BdaError::BuildError(format!(
                    "epoch {} is empty (start {} repeated)",
                    i + 1,
                    epochs[i + 1].start
                )));
            }
            if span % cycle != 0 {
                return Err(BdaError::BuildError(format!(
                    "epoch {i} spans {span} bytes, not a multiple of its cycle length {cycle}"
                )));
            }
        }
        Ok(ProgramTimeline { epochs })
    }

    /// A single-epoch timeline: the frozen-program special case.
    pub fn frozen(system: S) -> Self {
        ProgramTimeline {
            epochs: vec![Epoch { system, start: 0 }],
        }
    }

    /// All epochs in air order.
    pub fn epochs(&self) -> &[Epoch<S>] {
        &self.epochs
    }

    /// Epoch `i`.
    pub fn epoch(&self, i: usize) -> &Epoch<S> {
        &self.epochs[i]
    }

    /// Index of the epoch on the air at absolute time `t` (the last epoch
    /// with `start <= t`).
    pub fn index_at(&self, t: Ticks) -> usize {
        self.epochs.partition_point(|e| e.start <= t) - 1
    }

    /// The first complete bucket a client tuning in (or resuming) at `t`
    /// can read: `(epoch index, bucket index, absolute start time)`.
    ///
    /// Within an epoch this is the epoch-local
    /// [`crate::Channel::first_complete_at`]; when the wait would cross
    /// into the next epoch the answer is that epoch's first bucket. Epoch
    /// spans are whole cycles, so a wrap past the last bucket lands exactly
    /// on the epoch boundary — never inside a phantom cycle of the old
    /// program.
    pub fn first_complete_at(&self, t: Ticks) -> (usize, usize, Ticks) {
        let ei = self.index_at(t);
        let e = &self.epochs[ei];
        let local = t - e.start;
        let (idx, start_local) = e.system.channel().first_complete_at(local);
        let start = e.start.saturating_add(start_local);
        if let Some(next) = self.epochs.get(ei + 1) {
            if start >= next.start {
                return (ei + 1, 0, next.start);
            }
        }
        (ei, idx, start)
    }
}

/// Drives a [`ProtocolMachine`] across a [`ProgramTimeline`] — the
/// dynamic-broadcast counterpart of [`Walk`], with identical byte
/// accounting plus version-skew detection and stale-restart recovery.
///
/// [`Walk`]: crate::machine::Walk
#[derive(Debug)]
pub struct VersionedWalk<'a, S: System, R = NoopRecorder> {
    timeline: &'a ProgramTimeline<S>,
    machine: S::Machine,
    key: Key,
    /// Program version the current machine's pointers are derived from.
    anchor_version: u64,
    tune_in: Ticks,
    now: Ticks,
    tuning: Ticks,
    probes: u32,
    retries: u32,
    stale_restarts: u32,
    version_skews: u32,
    false_drops_hint: u32,
    pending: Option<Action>,
    outcome: Option<AccessOutcome>,
    max_probes: u32,
    channel: ChannelModel,
    policy: RetryPolicy,
    /// Consecutive unusable reads that fell inside an outage window —
    /// drives the exponential resynchronization back-off; reset by any
    /// usable or merely-lossy read.
    outage_streak: u32,
    recorder: R,
}

impl<'a, S: System> VersionedWalk<'a, S> {
    /// Begin a query at absolute time `tune_in` over a lossless channel.
    pub fn new(timeline: &'a ProgramTimeline<S>, key: Key, tune_in: Ticks) -> Self {
        VersionedWalk::with_channel(
            timeline,
            key,
            tune_in,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
        )
    }

    /// Begin a query behind a [`ChannelModel`] (i.i.d. or burst loss,
    /// with or without outages) under the client retry `policy`.
    pub fn with_channel(
        timeline: &'a ProgramTimeline<S>,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Self {
        VersionedWalk::with_channel_recorder(timeline, key, tune_in, channel, policy, NoopRecorder)
    }
}

impl<'a, S: System, R: Recorder> VersionedWalk<'a, S, R> {
    /// [`VersionedWalk::with_channel`] reporting every step's
    /// phase-attributed span to `recorder` — the dynamic counterpart of
    /// [`Walk::with_channel_recorder`](crate::machine::Walk::with_channel_recorder).
    /// Skewed reads (header version ≠ anchor version) are attributed to
    /// [`Phase::StaleRecovery`]. Every other constructor delegates here.
    pub fn with_channel_recorder(
        timeline: &'a ProgramTimeline<S>,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
        recorder: R,
    ) -> Self {
        let epoch = timeline.epoch(timeline.index_at(tune_in));
        let mut machine = epoch.system.query(key);
        let pending = machine.start(tune_in);
        // Same budget formula as `Walk`, sized by the largest program on
        // the timeline (identical to the frozen budget when there is one
        // epoch, so zero-update runs abort at exactly the same point).
        let max_buckets = timeline
            .epochs()
            .iter()
            .map(|e| e.system.channel().num_buckets())
            .max()
            .unwrap_or(1) as u32;
        let base = max_buckets.saturating_mul(4).saturating_add(64);
        let worst = channel.worst_loss();
        let mut max_probes = if worst > 0.0 {
            let factor = (1.0 / (1.0 - worst.min(0.99))).ceil() as u32 + 4;
            base.saturating_mul(factor)
        } else {
            base
        };
        if channel.has_outages() {
            max_probes = max_probes.saturating_mul(4).saturating_add(256);
        }
        VersionedWalk {
            timeline,
            machine,
            key,
            anchor_version: epoch.version(),
            tune_in,
            now: tune_in,
            tuning: 0,
            probes: 0,
            retries: 0,
            stale_restarts: 0,
            version_skews: 0,
            false_drops_hint: 0,
            pending: Some(pending),
            outcome: None,
            max_probes,
            channel,
            policy,
            outage_streak: 0,
            recorder,
        }
    }

    /// The walk's recorder (e.g. to read accumulated spans).
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Mutable access to the walk's recorder.
    pub fn recorder_mut(&mut self) -> &mut R {
        &mut self.recorder
    }

    /// Absolute simulation time the client has reached.
    pub fn now(&self) -> Ticks {
        self.now
    }

    /// Whether the query has completed.
    pub fn is_done(&self) -> bool {
        self.outcome.is_some()
    }

    /// The outcome, if the query has completed.
    pub fn outcome(&self) -> Option<AccessOutcome> {
        self.outcome
    }

    fn finish(&mut self, found: bool, false_drops: u32, aborted: bool) -> WalkStep {
        let out = AccessOutcome {
            found,
            access: self.now - self.tune_in,
            tuning: self.tuning,
            probes: self.probes,
            false_drops,
            retries: self.retries,
            abandoned: false,
            aborted,
            stale_restarts: self.stale_restarts,
            version_skews: self.version_skews,
        };
        self.outcome = Some(out);
        WalkStep::Done(out)
    }

    /// Give up truthfully — the retry budget ran out, program churn
    /// starved the walk (probe budget exhausted with restarts on record),
    /// or the clock reached its end.
    fn abandon(&mut self) -> WalkStep {
        let mut step = self.finish(false, self.false_drops_hint, false);
        if let (Some(out), WalkStep::Done(done)) = (self.outcome.as_mut(), &mut step) {
            out.abandoned = true;
            done.abandoned = true;
        }
        step
    }

    /// The probe budget ran out. On a channel that actually corrupted
    /// reads — or under program churn that starved the walk — this is a
    /// truthful abandonment; on a clean frozen walk it flags a runaway
    /// machine and aborts, as it always has.
    fn exhaust(&mut self) -> WalkStep {
        if self.retries > 0 || self.stale_restarts > 0 {
            self.abandon()
        } else {
            self.finish(false, self.false_drops_hint, true)
        }
    }

    /// Apply a back-off of `cycles` whole cycles to a post-corruption
    /// action, using the cycle length of the program the client just read
    /// from (whole-cycle shifts preserve the bucket the machine expects).
    fn backoff(&self, act: Action, cycles: u32, cycle_len: Ticks) -> Action {
        if cycles == 0 {
            return act;
        }
        let shift = Ticks::from(cycles).saturating_mul(cycle_len);
        match act {
            Action::ReadNext => Action::DozeTo(self.now.saturating_add(shift)),
            Action::DozeTo(t) => Action::DozeTo(t.saturating_add(shift)),
            other => other,
        }
    }

    /// Discard the stale machine and restart the protocol against the
    /// program that owns `bucket`. The skewed bucket is already paid for
    /// (probe + tuning), and it is a perfectly valid bucket of the *new*
    /// program — so if the fresh machine's first action is `ReadNext`, the
    /// walker feeds it this bucket instead of burning another read.
    fn respawn(
        &mut self,
        epoch: &'a Epoch<S>,
        bucket: &'a Bucket<S::Payload>,
        meta: BucketMeta,
    ) -> Action {
        self.stale_restarts += 1;
        self.anchor_version = bucket.version;
        self.machine = epoch.system.query(self.key);
        let act = self.machine.start(meta.start);
        if matches!(act, Action::ReadNext) {
            self.machine.on_bucket(&bucket.payload, meta)
        } else {
            act
        }
    }

    /// Execute the machine's next action and report what happened —
    /// byte-for-byte the same accounting as
    /// [`Walk::step`](crate::machine::Walk::step), plus the version-skew
    /// check between corruption handling and payload delivery.
    pub fn step(&mut self) -> WalkStep {
        if let Some(out) = self.outcome {
            return WalkStep::Done(out);
        }
        let action = self
            .pending
            .take()
            .expect("walk invariant: pending action present while not done");
        match action {
            Action::ReadNext => {
                if self.probes >= self.max_probes {
                    return self.exhaust();
                }
                let timeline = self.timeline;
                let (ei, idx, start) = timeline.first_complete_at(self.now);
                let epoch = timeline.epoch(ei);
                let ch = epoch.system.channel();
                let bucket = ch.bucket(idx);
                let size = Ticks::from(bucket.size);
                let Some(end) = start.checked_add(size) else {
                    // The clock would pass `Ticks::MAX`: give up truthfully.
                    return self.abandon();
                };
                let from = self.now;
                self.tuning += end - self.now;
                self.now = end;
                self.probes += 1;
                let meta = BucketMeta {
                    index: idx,
                    start,
                    end,
                    size: size as u32,
                    version: bucket.version,
                };
                if R::ENABLED {
                    // Corruption trumps skew (the header is unreadable);
                    // skew trumps structure (the payload is withheld from
                    // the machine, so the read buys recovery, not progress).
                    let phase = if self.channel.corrupted(start) {
                        Phase::Retry
                    } else if bucket.version != self.anchor_version {
                        Phase::StaleRecovery
                    } else if self.probes == 1 {
                        Phase::InitialProbe
                    } else {
                        match self.machine.bucket_kind(&bucket.payload) {
                            BucketKind::Index => Phase::IndexTraversal,
                            BucketKind::Data => Phase::DataRead,
                        }
                    };
                    self.recorder.span(phase, end - from, end - from);
                }
                let next = if self.channel.corrupted(start) {
                    // A corrupted transmission hides the header too: the
                    // client can't even see the version. Skew, if any, is
                    // caught on the next clean read.
                    self.retries += 1;
                    if self.policy.gives_up(self.retries, self.now - self.tune_in) {
                        return self.abandon();
                    }
                    if self.channel.in_outage(start) {
                        // Carrier gone: resynchronize against whichever
                        // program is on the air when the client returns.
                        self.outage_streak += 1;
                        let recovery = self.machine.on_outage(meta);
                        let cycles = self.policy.recovery_cycles(self.outage_streak, true);
                        self.backoff(recovery, cycles, ch.cycle_len())
                    } else {
                        self.outage_streak = 0;
                        let recovery = self.machine.on_corrupt(meta);
                        let cycles = self.policy.recovery_cycles(self.retries, false);
                        self.backoff(recovery, cycles, ch.cycle_len())
                    }
                } else if bucket.version != self.anchor_version {
                    self.outage_streak = 0;
                    self.version_skews += 1;
                    match self.machine.on_stale(meta) {
                        StaleResponse::Resume(act) => {
                            self.anchor_version = bucket.version;
                            act
                        }
                        StaleResponse::Respawn => self.respawn(epoch, bucket, meta),
                    }
                } else {
                    self.outage_streak = 0;
                    self.machine.on_bucket(&bucket.payload, meta)
                };
                if let Action::Finish(v) = next {
                    self.false_drops_hint = v.false_drops;
                }
                self.pending = Some(next);
                WalkStep::Read {
                    bucket: idx,
                    from,
                    until: end,
                }
            }
            Action::DozeTo(t) => {
                if t < self.now {
                    return self.finish(false, self.false_drops_hint, true);
                }
                if R::ENABLED {
                    self.recorder.span(Phase::Doze, t - self.now, 0);
                }
                self.now = t;
                self.pending = Some(Action::ReadNext);
                WalkStep::Doze { until: t }
            }
            Action::Finish(v) => self.finish(v.found, v.false_drops, false),
            Action::Fail(_) => self.finish(false, self.false_drops_hint, true),
        }
    }
}

impl<S: System, R: Recorder> QueryRun for VersionedWalk<'_, S, R> {
    fn step(&mut self) -> WalkStep {
        VersionedWalk::step(self)
    }

    fn now(&self) -> Ticks {
        VersionedWalk::now(self)
    }
}

/// The reusable [`QuerySlot`] over a [`ProgramTimeline`] — the dynamic
/// counterpart of [`crate::scheme::WalkSlot`], used by the slab engine so
/// dynamic mode performs no per-request allocation either. Each query
/// runs with a fresh `R` recorder; a [`SpanRecorder`](bda_obs::SpanRecorder)
/// exposes its spans via [`QuerySlot::spans`].
pub struct VersionedSlot<'a, S: System, R = NoopRecorder> {
    timeline: &'a ProgramTimeline<S>,
    walk: Option<VersionedWalk<'a, S, R>>,
    channel: ChannelModel,
    policy: RetryPolicy,
}

impl<'a, S: System, R: Recorder + Default> VersionedSlot<'a, S, R> {
    /// An empty slot whose queries run behind `channel` with the client
    /// retry `policy`; [`QuerySlot::start`] arms it.
    pub fn new(
        timeline: &'a ProgramTimeline<S>,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Self {
        VersionedSlot {
            timeline,
            walk: None,
            channel,
            policy,
        }
    }
}

impl<S: System, R: Recorder + Default + Send> QuerySlot for VersionedSlot<'_, S, R> {
    fn start(&mut self, key: Key, tune_in: Ticks) {
        self.walk = Some(VersionedWalk::with_channel_recorder(
            self.timeline,
            key,
            tune_in,
            self.channel,
            self.policy,
            R::default(),
        ));
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
        self.walk.as_ref().map_or(true, VersionedWalk::is_done)
    }

    fn spans(&self) -> Option<&PhaseSpans> {
        self.walk.as_ref().and_then(|w| w.recorder().spans())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatScheme;
    use crate::machine::run_machine;
    use crate::params::Params;
    use crate::record::{Dataset, Record};
    use crate::scheme::{drain, Scheme};
    use bda_obs::SpanRecorder;

    fn versioned<S: System>(tl: &ProgramTimeline<S>, key: Key, t: Ticks) -> AccessOutcome {
        drain(&mut VersionedWalk::new(tl, key, t))
    }

    fn versioned_recorded<S: System>(
        tl: &ProgramTimeline<S>,
        key: Key,
        t: Ticks,
    ) -> (AccessOutcome, PhaseSpans) {
        let mut walk = VersionedWalk::with_channel_recorder(
            tl,
            key,
            t,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
            SpanRecorder::new(),
        );
        (drain(&mut walk), walk.recorder().spans)
    }

    fn dataset(keys: &[u64]) -> Dataset {
        Dataset::new(keys.iter().map(|&k| Record::keyed(k)).collect()).unwrap()
    }

    /// Two flat epochs: keys {0,10,20,30} for two cycles, then {0,10,30,40}
    /// (20 deleted, 40 inserted) forever.
    fn two_epoch_timeline() -> ProgramTimeline<crate::flat::FlatSystem> {
        let params = Params::paper();
        let sys0 = FlatScheme
            .build(&dataset(&[0, 10, 20, 30]), &params)
            .unwrap();
        let boundary = 2 * sys0.channel().cycle_len();
        let sys1 = FlatScheme
            .rebuild(&dataset(&[0, 10, 30, 40]), &params, 1)
            .unwrap();
        ProgramTimeline::new(vec![
            Epoch {
                system: sys0,
                start: 0,
            },
            Epoch {
                system: sys1,
                start: boundary,
            },
        ])
        .unwrap()
    }

    #[test]
    fn timeline_validation_rejects_misaligned_epochs() {
        let params = Params::paper();
        let sys0 = FlatScheme.build(&dataset(&[0, 10]), &params).unwrap();
        let sys1 = FlatScheme.rebuild(&dataset(&[0, 10]), &params, 1).unwrap();
        let err = ProgramTimeline::new(vec![
            Epoch {
                system: sys0,
                start: 0,
            },
            Epoch {
                system: sys1,
                start: 7,
            },
        ])
        .unwrap_err();
        assert!(matches!(err, BdaError::BuildError(_)));
        assert!(ProgramTimeline::<crate::flat::FlatSystem>::new(vec![]).is_err());
    }

    #[test]
    fn index_and_first_complete_cross_epochs() {
        let tl = two_epoch_timeline();
        let boundary = tl.epoch(1).start;
        assert_eq!(tl.index_at(0), 0);
        assert_eq!(tl.index_at(boundary - 1), 0);
        assert_eq!(tl.index_at(boundary), 1);
        // Tuning in mid-way through the old program's last bucket wraps to
        // the new program's first bucket, never a phantom old cycle.
        let (ei, idx, start) = tl.first_complete_at(boundary - 1);
        assert_eq!((ei, idx, start), (1, 0, boundary));
    }

    #[test]
    fn single_epoch_walk_is_bit_identical_to_frozen_walk() {
        let params = Params::paper();
        let keys = [0u64, 10, 20, 30, 40, 50, 60, 70];
        let sys = FlatScheme.build(&dataset(&keys), &params).unwrap();
        let tl = ProgramTimeline::frozen(FlatScheme.build(&dataset(&keys), &params).unwrap());
        for key in [Key(0), Key(30), Key(35), Key(70)] {
            for t in [0u64, 17, 1000, 5555] {
                let frozen = run_machine(sys.channel(), sys.query(key), t);
                let dynamic = versioned(&tl, key, t);
                assert_eq!(frozen, dynamic, "key {key:?} t {t}");
                assert_eq!(dynamic.version_skews, 0);
                assert_eq!(dynamic.stale_restarts, 0);
            }
        }
    }

    #[test]
    fn walk_across_boundary_restarts_and_stays_truthful() {
        let tl = two_epoch_timeline();
        let boundary = tl.epoch(1).start;
        let bucket = u64::from(Params::paper().data_bucket_size());
        // Tune in one bucket before the boundary, searching key 40 (only
        // exists after the update). The scan crosses into epoch 1, detects
        // the skew, respawns, and finds the key in the new program.
        let out = versioned(&tl, Key(40), boundary - bucket);
        assert!(out.found, "key inserted by the update must be found");
        assert!(!out.aborted);
        assert_eq!(out.stale_restarts, 1);
        assert!(out.version_skews >= 1);

        // Key 20 is deleted by the update. A client starting just before
        // the boundary either never sees it (respawns into epoch 1 and
        // scans a full new cycle) — truthful not-found — or the walk
        // aborts never; a stale payload is never returned.
        let out = versioned(&tl, Key(20), boundary - bucket);
        assert!(!out.aborted);
        assert!(!out.found, "deleted key must not resolve to a stale record");
        assert!(out.version_skews >= 1);
    }

    #[test]
    fn walk_entirely_within_an_epoch_sees_no_skew() {
        let tl = two_epoch_timeline();
        let out = versioned(&tl, Key(20), 0);
        // Key 20 exists throughout epoch 0 and the scan completes within
        // the first cycle: found, no skew.
        assert!(out.found);
        assert_eq!(out.version_skews, 0);
        assert_eq!(out.stale_restarts, 0);

        let boundary = tl.epoch(1).start;
        let out = versioned(&tl, Key(40), boundary);
        assert!(out.found);
        assert_eq!(out.version_skews, 0);
    }

    #[test]
    fn skewed_reads_are_attributed_to_stale_recovery() {
        let tl = two_epoch_timeline();
        let boundary = tl.epoch(1).start;
        let bucket = u64::from(Params::paper().data_bucket_size());
        let (out, spans) = versioned_recorded(&tl, Key(40), boundary - bucket);
        assert!(out.found);
        assert!(out.version_skews >= 1);
        assert_eq!(spans.total_access(), out.access);
        assert_eq!(spans.total_tuning(), out.tuning);
        assert_eq!(
            spans.get(Phase::StaleRecovery).count,
            u64::from(out.version_skews),
            "every skewed read is a StaleRecovery span"
        );

        // A skew-free walk records no StaleRecovery spans, and the observed
        // walk's outcome matches the plain one bit-for-bit.
        let (clean, clean_spans) = versioned_recorded(&tl, Key(20), 0);
        assert_eq!(clean, versioned(&tl, Key(20), 0));
        assert_eq!(clean_spans.get(Phase::StaleRecovery).count, 0);
        assert_eq!(clean_spans.total_access(), clean.access);
    }

    #[test]
    fn versioned_slot_agrees_with_one_shot_run() {
        let tl = two_epoch_timeline();
        let boundary = tl.epoch(1).start;
        let mut slot: VersionedSlot<'_, _> =
            VersionedSlot::new(&tl, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        assert!(slot.is_done(), "fresh slot is idle");
        for key in [Key(0), Key(20), Key(40), Key(55)] {
            for t in [0u64, boundary - 7, boundary + 3] {
                slot.start(key, t);
                let stepped = loop {
                    if let WalkStep::Done(out) = slot.step() {
                        break out;
                    }
                };
                assert_eq!(stepped, versioned(&tl, key, t));
            }
        }
    }
}
