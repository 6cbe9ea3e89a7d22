//! Client protocol machines and the walker that drives them.
//!
//! Every access method in the paper is, from the client's perspective, a
//! little state machine: *read a bucket, decide, doze, wake, read again…*
//! This module captures that shape once so that all five schemes share a
//! single, carefully-tested accounting of the two metrics:
//!
//! * **access time** — bytes elapsed between tuning in and completing the
//!   query (downloading the record, or concluding it is absent);
//! * **tuning time** — bytes the client actually *listened* to, which is
//!   what drains the battery. Dozing advances the clock without tuning
//!   cost; this is the "selective tuning" of Imielinski et al. that all
//!   indexing schemes exist to enable.

use crate::bucket::BucketMeta;
use crate::channel::Channel;
use crate::error::ProtocolFault;
use crate::errors_model::{ChannelModel, RetryPolicy};
use crate::Ticks;
use bda_obs::{BucketKind, NoopRecorder, Phase, PhaseSpans, Recorder};

/// What a protocol machine wants to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep listening and read the next complete bucket.
    ReadNext,
    /// Doze (radio off) until absolute time `t`, then read the bucket that
    /// starts there. Channel builders guarantee pointers are bucket-aligned,
    /// so the walker will find a bucket starting exactly at `t`; if the
    /// target is misaligned the walker reads the first complete bucket after
    /// `t`, which models a (buggy) client missing its wake-up.
    DozeTo(Ticks),
    /// The query is complete.
    Finish(Verdict),
    /// The machine read a malformed bucket: a typed protocol fault instead
    /// of a client-side panic. The walker aborts the query (`aborted` set),
    /// because a fault on a version-consistent channel is a builder bug —
    /// version skew is reported *before* the payload reaches the machine,
    /// so staleness never masquerades as a fault.
    Fail(ProtocolFault),
}

/// How a machine wants to handle a bucket whose broadcast-program version
/// differs from the version its own pointers were derived from.
///
/// Returned by [`ProtocolMachine::on_stale`]. The dynamic walker reports
/// the skew, then either lets the machine keep going with an action of its
/// choosing or rebuilds the machine against the current program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaleResponse {
    /// Keep this machine's state and continue with the given action. Only
    /// sound for machines whose remaining state is version-independent.
    Resume(Action),
    /// Discard the machine: the walker constructs a fresh machine from the
    /// *current* program and restarts the protocol at the skewed bucket.
    Respawn,
}

/// Terminal result reported by a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Whether the requested record was downloaded.
    pub found: bool,
    /// Number of *false drops*: wrong data buckets downloaded because an
    /// index (signature) matched spuriously. Zero for exact indexes.
    pub false_drops: u32,
}

impl Verdict {
    /// Successful retrieval with no false drops.
    pub fn found() -> Self {
        Verdict {
            found: true,
            false_drops: 0,
        }
    }

    /// Search failed (record not broadcast).
    pub fn not_found() -> Self {
        Verdict {
            found: false,
            false_drops: 0,
        }
    }

    /// Attach a false-drop count.
    pub fn with_false_drops(mut self, n: u32) -> Self {
        self.false_drops = n;
        self
    }
}

/// A resumable client access protocol for payload type `P`.
///
/// The driver calls [`ProtocolMachine::start`] once with the tune-in time,
/// then feeds the machine every bucket it reads; the machine steers via the
/// returned [`Action`]s. Machines must be self-contained: everything they
/// know about the channel must come from constants captured at
/// construction (bucket counts, sizes) and from the payloads they read —
/// never from global knowledge of the cycle. This keeps the simulation
/// honest: a protocol can only be as clever as a real client.
pub trait ProtocolMachine<P> {
    /// Whether this machine overrides [`ProtocolMachine::fast_forward`].
    /// A fast-forwarding [`Walk`] only engages the hook when this is
    /// `true`, so machines that keep the no-op default (pointer-chasing
    /// indexes, hashing, broadcast disks) pay nothing for it: no cursor
    /// set-up, no extra `first_complete_at` per read. Set it together with
    /// the override.
    const FAST_FORWARD: bool = false;

    /// Called once when the client tunes in at absolute time `tune_in`.
    fn start(&mut self, tune_in: Ticks) -> Action;

    /// Called after each bucket read with its payload and position metadata.
    fn on_bucket(&mut self, payload: &P, meta: BucketMeta) -> Action;

    /// Called instead of [`ProtocolMachine::on_bucket`] when the bucket was
    /// corrupted in transmission (error-prone channel extension; see
    /// [`crate::errors_model::ErrorModel`]). The client listened to the
    /// whole bucket but cannot use its contents.
    ///
    /// The default restarts the access protocol from the current instant —
    /// correct for any scheme whose protocol is stateless across cycles.
    /// Scanning schemes override this to rewind their cycle-coverage
    /// counters instead.
    fn on_corrupt(&mut self, meta: BucketMeta) -> Action {
        self.start(meta.end)
    }

    /// Called instead of [`ProtocolMachine::on_corrupt`] when the unusable
    /// bucket fell inside a scheduled carrier **outage**
    /// ([`crate::errors_model::OutageSchedule`]): the client sensed signal
    /// loss rather than a CRC failure. The walker additionally applies the
    /// outage resynchronization back-off (exponential whole-cycle dozes,
    /// see [`RetryPolicy::recovery_cycles`]) to whatever action this
    /// returns, so a client dozing through a dead span does not burn its
    /// retry budget one bucket at a time.
    ///
    /// The default defers to [`ProtocolMachine::on_corrupt`], whose own
    /// default restarts the protocol — i.e. the resynchronizing client
    /// re-probes the index once the carrier returns. Never called on a
    /// channel without outages.
    fn on_outage(&mut self, meta: BucketMeta) -> Action {
        self.on_corrupt(meta)
    }

    /// Called when a bucket about to be delivered carries a broadcast
    /// program version different from the one this machine was built
    /// against (dynamic broadcast; see [`crate::dynamic`]). The payload is
    /// withheld — stale pointers must not steer the walk — and the machine
    /// chooses between resuming with fresh state of its own or being
    /// respawned against the current program.
    ///
    /// The default is [`StaleResponse::Respawn`]: always sound, because the
    /// replacement machine is constructed from the live program and starts
    /// from scratch at the skewed bucket. Never called on frozen channels
    /// (every bucket matches the anchor version).
    fn on_stale(&mut self, meta: BucketMeta) -> StaleResponse {
        let _ = meta;
        StaleResponse::Respawn
    }

    /// Classify a payload for phase attribution: does reading this bucket
    /// count as index traversal or as a data read? Only called when the
    /// walk carries an enabled [`Recorder`], never on the uninstrumented
    /// path. The default says `Data`, which is exact for flat broadcast
    /// (every bucket *is* data) and a safe fallback for custom machines.
    fn bucket_kind(&self, payload: &P) -> BucketKind {
        let _ = payload;
        BucketKind::Data
    }

    /// Analytically advance past a run of *uninteresting* buckets in one
    /// step — the fast-forward capability scan-heavy schemes use to
    /// collapse O(cycle) per-bucket wake-ups into O(1) per interesting
    /// bucket (key match, signature hit, coverage completion, corruption,
    /// probe-budget edge).
    ///
    /// Called by a fast-forwarding [`Walk`] while a `ReadNext` is pending,
    /// *before* the next bucket is read. The machine may consume any
    /// prefix of upcoming buckets whose slow-path handling it can
    /// reproduce exactly: for each consumed bucket it must apply the same
    /// internal state transitions `on_bucket` would have, and account the
    /// read/doze through `ctx` so access time, tuning time, probe counts
    /// and per-phase spans stay tick-identical to the bucket-by-bucket
    /// walk. It must stop *before* — never on — any bucket where the slow
    /// path does something non-mechanical: a (possible) match, a read
    /// that would complete coverage, a corrupted transmission
    /// ([`FastForward::next_corrupt`] consults the same fault oracle the
    /// walker uses), or probe-budget exhaustion
    /// ([`FastForward::can_read`]). The walker then reads that landing
    /// bucket through the ordinary slow path, so match/finish/corruption/
    /// abandon logic is never duplicated.
    ///
    /// The default consumes nothing — the conservative "one bucket at a
    /// time" behaviour every machine starts with. A walk only calls this
    /// when [`ProtocolMachine::FAST_FORWARD`] is `true`.
    fn fast_forward(&mut self, ctx: &mut FastForward<'_, P>) {
        let _ = ctx;
    }
}

/// Bulk-accounting context for [`ProtocolMachine::fast_forward`].
///
/// Maintains a cursor over the upcoming buckets of the cycle plus the
/// aggregate accounting (clock, tuning, probes, per-phase spans) of
/// everything consumed so far. The cursor starts at the first complete
/// bucket after the walk's current instant — exactly the bucket the slow
/// path would read next — and every [`FastForward::read`] /
/// [`FastForward::doze_buckets`] replays the slow path's arithmetic on it.
#[derive(Debug)]
pub struct FastForward<'a, P> {
    ch: &'a Channel<P>,
    channel: ChannelModel,
    /// Cursor: index of the next unconsumed bucket.
    idx: usize,
    /// Absolute start instant of the cursor bucket.
    start: Ticks,
    /// Clock reached so far (== the walk's `now` plus consumed spans).
    now: Ticks,
    /// Tuning accumulated by consumed reads.
    tuning: Ticks,
    /// Reads consumed.
    probes: u32,
    /// Remaining probe budget (reads the walk may still take).
    left: u32,
    /// Buckets consumed (reads + dozed-over); caps runaway planners.
    consumed: usize,
    /// Whether to accumulate per-phase spans (the walk's `R::ENABLED`).
    record: bool,
    spans: PhaseSpans,
}

impl<'a, P> FastForward<'a, P> {
    /// Payload of the bucket the cursor is on — the one the slow path
    /// would read next.
    pub fn peek(&self) -> &'a P {
        &self.ch.bucket(self.idx).payload
    }

    /// Cycle index of the cursor bucket.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Whether the probe budget allows consuming one more read. When this
    /// is false the machine must stop: the slow path owns the budget
    /// abort. Also bounds total consumption at two cycles per engagement —
    /// a correct scan never needs more before an interesting bucket, and
    /// the cap keeps a buggy planner from spinning.
    pub fn can_read(&self) -> bool {
        self.left > 0 && self.consumed < 2 * self.ch.num_buckets() + 2
    }

    /// Whether the cursor bucket's transmission is corrupted — the same
    /// pure fault oracle (bucket start instant + seed) the walker
    /// consults, covering i.i.d. loss, burst loss and scheduled outages
    /// alike. Machines must stop *before* a corrupt bucket so the slow
    /// path performs the retry accounting. Skipped (dozed-over) buckets
    /// are never consulted, exactly like the slow path.
    pub fn next_corrupt(&self) -> bool {
        self.channel.corrupted(self.start)
    }

    /// Consume the cursor bucket as a read of the given kind: tuning and
    /// clock advance over it, one probe is spent, and (when observed) one
    /// span of the matching phase is attributed.
    pub fn read(&mut self, kind: BucketKind) {
        debug_assert!(self.can_read(), "fast-forward read past the budget");
        let size = Ticks::from(self.ch.bucket(self.idx).size);
        let end = self.start + size;
        // Identical to the slow path: listen from `now` through the
        // bucket's end (any partial tail counts as tuning).
        let span = end - self.now;
        self.tuning += span;
        self.now = end;
        self.probes += 1;
        self.left -= 1;
        if self.record {
            let phase = match kind {
                BucketKind::Index => Phase::IndexTraversal,
                BucketKind::Data => Phase::DataRead,
            };
            self.spans.add(phase, span, span);
        }
        self.advance();
    }

    /// Consume the next `n` buckets as a single doze (radio off): the
    /// clock advances over them with no tuning cost, and (when observed)
    /// exactly one `Doze` span is attributed — matching the one
    /// `DozeTo` action the slow path would have taken. Only valid
    /// directly after a [`FastForward::read`] (the clock sits on the
    /// cursor's start), which is the only place the protocols doze.
    pub fn doze_buckets(&mut self, n: usize) {
        debug_assert_eq!(self.now, self.start, "doze must follow a read");
        let from = self.now;
        for _ in 0..n {
            self.advance();
        }
        self.now = self.start;
        if self.record && self.now > from {
            self.spans.add(Phase::Doze, self.now - from, 0);
        }
    }

    fn advance(&mut self) {
        self.start += Ticks::from(self.ch.bucket(self.idx).size);
        self.idx += 1;
        if self.idx == self.ch.num_buckets() {
            self.idx = 0;
        }
        self.consumed += 1;
    }
}

/// The result of one client query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the record was retrieved.
    pub found: bool,
    /// Access time: bytes from tune-in until the query completed (`At`).
    pub access: Ticks,
    /// Tuning time: bytes the client listened to (`Tt`). Always ≤ `access`.
    pub tuning: Ticks,
    /// Number of buckets read.
    pub probes: u32,
    /// Wrong data buckets downloaded due to spurious index matches.
    pub false_drops: u32,
    /// Corrupted bucket transmissions the client had to recover from
    /// (always 0 on a lossless channel).
    pub retries: u32,
    /// Set when the client gave up: its [`RetryPolicy`] ran out on an
    /// error-prone channel (retry budget exhausted or give-up deadline
    /// passed), or the next bucket would end past `Ticks::MAX`, the last
    /// instant the clock can represent. An abandoned query is a *truthful*
    /// failure — `found` is false and the client knows it stopped early —
    /// unlike `aborted`, which flags a protocol bug. Under
    /// [`RetryPolicy::UNBOUNDED`] only the clock's end abandons.
    pub abandoned: bool,
    /// Set when the walker aborted the query because the machine exceeded
    /// its probe budget, dozed into the past, or reported a typed
    /// [`ProtocolFault`] — all indicate a bug in a channel builder or
    /// protocol, and tests assert it never happens.
    pub aborted: bool,
    /// Times the walk discarded its machine and restarted against the
    /// current broadcast program after detecting version skew (always 0 on
    /// a frozen channel).
    pub stale_restarts: u32,
    /// Buckets observed whose program version differed from the walk's
    /// anchor version (always 0 on a frozen channel). Every restart is
    /// preceded by a skew, so `version_skews >= stale_restarts`.
    pub version_skews: u32,
}

/// One externally visible step of a client query — the event granularity at
/// which the discrete-event testbed (`bda-sim`) schedules clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkStep {
    /// The client listened from `from` to `until` and read bucket `bucket`.
    /// (`from` may precede the bucket's start: a freshly tuned-in client
    /// listens through the tail of a partial bucket to find the boundary —
    /// the paper's *initial wait* `Ft`.)
    Read {
        /// Index of the bucket read.
        bucket: usize,
        /// Absolute time listening began.
        from: Ticks,
        /// Absolute time the bucket was fully received.
        until: Ticks,
    },
    /// The client dozed (radio off) until `until`.
    Doze {
        /// Absolute wake-up time.
        until: Ticks,
    },
    /// The query finished with the given outcome. Subsequent calls return
    /// the same value.
    Done(AccessOutcome),
}

/// Executes a [`ProtocolMachine`] against a [`Channel`], one step at a
/// time, accounting access and tuning time.
///
/// `Walk` is both the fast in-process driver (via [`run_machine`]) and the
/// unit of scheduling for the event-driven testbed, which alternates
/// [`Walk::step`] with its global event queue. The two drivers execute the
/// identical code path, so their results cannot diverge — a property the
/// integration suite verifies explicitly.
#[derive(Debug)]
pub struct Walk<'a, P, M, R = NoopRecorder> {
    ch: &'a Channel<P>,
    machine: M,
    tune_in: Ticks,
    now: Ticks,
    tuning: Ticks,
    probes: u32,
    retries: u32,
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
    ff: bool,
    recorder: R,
}

impl<'a, P, M: ProtocolMachine<P>> Walk<'a, P, M> {
    /// Begin a query at absolute time `tune_in` over a lossless channel.
    pub fn new(ch: &'a Channel<P>, machine: M, tune_in: Ticks) -> Self {
        Walk::with_channel(
            ch,
            machine,
            tune_in,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
        )
    }

    /// Begin a query behind a [`ChannelModel`] (i.i.d. or burst loss, with
    /// or without outages): corrupted transmissions are recovered via
    /// [`ProtocolMachine::on_corrupt`] under the client's [`RetryPolicy`].
    pub fn with_channel(
        ch: &'a Channel<P>,
        machine: M,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Self {
        Walk::with_channel_recorder(ch, machine, tune_in, channel, policy, NoopRecorder)
    }
}

impl<'a, P, M: ProtocolMachine<P>, R: Recorder> Walk<'a, P, M, R> {
    /// [`Walk::with_channel`] reporting every step's phase-attributed span
    /// to `recorder`. With the default [`NoopRecorder`] (`ENABLED = false`)
    /// every instrumentation site compiles out. Every other constructor
    /// delegates here.
    pub fn with_channel_recorder(
        ch: &'a Channel<P>,
        mut machine: M,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
        recorder: R,
    ) -> Self {
        let pending = machine.start(tune_in);
        // A correct protocol never needs more than a handful of cycles; the
        // budget of four cycles plus slack catches runaway machines without
        // ever triggering for correct ones on a lossless channel. Lossy
        // channels get a budget scaled by the worst-state retry factor;
        // channels with outages get further slack for resynchronization
        // (outage recovery dozes whole cycles, so the probe cost per
        // outage is logarithmic, but the streak resets buy extra reads).
        let base = (ch.num_buckets() as u32)
            .saturating_mul(4)
            .saturating_add(64);
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
        Walk {
            ch,
            machine,
            tune_in,
            now: tune_in,
            tuning: 0,
            probes: 0,
            retries: 0,
            false_drops_hint: 0,
            pending: Some(pending),
            outcome: None,
            max_probes,
            channel,
            policy,
            outage_streak: 0,
            ff: false,
            recorder,
        }
    }

    /// Turn on analytical fast-forward: while a `ReadNext` is pending the
    /// walk lets the machine bulk-consume uninteresting buckets (see
    /// [`ProtocolMachine::fast_forward`]) before the next real read, so a
    /// linear scan takes O(1) steps per *interesting* bucket instead of
    /// one per bucket. Outcomes, access/tuning accounting, probe counts
    /// and per-phase spans are tick-identical to the slow path; only the
    /// [`WalkStep`] granularity (and hence the event count of an engine
    /// driving the walk) changes. Off by default; the one-shot drains
    /// ([`run_machine`], [`crate::DynSystem::probe_with_channel`],
    /// [`crate::DynSystem::probe_recorded`]) turn it on. A no-op for
    /// machines whose [`ProtocolMachine::FAST_FORWARD`] is `false`.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.ff = enabled;
    }

    /// Whether analytical fast-forward is enabled for this walk.
    pub fn fast_forward_enabled(&self) -> bool {
        self.ff
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
            stale_restarts: 0,
            version_skews: 0,
        };
        self.outcome = Some(out);
        WalkStep::Done(out)
    }

    /// Give up truthfully: the retry policy's budget or deadline ran out,
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
    /// reads this is a truthful abandonment (the client drowned in
    /// retries, not a protocol bug); on a clean walk it flags a runaway
    /// machine and aborts, as it always has.
    fn exhaust(&mut self) -> WalkStep {
        if self.retries > 0 {
            self.abandon()
        } else {
            self.finish(false, self.false_drops_hint, true)
        }
    }

    /// Let the machine bulk-consume uninteresting buckets, then fold its
    /// aggregate accounting into the walk as if each had been stepped.
    /// Returns the landing bucket — `first_complete_at(now)` for the
    /// clock the walk is left at — or `None` when fast-forward stayed
    /// disengaged.
    fn run_fast_forward(&mut self) -> Option<(usize, Ticks)> {
        // Disengage within four cycles of the clock's end: the slow path's
        // saturating arithmetic must stay observable, and a fast-forward
        // engagement never advances further than two cycles.
        self.ch
            .cycle_len()
            .checked_mul(4)
            .and_then(|w| self.now.checked_add(w))?;
        let (idx, start) = self.ch.first_complete_at(self.now);
        let mut ctx = FastForward {
            ch: self.ch,
            channel: self.channel,
            idx,
            start,
            now: self.now,
            tuning: 0,
            probes: 0,
            left: self.max_probes - self.probes,
            consumed: 0,
            record: R::ENABLED,
            spans: PhaseSpans::new(),
        };
        self.machine.fast_forward(&mut ctx);
        if ctx.probes == 0 {
            return Some((idx, start));
        }
        // Every consumed read was clean (machines stop before corrupt
        // buckets), and a clean read resets the outage streak on the
        // bucket-by-bucket path — mirror that here or the next dead read
        // would back off further than the slow walk.
        self.outage_streak = 0;
        self.tuning += ctx.tuning;
        self.now = ctx.now;
        self.probes += ctx.probes;
        if R::ENABLED {
            for (phase, t) in ctx.spans.iter() {
                if t.count > 0 {
                    self.recorder.span_n(phase, t.count, t.access, t.tuning);
                }
            }
        }
        // Every consumed bucket ends where the cursor starts, so the clock
        // sits on the cursor: it is the bucket the landing read takes.
        debug_assert_eq!(ctx.now, ctx.start);
        Some((ctx.idx, ctx.start))
    }

    /// Apply a back-off of `cycles` whole cycles to a post-corruption
    /// action: the resume point shifts by whole cycles, which preserves
    /// the bucket the machine expects to see next (the cycle is periodic).
    fn backoff(&self, act: Action, cycles: u32) -> Action {
        if cycles == 0 {
            return act;
        }
        let shift = Ticks::from(cycles).saturating_mul(self.ch.cycle_len());
        match act {
            Action::ReadNext => Action::DozeTo(self.now.saturating_add(shift)),
            Action::DozeTo(t) => Action::DozeTo(t.saturating_add(shift)),
            finish => finish,
        }
    }

    /// Execute the machine's next action and report what happened.
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
                let mut landing = None;
                if M::FAST_FORWARD && self.ff && self.probes > 0 {
                    landing = self.run_fast_forward();
                    if self.probes >= self.max_probes {
                        // The scan burned the whole budget on uninteresting
                        // buckets; the next read gives up, as it would have
                        // bucket-by-bucket.
                        return self.exhaust();
                    }
                }
                let (idx, start) = landing.unwrap_or_else(|| self.ch.first_complete_at(self.now));
                let bucket = self.ch.bucket(idx);
                let size = Ticks::from(bucket.size);
                let Some(end) = start.checked_add(size) else {
                    // The clock would pass `Ticks::MAX`: give up truthfully
                    // rather than wrap into the past.
                    return self.abandon();
                };
                let from = self.now;
                // The client listens from `now` until the bucket completes:
                // any partial-bucket tail counts as tuning (initial wait).
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
                let corrupt = self.channel.corrupted(start);
                if R::ENABLED {
                    // Corruption trumps structure (the client cannot use the
                    // payload); the very first read is the initial probe; all
                    // other reads classify by what the machine sees in them.
                    let phase = if corrupt {
                        Phase::Retry
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
                let next = if corrupt {
                    self.retries += 1;
                    if self.policy.gives_up(self.retries, self.now - self.tune_in) {
                        return self.abandon();
                    }
                    if self.channel.in_outage(start) {
                        // Carrier gone: resynchronize. The machine restarts
                        // its protocol (default: re-probe the index) and the
                        // walker dozes exponentially more whole cycles per
                        // consecutive dead read, so an outage costs O(log)
                        // probes instead of one per bucket.
                        self.outage_streak += 1;
                        let recovery = self.machine.on_outage(meta);
                        let cycles = self.policy.recovery_cycles(self.outage_streak, true);
                        self.backoff(recovery, cycles)
                    } else {
                        self.outage_streak = 0;
                        let recovery = self.machine.on_corrupt(meta);
                        let cycles = self.policy.recovery_cycles(self.retries, false);
                        self.backoff(recovery, cycles)
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
                    // Dozing into the past is a protocol/builder bug.
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
            // A typed protocol fault on a frozen channel is a builder bug:
            // abort so the differential suites catch it.
            Action::Fail(_) => self.finish(false, self.false_drops_hint, true),
        }
    }
}

/// Drive a machine to completion over a lossless channel and return its
/// outcome — the fast path used by benchmarks and analytical-validation
/// sweeps. Runs with analytical fast-forward on (see
/// [`Walk::set_fast_forward`]).
pub fn run_machine<P, M: ProtocolMachine<P>>(
    ch: &Channel<P>,
    machine: M,
    tune_in: Ticks,
) -> AccessOutcome {
    let mut walk = Walk::new(ch, machine, tune_in);
    walk.set_fast_forward(true);
    crate::scheme::drain(&mut walk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::Bucket;
    use crate::errors_model::ErrorModel;
    use bda_obs::SpanRecorder;

    fn ch(sizes: &[u32]) -> Channel<usize> {
        Channel::new(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| Bucket::new(s, i))
                .collect(),
        )
        .unwrap()
    }

    /// Reads `reads` buckets then finishes; optionally dozes `doze` bytes
    /// after the first read.
    struct Scripted {
        reads: u32,
        doze: Option<Ticks>,
        seen: Vec<usize>,
    }

    impl ProtocolMachine<usize> for Scripted {
        fn start(&mut self, _t: Ticks) -> Action {
            Action::ReadNext
        }
        fn on_bucket(&mut self, payload: &usize, meta: BucketMeta) -> Action {
            self.seen.push(*payload);
            self.reads -= 1;
            if self.reads == 0 {
                Action::Finish(Verdict::found())
            } else if let Some(d) = self.doze.take() {
                Action::DozeTo(meta.end + d)
            } else {
                Action::ReadNext
            }
        }
    }

    #[test]
    fn accounting_for_sequential_reads() {
        let c = ch(&[10, 20, 30]);
        // Tune in at t=5 (mid bucket 0): listen 5 bytes of tail, then read
        // bucket 1 (20 bytes) and bucket 2 (30 bytes).
        let out = run_machine(
            &c,
            Scripted {
                reads: 2,
                doze: None,
                seen: vec![],
            },
            5,
        );
        assert!(out.found);
        assert!(!out.aborted);
        assert_eq!(out.probes, 2);
        // access = (10-5) + 20 + 30 = 55; tuning identical (no doze).
        assert_eq!(out.access, 55);
        assert_eq!(out.tuning, 55);
    }

    #[test]
    fn doze_advances_clock_without_tuning() {
        let c = ch(&[10, 20, 30]);
        // Read bucket 0 (tune in aligned at 0), doze 20 bytes (to start of
        // bucket 2 at t=30), read bucket 2.
        let out = run_machine(
            &c,
            Scripted {
                reads: 2,
                doze: Some(20),
                seen: vec![],
            },
            0,
        );
        assert!(out.found);
        assert_eq!(out.probes, 2);
        assert_eq!(out.access, 60); // 10 (read) + 20 (doze) + 30 (read)
        assert_eq!(out.tuning, 40); // only the two reads
    }

    #[test]
    fn walk_steps_report_events_in_order() {
        let c = ch(&[10, 20, 30]);
        let mut walk = Walk::new(
            &c,
            Scripted {
                reads: 2,
                doze: Some(20),
                seen: vec![],
            },
            0,
        );
        assert_eq!(
            walk.step(),
            WalkStep::Read {
                bucket: 0,
                from: 0,
                until: 10
            }
        );
        assert_eq!(walk.step(), WalkStep::Doze { until: 30 });
        assert_eq!(
            walk.step(),
            WalkStep::Read {
                bucket: 2,
                from: 30,
                until: 60
            }
        );
        assert!(matches!(walk.step(), WalkStep::Done(_)));
        // Done is sticky.
        assert!(matches!(walk.step(), WalkStep::Done(_)));
        assert!(walk.is_done());
        assert!(walk.outcome().unwrap().found);
    }

    /// A machine that never finishes must be aborted by the probe budget.
    struct Runaway;
    impl ProtocolMachine<usize> for Runaway {
        fn start(&mut self, _t: Ticks) -> Action {
            Action::ReadNext
        }
        fn on_bucket(&mut self, _p: &usize, _m: BucketMeta) -> Action {
            Action::ReadNext
        }
    }

    #[test]
    fn runaway_machines_are_aborted() {
        let c = ch(&[10, 20]);
        let out = run_machine(&c, Runaway, 0);
        assert!(out.aborted);
        assert!(!out.found);
    }

    /// A machine that dozes backwards must be aborted.
    struct TimeTraveller;
    impl ProtocolMachine<usize> for TimeTraveller {
        fn start(&mut self, _t: Ticks) -> Action {
            Action::ReadNext
        }
        fn on_bucket(&mut self, _p: &usize, meta: BucketMeta) -> Action {
            Action::DozeTo(meta.start.saturating_sub(1))
        }
    }

    #[test]
    fn backwards_doze_is_aborted() {
        let c = ch(&[10, 20]);
        let out = run_machine(&c, TimeTraveller, 3);
        assert!(out.aborted);
    }

    /// A machine that reports a typed fault on its first bucket.
    struct Faulty;
    impl ProtocolMachine<usize> for Faulty {
        fn start(&mut self, _t: Ticks) -> Action {
            Action::ReadNext
        }
        fn on_bucket(&mut self, _p: &usize, _m: BucketMeta) -> Action {
            Action::Fail(ProtocolFault::DanglingPointer)
        }
    }

    #[test]
    fn typed_faults_abort_instead_of_panicking() {
        let c = ch(&[10, 20]);
        let out = run_machine(&c, Faulty, 0);
        assert!(out.aborted, "a fault on a frozen channel is a builder bug");
        assert!(!out.found);
        assert!(!out.abandoned);
        assert_eq!(out.probes, 1, "the faulting read still cost a probe");
    }

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::found().found);
        assert!(!Verdict::not_found().found);
        assert_eq!(Verdict::found().with_false_drops(3).false_drops, 3);
    }

    /// Finishes as soon as it sees any usable bucket; restarts on corrupt
    /// ones (the default `on_corrupt`).
    struct FirstGood;
    impl ProtocolMachine<usize> for FirstGood {
        fn start(&mut self, _t: Ticks) -> Action {
            Action::ReadNext
        }
        fn on_bucket(&mut self, _p: &usize, _m: BucketMeta) -> Action {
            Action::Finish(Verdict::found())
        }
    }

    #[test]
    fn bounded_retries_abandon_truthfully() {
        let c = ch(&[10, 20]);
        // Every transmission corrupt: budget of 2 retries means the third
        // corrupt read gives up.
        let out = run_lossy(
            &c,
            FirstGood,
            0,
            ErrorModel::new(1.0, 1),
            RetryPolicy::bounded(2),
        );
        assert!(out.abandoned);
        assert!(!out.found);
        assert!(!out.aborted, "abandonment is not a protocol bug");
        assert_eq!(out.retries, 3);
        assert_eq!(out.probes, 3);
    }

    #[test]
    fn backoff_dozes_whole_cycles_between_retries() {
        let c = ch(&[10, 20]); // cycle length 30
        let immediate = run_lossy(
            &c,
            FirstGood,
            0,
            ErrorModel::new(1.0, 1),
            RetryPolicy::bounded(2),
        );
        let backed_off = run_lossy(
            &c,
            FirstGood,
            0,
            ErrorModel::new(1.0, 1),
            RetryPolicy::bounded(2).with_backoff(1),
        );
        assert!(backed_off.abandoned);
        // Two recoveries each doze one extra cycle; the final corrupt read
        // abandons without a back-off.
        assert_eq!(backed_off.access, immediate.access + 2 * c.cycle_len());
        // Back-off is radio-off time: tuning unchanged.
        assert_eq!(backed_off.tuning, immediate.tuning);
    }

    #[test]
    fn give_up_deadline_abandons_at_next_corrupt_read() {
        let c = ch(&[10, 20]);
        let out = run_lossy(
            &c,
            FirstGood,
            0,
            ErrorModel::new(1.0, 1),
            RetryPolicy::default().with_deadline(1),
        );
        assert!(out.abandoned);
        assert_eq!(out.retries, 1, "first corrupt read is past the deadline");
    }

    #[test]
    fn spans_decompose_access_and_tuning_exactly() {
        let c = ch(&[10, 20, 30]);
        // Tune in mid-bucket at t=5: initial probe listens through bucket 0's
        // tail + bucket 1 (5+20... no: first_complete_at(5) is bucket 1, so
        // the client listens 5 bytes of bucket 0 tail then bucket 1).
        let (out, spans) = run_observed(
            &c,
            Scripted {
                reads: 2,
                doze: Some(5),
                seen: vec![],
            },
            5,
            ErrorModel::NONE,
            RetryPolicy::UNBOUNDED,
        );
        assert!(out.found);
        assert_eq!(spans.total_access(), out.access);
        assert_eq!(spans.total_tuning(), out.tuning);
        assert_eq!(spans.get(Phase::InitialProbe).count, 1);
        assert_eq!(spans.get(Phase::InitialProbe).access, 25); // 5 tail + 20
        assert_eq!(spans.get(Phase::Doze).access, 5);
        assert_eq!(spans.get(Phase::Doze).tuning, 0);
        assert_eq!(spans.get(Phase::DataRead).count, 1); // default bucket_kind
        assert_eq!(spans.get(Phase::Retry).count, 0);
    }

    #[test]
    fn corrupt_reads_are_attributed_to_retry() {
        let c = ch(&[10, 20]);
        let (out, spans) = run_observed(
            &c,
            FirstGood,
            0,
            ErrorModel::new(1.0, 1),
            RetryPolicy::bounded(2),
        );
        assert!(out.abandoned);
        assert_eq!(spans.total_access(), out.access);
        assert_eq!(spans.total_tuning(), out.tuning);
        // Every read was corrupt, including the first and the abandoning one.
        assert_eq!(spans.get(Phase::Retry).count, u64::from(out.retries));
        assert_eq!(spans.get(Phase::InitialProbe).count, 0);
        assert_eq!(spans.get(Phase::DataRead).count, 0);
    }

    #[test]
    fn noop_and_observed_walks_agree() {
        let c = ch(&[10, 20, 30]);
        for tune_in in [0u64, 3, 17, 42] {
            let plain = run_lossy(
                &c,
                Scripted {
                    reads: 2,
                    doze: Some(20),
                    seen: vec![],
                },
                tune_in,
                ErrorModel::new(0.3, 9),
                RetryPolicy::bounded(5),
            );
            let (observed, _) = run_observed(
                &c,
                Scripted {
                    reads: 2,
                    doze: Some(20),
                    seen: vec![],
                },
                tune_in,
                ErrorModel::new(0.3, 9),
                RetryPolicy::bounded(5),
            );
            assert_eq!(plain, observed);
        }
    }

    /// Scans for the bucket whose payload equals `target`, with a
    /// fast-forward planner that bulk-skips non-matching buckets.
    struct SkipTo {
        target: usize,
        seen: u32,
    }

    impl ProtocolMachine<usize> for SkipTo {
        const FAST_FORWARD: bool = true;

        fn start(&mut self, _t: Ticks) -> Action {
            Action::ReadNext
        }
        fn on_bucket(&mut self, p: &usize, _m: BucketMeta) -> Action {
            self.seen += 1;
            if *p == self.target {
                Action::Finish(Verdict::found())
            } else {
                Action::ReadNext
            }
        }
        fn on_corrupt(&mut self, _m: BucketMeta) -> Action {
            Action::ReadNext
        }
        fn fast_forward(&mut self, ctx: &mut FastForward<'_, usize>) {
            while ctx.can_read() && !ctx.next_corrupt() && *ctx.peek() != self.target {
                self.seen += 1;
                ctx.read(BucketKind::Data);
            }
        }
    }

    /// Run a walk to completion behind an i.i.d. channel, recording spans;
    /// also returns the number of steps it took.
    fn run_recorded<P, M: ProtocolMachine<P>>(
        ch: &Channel<P>,
        machine: M,
        tune_in: Ticks,
        errors: ErrorModel,
        policy: RetryPolicy,
        ff: bool,
    ) -> (AccessOutcome, PhaseSpans, u64) {
        let channel = ChannelModel::iid(errors);
        let mut walk =
            Walk::with_channel_recorder(ch, machine, tune_in, channel, policy, SpanRecorder::new());
        walk.set_fast_forward(ff);
        let mut steps = 0u64;
        loop {
            steps += 1;
            if let WalkStep::Done(out) = walk.step() {
                return (out, walk.recorder().spans, steps);
            }
        }
    }

    fn run_observed<P, M: ProtocolMachine<P>>(
        ch: &Channel<P>,
        machine: M,
        tune_in: Ticks,
        errors: ErrorModel,
        policy: RetryPolicy,
    ) -> (AccessOutcome, PhaseSpans) {
        let (out, spans, _) = run_recorded(ch, machine, tune_in, errors, policy, false);
        (out, spans)
    }

    fn run_ff<P, M: ProtocolMachine<P>>(
        ch: &Channel<P>,
        machine: M,
        tune_in: Ticks,
        errors: ErrorModel,
        policy: RetryPolicy,
    ) -> (AccessOutcome, PhaseSpans, u64) {
        run_recorded(ch, machine, tune_in, errors, policy, true)
    }

    /// The uninstrumented walk behind an i.i.d. channel.
    fn run_lossy<P, M: ProtocolMachine<P>>(
        ch: &Channel<P>,
        machine: M,
        tune_in: Ticks,
        errors: ErrorModel,
        policy: RetryPolicy,
    ) -> AccessOutcome {
        let channel = ChannelModel::iid(errors);
        crate::scheme::drain(&mut Walk::with_channel(
            ch, machine, tune_in, channel, policy,
        ))
    }

    #[test]
    fn fast_forward_is_tick_identical_and_collapses_steps() {
        let c = ch(&[10, 20, 30, 40, 50, 60, 70, 80]);
        for target in [0usize, 3, 7] {
            for tune_in in [0u64, 5, 33, 359] {
                for errors in [ErrorModel::NONE, ErrorModel::new(0.4, 0xC0FF)] {
                    let policy = RetryPolicy::UNBOUNDED;
                    let (slow, slow_spans) =
                        run_observed(&c, SkipTo { target, seen: 0 }, tune_in, errors, policy);
                    let (fast, fast_spans, steps) =
                        run_ff(&c, SkipTo { target, seen: 0 }, tune_in, errors, policy);
                    assert_eq!(slow, fast, "target={target} t={tune_in}");
                    assert_eq!(slow_spans, fast_spans, "span totals and counts match");
                    if errors.loss_prob == 0.0 {
                        // One initial probe, at most one fast-forwarded
                        // landing read, one Done: O(1) steps regardless of
                        // how far away the target is.
                        assert!(steps <= 3, "steps={steps}");
                    }
                }
            }
        }
    }

    #[test]
    fn fast_forward_aborts_on_the_same_probe_as_the_slow_path() {
        struct NeverMatch;
        impl ProtocolMachine<usize> for NeverMatch {
            const FAST_FORWARD: bool = true;

            fn start(&mut self, _t: Ticks) -> Action {
                Action::ReadNext
            }
            fn on_bucket(&mut self, _p: &usize, _m: BucketMeta) -> Action {
                Action::ReadNext
            }
            fn fast_forward(&mut self, ctx: &mut FastForward<'_, usize>) {
                while ctx.can_read() && !ctx.next_corrupt() {
                    ctx.read(BucketKind::Data);
                }
            }
        }
        let c = ch(&[10, 20]);
        let slow = run_lossy(&c, NeverMatch, 7, ErrorModel::NONE, RetryPolicy::UNBOUNDED);
        let (fast, _, _) = run_ff(&c, NeverMatch, 7, ErrorModel::NONE, RetryPolicy::UNBOUNDED);
        assert!(slow.aborted && fast.aborted);
        assert_eq!(slow, fast, "budget abort is tick-identical");
    }

    #[test]
    fn fast_forward_disengages_near_ticks_max() {
        // Within four cycles of the clock's end fast-forward must hand the
        // walk back to the (saturating) slow path untouched.
        let c = ch(&[10, 20, 30, 40]);
        let cycle = c.cycle_len();
        for t in [Ticks::MAX - 3 * cycle, Ticks::MAX - 4 * cycle + 1] {
            let slow = run_lossy(
                &c,
                SkipTo { target: 2, seen: 0 },
                t,
                ErrorModel::NONE,
                RetryPolicy::UNBOUNDED,
            );
            let (fast, _, _) = run_ff(
                &c,
                SkipTo { target: 2, seen: 0 },
                t,
                ErrorModel::NONE,
                RetryPolicy::UNBOUNDED,
            );
            assert!(slow.found);
            assert_eq!(slow, fast, "saturating clock behaviour is preserved");
        }
    }

    /// Keeps the default `FAST_FORWARD = false` but overrides the hook
    /// with a trap: a walk that calls it anyway panics.
    struct HookTrap;

    impl ProtocolMachine<usize> for HookTrap {
        fn start(&mut self, _t: Ticks) -> Action {
            Action::ReadNext
        }
        fn on_bucket(&mut self, p: &usize, _m: BucketMeta) -> Action {
            if *p == 3 {
                Action::Finish(Verdict::found())
            } else {
                Action::ReadNext
            }
        }
        fn on_corrupt(&mut self, _m: BucketMeta) -> Action {
            Action::ReadNext
        }
        fn fast_forward(&mut self, _ctx: &mut FastForward<'_, usize>) {
            panic!("fast_forward called on a machine without FAST_FORWARD");
        }
    }

    struct TrapSystem(Channel<usize>);

    impl crate::scheme::System for TrapSystem {
        type Payload = usize;
        type Machine = HookTrap;
        fn scheme_name(&self) -> &'static str {
            "trap"
        }
        fn channel(&self) -> &Channel<usize> {
            &self.0
        }
        fn channel_mut(&mut self) -> &mut Channel<usize> {
            &mut self.0
        }
        fn query(&self, _key: crate::Key) -> HookTrap {
            HookTrap
        }
    }

    #[test]
    fn the_hook_only_runs_for_machines_that_declare_it() {
        use crate::scheme::{DynSystem, QuerySlot, WalkSlot};
        let sys = TrapSystem(ch(&[10, 20, 30, 40, 50]));
        for errors in [ErrorModel::NONE, ErrorModel::new(0.3, 5)] {
            let channel = ChannelModel::iid(errors);
            let policy = RetryPolicy::UNBOUNDED;
            let mut slot = WalkSlot::<_, NoopRecorder>::new(&sys, channel, policy);
            slot.set_fast_forward(true);
            for tune_in in [0u64, 7, 61, 149] {
                let slow = run_lossy(&sys.0, HookTrap, tune_in, errors, policy);
                assert!(slow.found);
                let (fast, _, _) = run_ff(&sys.0, HookTrap, tune_in, errors, policy);
                assert_eq!(fast, slow, "fast-forwarding walk, t={tune_in}");
                assert_eq!(
                    sys.probe_with_channel(crate::Key(0), tune_in, channel, policy),
                    slow
                );
                slot.start(crate::Key(0), tune_in);
                let stepped = loop {
                    if let WalkStep::Done(out) = slot.step() {
                        break out;
                    }
                };
                assert_eq!(stepped, slow, "fast-forwarding slot, t={tune_in}");
            }
        }
    }

    #[test]
    fn direct_flat_probe_collapses_to_a_handful_of_steps() {
        use crate::flat::FlatScheme;
        use crate::params::Params;
        use crate::record::{Dataset, Record};
        use crate::scheme::{drain, one_shot_walk, DynSystem, Scheme};
        use crate::Key;
        // The walker-side twin of the engine's event budget: a one-shot
        // flat probe is an initial read, one fast-forwarded landing read
        // and completion, however far the scan runs.
        let ds = Dataset::new((0..320).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        assert_eq!(sys.num_buckets(), 320);
        let cycle = sys.cycle_len();
        for key in [Key(0), Key(318), Key(638), Key(1), Key(639)] {
            for tune_in in [0u64, cycle / 2 + 7, cycle - 1] {
                let mut walk = one_shot_walk(
                    &sys,
                    key,
                    tune_in,
                    ChannelModel::NONE,
                    RetryPolicy::UNBOUNDED,
                    NoopRecorder,
                );
                let mut steps = 0u32;
                let out = loop {
                    steps += 1;
                    if let WalkStep::Done(out) = walk.step() {
                        break out;
                    }
                };
                assert!(steps <= 4, "key={key:?} t={tune_in}: {steps} steps");
                assert_eq!(out.found, key.0 % 2 == 0);
                assert_eq!(out, sys.probe(key, tune_in));
                let slow = drain(
                    sys.begin(key, tune_in, ChannelModel::NONE, RetryPolicy::UNBOUNDED)
                        .as_mut(),
                );
                assert_eq!(out, slow, "key={key:?} t={tune_in}");
            }
        }
        // An absent key scans the whole cycle: 320 reads in those steps.
        assert_eq!(sys.probe(Key(1), 0).probes, 320);
    }

    #[test]
    fn policies_are_noops_on_lossless_channels() {
        let c = ch(&[10, 20, 30]);
        let plain = run_machine(
            &c,
            Scripted {
                reads: 2,
                doze: Some(20),
                seen: vec![],
            },
            5,
        );
        let strict = run_lossy(
            &c,
            Scripted {
                reads: 2,
                doze: Some(20),
                seen: vec![],
            },
            5,
            ErrorModel::NONE,
            RetryPolicy::bounded(0).with_backoff(3).with_deadline(1),
        );
        assert_eq!(plain, strict);
        assert!(!plain.abandoned);
    }
}
