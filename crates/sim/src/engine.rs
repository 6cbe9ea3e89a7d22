//! The discrete-event core: arrivals and client wake-ups in global time
//! order.
//!
//! Every broadcast of a bucket, every request arrival and every client
//! wake-up is an event; clients advance through their access protocol one
//! [`WalkStep`] at a time, so at any simulated instant the engine knows
//! exactly which clients are listening, dozing or done — the paper's
//! "broadcasting of each data item, generation of each user request and
//! processing of the request are all considered to be separate events …
//! handled independently" (§3).
//!
//! # Architecture
//!
//! The engine scales to very large concurrent client populations through
//! three structural choices (see DESIGN.md, "Discrete-event engine"):
//!
//! * **Slab-backed client arena.** Clients live in reusable
//!   [`QuerySlot`]s held in a slab (`Vec` + free list). A slot is
//!   allocated once per *concurrent client*, then re-armed for each new
//!   request — at steady state the engine performs no per-request heap
//!   allocation, where the previous design boxed a fresh
//!   `Box<dyn QueryRun>` per request.
//! * **Bucket-aligned wakeup scheduler.** After its first step a client
//!   only ever wakes at a bucket boundary of the one shared broadcast
//!   cycle, so pending wake-ups collapse onto few distinct instants. The
//!   scheduler batches all clients waking at the same instant behind a
//!   single entry in an ordered map of *distinct times*: scheduler
//!   traffic is `O(distinct boundaries)` instead of `O(clients)`, and
//!   every batch is stepped together in one cache-friendly sweep.
//! * **Steady-state streaming.** [`Engine::run_stream`] admits requests
//!   from an iterator only while the in-flight population is below a
//!   bound, so simulating millions of requests needs memory proportional
//!   to the *concurrency*, not to the request count.
//!
//! The naive heap engine this replaces is preserved as
//! [`reference::run_requests_reference`] — the oracle the property suite
//! checks the slab engine against.

use std::collections::BTreeMap;

use bda_core::{
    AccessOutcome, ChannelModel, DynSystem, Key, QuerySlot, RetryPolicy, Ticks, WalkStep,
};
use bda_obs::{Completion, Gauge, MetricsHub, WindowSpec};

/// One completed request with its timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedRequest {
    /// Arrival (tune-in) time of the request.
    pub arrival: Ticks,
    /// The key that was queried.
    pub key: Key,
    /// Protocol outcome.
    pub outcome: AccessOutcome,
}

/// Engine-level counters, for throughput tracking and the perf harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Walker steps processed (reads + dozes + completions).
    pub events: u64,
    /// Wake-up batches drained — each batch is one distinct simulated
    /// instant; `events / wake_batches` is the mean batching factor the
    /// bucket-aligned scheduler achieved.
    pub wake_batches: u64,
    /// Maximum number of clients simultaneously in flight (tuned in but
    /// not yet finished).
    pub peak_in_flight: usize,
    /// Requests completed.
    pub completed: u64,
    /// Corrupted bucket transmissions clients recovered from (or abandoned
    /// at) across all completed requests — always 0 on a lossless channel.
    pub corrupt_reads: u64,
    /// Requests whose client gave up (truthful
    /// [`AccessOutcome::abandoned`] outcomes: the [`RetryPolicy`] ran out,
    /// or the clock reached `Ticks::MAX`).
    pub abandoned: u64,
    /// Stale-machine restarts across all completed requests: times a walk
    /// discarded its protocol machine and re-anchored on the live broadcast
    /// program after detecting version skew. Always 0 on a frozen channel.
    pub stale_restarts: u64,
    /// Version-skewed buckets observed across all completed requests
    /// (`>= stale_restarts`; always 0 on a frozen channel).
    pub version_skews: u64,
}

impl EngineStats {
    /// Fold another engine's counters into this one — how the sharded
    /// engine aggregates per-shard stats.
    ///
    /// All counters sum. For the per-request counters (see
    /// [`EngineStats::outcome_counters`]) the sum is exact and invariant
    /// under sharding. `wake_batches` sums to the total number of distinct
    /// wake instants drained *somewhere* (shards keep independent
    /// schedulers, so this exceeds the single-engine figure when
    /// simultaneous instants land on different shards), and
    /// `peak_in_flight` sums because shard populations coexist in
    /// simulated time — the merged value is the exact aggregate peak when
    /// every shard peaks at the same simulated instant and an upper bound
    /// otherwise.
    pub fn merge(&mut self, other: &EngineStats) {
        self.events += other.events;
        self.wake_batches += other.wake_batches;
        self.peak_in_flight += other.peak_in_flight;
        self.completed += other.completed;
        self.corrupt_reads += other.corrupt_reads;
        self.abandoned += other.abandoned;
        self.stale_restarts += other.stale_restarts;
        self.version_skews += other.version_skews;
    }

    /// The projection of these counters that is **invariant under
    /// sharding**: `[events, completed, corrupt_reads, abandoned,
    /// stale_restarts, version_skews]`.
    ///
    /// Each is a sum of per-request quantities, and on a broadcast channel
    /// every request's walk is independent of scheduling — so for any
    /// partition of a batch, the per-shard values sum to exactly the
    /// single-engine values. `wake_batches` and `peak_in_flight` describe
    /// scheduler *shape* (how clients happened to batch and overlap) and
    /// are deliberately excluded; the `engine_sharded_equiv` suite pins
    /// this projection bit-for-bit across shard counts.
    pub fn outcome_counters(&self) -> [u64; 6] {
        [
            self.events,
            self.completed,
            self.corrupt_reads,
            self.abandoned,
            self.stale_restarts,
            self.version_skews,
        ]
    }
}

/// Batching wake-up scheduler.
///
/// All post-arrival wake times are bucket boundaries of the shared cycle,
/// so at any moment the set of pending wake *times* is small (bounded by
/// the boundaries of roughly one cycle plus pending arrival instants)
/// even when the set of pending *clients* is huge. An ordered map over
/// the distinct instants holds every client waking at each one; drained
/// waiter vectors are pooled and reused, so steady-state scheduling does
/// no allocation.
#[derive(Debug, Default)]
struct WakeupScheduler {
    /// Clients waiting per distinct instant, in scheduling order.
    waiters: BTreeMap<Ticks, Vec<u32>>,
    /// Empty vectors recycled from drained batches.
    pool: Vec<Vec<u32>>,
}

impl WakeupScheduler {
    fn schedule(&mut self, t: Ticks, client: u32) {
        self.waiters
            .entry(t)
            .or_insert_with(|| self.pool.pop().unwrap_or_default())
            .push(client);
    }

    /// Remove and return the earliest batch `(instant, clients)`. The
    /// previous contents of `buf` are returned to the vector pool.
    fn pop_batch(&mut self, buf: &mut Vec<u32>) -> Option<Ticks> {
        let (t, clients) = self.waiters.pop_first()?;
        let mut old = std::mem::replace(buf, clients);
        old.clear();
        self.pool.push(old);
        Some(t)
    }

    fn is_empty(&self) -> bool {
        self.waiters.is_empty()
    }

    /// Distinct pending wake-up instants — the queue-depth gauge.
    fn depth(&self) -> usize {
        self.waiters.len()
    }
}

/// Per-client request bookkeeping, parallel to the slot slab.
#[derive(Debug, Clone, Copy)]
struct ClientMeta {
    arrival: Ticks,
    key: Key,
    /// Caller-supplied tag (request index in batch mode, admission
    /// sequence in streaming mode).
    tag: u64,
    /// Whether the arrival event has fired (the client counts as
    /// in-flight from then until completion).
    started: bool,
}

/// The slab + scheduler discrete-event engine.
///
/// An `Engine` is bound to one system and reusable across any number of
/// batches or streams; slot allocations persist, so repeated rounds (the
/// simulator's normal operation) run allocation-free after warm-up.
pub struct Engine<'a> {
    system: &'a dyn DynSystem,
    /// Slab of reusable client slots: created lazily on first use, then
    /// recycled via the free list forever after.
    slots: Vec<Box<dyn QuerySlot + 'a>>,
    meta: Vec<ClientMeta>,
    free: Vec<u32>,
    in_flight: usize,
    sched: WakeupScheduler,
    /// Scratch buffer for draining batches without reallocating.
    batch: Vec<u32>,
    stats: EngineStats,
    /// Per-transmission channel corruption every admitted client sees
    /// ([`ChannelModel::NONE`] for a perfect channel; i.i.d., burst, or
    /// outage-scarred).
    channel: ChannelModel,
    /// Client-side recovery policy for corrupt reads.
    policy: RetryPolicy,
    /// Observability hub, when enabled: slots record per-walk phase spans,
    /// completions feed the histograms, and every wake-up batch samples
    /// the occupancy gauges. `None` (the default) costs one untaken branch
    /// per completion and per batch — nothing on the per-step hot path.
    obs: Option<Box<MetricsHub>>,
    /// Start of the current busy period (`in_flight > 0`), tracked at the
    /// 0→1 transition so windowed metrics can attribute busy vs idle ticks
    /// per shard. Plain tick bookkeeping — no wall clock.
    busy_since: Option<Ticks>,
    /// Whether admitted clients use analytical fast-forward (on by
    /// default): scan-heavy schemes collapse runs of mechanical bucket
    /// transitions into one wake-up with bit-identical outcomes and
    /// accounting. Turn off via [`Engine::set_fast_forward`] to force
    /// bucket-by-bucket stepping (the differential baseline).
    fast_forward: bool,
}

impl<'a> Engine<'a> {
    /// A fresh engine for `system` with an empty arena, over a lossless
    /// channel.
    pub fn new(system: &'a dyn DynSystem) -> Self {
        Engine::with_channel(system, ChannelModel::NONE, RetryPolicy::UNBOUNDED)
    }

    /// A fresh engine whose clients all experience `channel` (i.i.d. or
    /// burst loss, with or without outage windows) and recover per
    /// `policy` — the fault-injection testbed.
    ///
    /// Corruption is a pure function of each bucket occurrence's absolute
    /// broadcast instant and the model seed, so the slab engine, the
    /// reference heap engine and the direct walker see *identical*
    /// corruption for the same request — the property the
    /// `engine_lossy_equiv` differential suite pins.
    pub fn with_channel(
        system: &'a dyn DynSystem,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Self {
        Engine {
            system,
            slots: Vec::new(),
            meta: Vec::new(),
            free: Vec::new(),
            in_flight: 0,
            sched: WakeupScheduler::default(),
            batch: Vec::new(),
            stats: EngineStats::default(),
            channel,
            policy,
            obs: None,
            busy_since: None,
            fast_forward: true,
        }
    }

    /// Enable or disable analytical fast-forward for clients admitted from
    /// now on (it is **on** by default). Fast-forward never changes an
    /// outcome, a tick of accounting, or a recorded span — only the number
    /// of engine events a walk costs — so the only reason to disable it is
    /// to measure the bucket-by-bucket baseline or to drive differential
    /// tests.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Turn on metrics collection. Must be called while the arena is idle
    /// (typically right after construction): existing slots are discarded
    /// so every future slot is span-instrumented.
    ///
    /// # Panics
    ///
    /// Panics if clients are currently admitted.
    pub fn enable_metrics(&mut self) {
        assert_eq!(self.occupied(), 0, "enable_metrics requires an idle engine");
        self.slots.clear();
        self.meta.clear();
        self.free.clear();
        self.obs = Some(Box::default());
    }

    /// [`Engine::enable_metrics`] plus time-resolved collection: the hub
    /// carries a windowed [`bda_obs::TimeSeries`] (window width in ticks
    /// per `spec`), so completions, wake batches, in-flight high-water and
    /// busy periods resolve per window as well as in aggregate. Costs the
    /// same one untaken branch as plain metrics when disabled; the window
    /// sums equal the aggregates exactly (pinned by `timeline_equiv`).
    ///
    /// # Panics
    ///
    /// Panics if clients are currently admitted.
    pub fn enable_metrics_windowed(&mut self, spec: WindowSpec) {
        self.enable_metrics();
        self.obs
            .as_deref_mut()
            .expect("metrics just enabled")
            .enable_windows(spec);
    }

    /// The metrics hub, when [`Engine::enable_metrics`] was called.
    pub fn metrics(&self) -> Option<&MetricsHub> {
        self.obs.as_deref()
    }

    /// Detach and return the metrics hub, disabling further collection.
    pub fn take_metrics(&mut self) -> Option<MetricsHub> {
        self.obs.take().map(|b| *b)
    }

    /// Counters accumulated over everything this engine has run.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Clients currently tuned in (arrived but not finished).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Client slots ever allocated (the arena's high-water mark). Stays at
    /// `max_in_flight` in streaming mode even when requests abandon: a
    /// completed slot — found, not-found or abandoned — returns to the
    /// free list.
    pub fn arena_len(&self) -> usize {
        self.slots.len()
    }

    /// Number of client slots currently admitted (in flight or awaiting
    /// their arrival instant).
    pub(crate) fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Admit a request: claim a slot (reusing a free one if possible) and
    /// schedule its arrival event.
    pub(crate) fn admit(&mut self, arrival: Ticks, key: Key, tag: u64) {
        let id = match self.free.pop() {
            Some(id) => {
                self.meta[id as usize] = ClientMeta {
                    arrival,
                    key,
                    tag,
                    started: false,
                };
                id
            }
            None => {
                let id = u32::try_from(self.slots.len()).expect("client population fits in u32");
                self.slots.push(self.system.make_slot(
                    self.channel,
                    self.policy,
                    self.obs.is_some(),
                ));
                self.meta.push(ClientMeta {
                    arrival,
                    key,
                    tag,
                    started: false,
                });
                id
            }
        };
        self.slots[id as usize].set_fast_forward(self.fast_forward);
        self.sched.schedule(arrival, id);
    }

    /// Step client `id` once at batch instant `now`; on completion,
    /// report `(tag, result)` and recycle the slot.
    fn step_client(
        &mut self,
        now: Ticks,
        id: u32,
        on_complete: &mut impl FnMut(u64, CompletedRequest),
    ) {
        let m = self.meta[id as usize];
        if !m.started {
            self.meta[id as usize].started = true;
            self.in_flight += 1;
            if self.in_flight == 1 {
                // Idle → busy transition; the arrival event fires at the
                // request's arrival instant.
                self.busy_since = Some(m.arrival);
            }
            self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight);
            self.slots[id as usize].start(m.key, m.arrival);
        }
        self.stats.events += 1;
        match self.slots[id as usize].step() {
            WalkStep::Read { until, .. } | WalkStep::Doze { until } => {
                self.sched.schedule(until, id);
            }
            WalkStep::Done(outcome) => {
                self.in_flight -= 1;
                self.stats.completed += 1;
                self.stats.corrupt_reads += u64::from(outcome.retries);
                self.stats.abandoned += u64::from(outcome.abandoned);
                self.stats.stale_restarts += u64::from(outcome.stale_restarts);
                self.stats.version_skews += u64::from(outcome.version_skews);
                // The walk ends at its arrival plus its access time — a
                // pure function of the outcome, so window attribution is
                // invariant under sharding and fast-forward. (For
                // abandoned walks this can run one bucket past the batch
                // instant delivering the Done: the final corrupted read
                // is charged to access but never walked.)
                let end_tick = m.arrival + outcome.access;
                let busy_start = if self.in_flight == 0 {
                    self.busy_since.take()
                } else {
                    None
                };
                if let Some(hub) = self.obs.as_deref_mut() {
                    hub.complete_at(
                        &Completion {
                            end_tick,
                            access: outcome.access,
                            tuning: outcome.tuning,
                            retries: outcome.retries,
                            stale_restarts: outcome.stale_restarts,
                            version_skews: outcome.version_skews,
                            found: outcome.found,
                            abandoned: outcome.abandoned,
                        },
                        self.slots[id as usize].spans(),
                    );
                    // Busy periods end at the batch instant, not at
                    // `end_tick`: the engine is idle once the batch is
                    // drained, and using the (possibly later) abandoned
                    // end_tick would overlap the next busy period.
                    if let (Some(start), Some(ts)) = (busy_start, hub.windows.as_mut()) {
                        ts.record_busy_span(start, now);
                    }
                }
                self.free.push(id);
                on_complete(
                    m.tag,
                    CompletedRequest {
                        arrival: m.arrival,
                        key: m.key,
                        outcome,
                    },
                );
            }
        }
    }

    /// Drain the earliest wake-up batch, stepping every client scheduled
    /// for that instant. Returns `false` when nothing is pending.
    pub(crate) fn advance(&mut self, on_complete: &mut impl FnMut(u64, CompletedRequest)) -> bool {
        let mut batch = std::mem::take(&mut self.batch);
        let instant = self.sched.pop_batch(&mut batch);
        let advanced = instant.is_some();
        if let Some(t) = instant {
            self.stats.wake_batches += 1;
            for &id in &batch {
                self.step_client(t, id, on_complete);
            }
            if let Some(hub) = self.obs.as_deref_mut() {
                // Wake-up boundaries are the engine's natural sampling
                // grid: one sample per distinct simulated instant.
                hub.gauges.record(Gauge::InFlight, self.in_flight as u64);
                hub.gauges.record(
                    Gauge::SlabOccupancy,
                    (self.slots.len() - self.free.len()) as u64,
                );
                hub.gauges
                    .record(Gauge::WakeupQueueDepth, self.sched.depth() as u64);
                hub.gauges
                    .record(Gauge::FreeListLen, self.free.len() as u64);
                if let Some(ts) = hub.windows.as_mut() {
                    ts.record_batch(t, self.in_flight as u64);
                }
            }
        }
        self.batch = batch;
        advanced
    }

    /// Run a whole batch of `(arrival, key)` requests to completion,
    /// returning outcomes **in request order**. Arrivals need not be
    /// sorted; simultaneous arrivals are fine.
    pub fn run_batch(&mut self, requests: &[(Ticks, Key)]) -> Vec<CompletedRequest> {
        for (i, &(t, key)) in requests.iter().enumerate() {
            self.admit(t, key, i as u64);
        }
        let mut done: Vec<Option<CompletedRequest>> = vec![None; requests.len()];
        while self.advance(&mut |tag, r| done[tag as usize] = Some(r)) {}
        done.into_iter()
            .map(|d| d.expect("engine invariant: every admitted request completes"))
            .collect()
    }

    /// Steady-state mode: stream requests through a bounded in-flight
    /// population.
    ///
    /// Requests are admitted from `requests` (in order) whenever fewer
    /// than `max_in_flight` clients are admitted, so memory is
    /// `O(max_in_flight)` regardless of how long the stream is.
    /// Completions are reported to `on_complete` in completion order.
    /// Because clients on a broadcast channel are independent, each
    /// request's outcome is identical to batch mode; only the reporting
    /// order differs.
    ///
    /// `max_in_flight == 0` means **unbounded**: every request is admitted
    /// immediately (memory grows with the whole stream, exactly like
    /// [`Engine::run_batch`]). It is *not* a zero-capacity stall — the
    /// previous behaviour silently clamped 0 to 1, which this replaces
    /// with a documented, tested semantics.
    pub fn run_stream<I>(
        &mut self,
        requests: I,
        max_in_flight: usize,
        mut on_complete: impl FnMut(CompletedRequest),
    ) where
        I: IntoIterator<Item = (Ticks, Key)>,
    {
        let cap = if max_in_flight == 0 {
            usize::MAX
        } else {
            max_in_flight
        };
        let mut pending = requests.into_iter();
        let mut exhausted = false;
        loop {
            while !exhausted && self.occupied() < cap {
                match pending.next() {
                    Some((t, key)) => self.admit(t, key, 0),
                    None => exhausted = true,
                }
            }
            if !self.advance(&mut |_tag, r| on_complete(r)) {
                debug_assert!(self.sched.is_empty());
                if exhausted {
                    break;
                }
            }
        }
    }
}

pub mod reference {
    //! The naive per-request engine the slab design replaced: one
    //! `Box<dyn QueryRun>` per request, every wake-up an individual entry
    //! in a tuple-keyed `BinaryHeap`. Kept as the behavioural oracle for
    //! the equivalence property suite (`engine_equiv`), and as the
    //! baseline the `engine_bench` harness measures speedups against.

    use super::*;
    use bda_core::QueryRun;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Reference implementation of [`Engine::run_batch`] over an engine
    /// built with [`Engine::with_channel`]: identical outcomes, naive
    /// scheduling — the oracle side of every differential suite.
    pub fn run_requests_reference(
        system: &dyn DynSystem,
        requests: &[(Ticks, Key)],
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Vec<CompletedRequest> {
        // (time, tiebreak sequence, request index, kind) with kind 0 =
        // arrival, 1 = wake; Reverse for earliest-first order.
        let mut queue: BinaryHeap<Reverse<(Ticks, u64, usize, u8)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, &(t, _)) in requests.iter().enumerate() {
            queue.push(Reverse((t, seq, i, 0)));
            seq += 1;
        }

        let mut runs: Vec<Option<Box<dyn QueryRun + '_>>> =
            (0..requests.len()).map(|_| None).collect();
        let mut done: Vec<Option<CompletedRequest>> = vec![None; requests.len()];

        while let Some(Reverse((_t, _s, i, kind))) = queue.pop() {
            if kind == 0 {
                let (arrival, key) = requests[i];
                runs[i] = Some(system.begin(key, arrival, channel, policy));
            }
            let run = runs[i].as_mut().expect("client exists while stepping");
            match run.step() {
                WalkStep::Read { until, .. } | WalkStep::Doze { until } => {
                    queue.push(Reverse((until, seq, i, 1)));
                    seq += 1;
                }
                WalkStep::Done(outcome) => {
                    let (arrival, key) = requests[i];
                    done[i] = Some(CompletedRequest {
                        arrival,
                        key,
                        outcome,
                    });
                    runs[i] = None;
                }
            }
        }

        done.into_iter()
            .map(|d| d.expect("every request completes"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{Dataset, ErrorModel, FlatScheme, Params, Record, Scheme};

    fn system() -> impl DynSystem {
        let ds = Dataset::new((0..32).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        FlatScheme.build(&ds, &Params::paper()).unwrap()
    }

    #[test]
    fn event_engine_matches_direct_probe() {
        let sys = system();
        let requests: Vec<(Ticks, Key)> =
            (0..200u64).map(|i| (i * 137, Key((i % 32) * 2))).collect();
        let results = Engine::new(&sys).run_batch(&requests);
        assert_eq!(results.len(), requests.len());
        for (r, &(t, k)) in results.iter().zip(&requests) {
            assert_eq!(r.arrival, t);
            assert_eq!(r.key, k);
            let direct = sys.probe(k, t);
            assert_eq!(r.outcome, direct, "event-driven ≡ direct for t={t}");
        }
    }

    #[test]
    fn unsorted_arrivals_are_handled() {
        let sys = system();
        let requests = vec![
            (5000u64, Key(0)),
            (0u64, Key(2)),
            (99999u64, Key(4)),
            (1u64, Key(6)),
        ];
        let results = Engine::new(&sys).run_batch(&requests);
        // Results come back in request order regardless of arrival order.
        for (r, &(t, k)) in results.iter().zip(&requests) {
            assert_eq!((r.arrival, r.key), (t, k));
            assert!(r.outcome.found);
        }
    }

    #[test]
    fn simultaneous_arrivals_complete_identically() {
        let sys = system();
        let requests = vec![(1234u64, Key(8)); 10];
        let results = Engine::new(&sys).run_batch(&requests);
        for w in results.windows(2) {
            assert_eq!(w[0].outcome, w[1].outcome);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let sys = system();
        assert!(Engine::new(&sys).run_batch(&[]).is_empty());
    }

    #[test]
    fn slab_engine_matches_reference_engine() {
        let sys = system();
        let requests: Vec<(Ticks, Key)> = (0..500u64)
            .map(|i| ((i * 7919) % 100_000, Key((i % 40) * 2)))
            .collect();
        let slab = Engine::new(&sys).run_batch(&requests);
        let naive = reference::run_requests_reference(
            &sys,
            &requests,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
        );
        assert_eq!(slab, naive);
    }

    #[test]
    fn slots_are_recycled_across_batches() {
        let sys = system();
        let mut engine = Engine::new(&sys);
        let requests: Vec<(Ticks, Key)> =
            (0..100u64).map(|i| (i * 31, Key((i % 32) * 2))).collect();
        engine.run_batch(&requests);
        let slots_after_first = engine.slots.len();
        engine.run_batch(&requests);
        assert_eq!(
            engine.slots.len(),
            slots_after_first,
            "second identical batch must not grow the arena"
        );
        assert_eq!(engine.stats().completed, 200);
    }

    #[test]
    fn streaming_bounds_the_population() {
        let sys = system();
        let mut engine = Engine::new(&sys);
        let requests: Vec<(Ticks, Key)> = (0..1000u64).map(|i| (i, Key((i % 32) * 2))).collect();
        let mut results = Vec::new();
        engine.run_stream(requests.iter().copied(), 16, |r| results.push(r));
        assert_eq!(results.len(), requests.len());
        assert!(engine.slots.len() <= 16, "arena capped at max_in_flight");
        assert!(engine.stats().peak_in_flight <= 16);
        // Outcomes equal batch mode's, request by request.
        let batch = Engine::new(&sys).run_batch(&requests);
        results.sort_by_key(|r| r.arrival);
        for (s, b) in results.iter().zip(&batch) {
            assert_eq!(s, b);
        }
    }

    #[test]
    fn stream_cap_edge_cases_recycle_and_match_batch() {
        let sys = system();
        let requests: Vec<(Ticks, Key)> =
            (0..200u64).map(|i| (i * 17, Key((i % 32) * 2))).collect();
        let batch = Engine::new(&sys).run_batch(&requests);
        // cap = 1 (fully serialized), cap = population (never blocks),
        // cap > population (slack never used).
        for cap in [1, requests.len(), requests.len() * 2] {
            let mut engine = Engine::new(&sys);
            let mut results = Vec::new();
            engine.run_stream(requests.iter().copied(), cap, |r| results.push(r));
            assert_eq!(results.len(), requests.len(), "cap={cap}");
            assert!(engine.slots.len() <= cap, "cap={cap}: arena exceeded cap");
            assert!(
                engine.stats().peak_in_flight <= cap,
                "cap={cap}: population exceeded cap"
            );
            results.sort_by_key(|r| r.arrival);
            assert_eq!(results, batch, "cap={cap}: outcomes drifted from batch");
            // Recycling: a second identical stream must not grow the arena.
            let arena = engine.slots.len();
            let mut again = Vec::new();
            engine.run_stream(requests.iter().copied(), cap, |r| again.push(r));
            assert_eq!(engine.slots.len(), arena, "cap={cap}: arena grew on reuse");
            again.sort_by_key(|r| r.arrival);
            assert_eq!(again, batch, "cap={cap}: reused engine drifted");
        }
    }

    #[test]
    fn zero_stream_cap_means_unbounded_not_a_stall() {
        let sys = system();
        let requests: Vec<(Ticks, Key)> =
            (0..150u64).map(|i| (i * 31, Key((i % 32) * 2))).collect();
        let mut engine = Engine::new(&sys);
        let mut results = Vec::new();
        // Regression: 0 used to be silently clamped to 1; a literal
        // zero-capacity reading would never admit anything and hang.
        engine.run_stream(requests.iter().copied(), 0, |r| results.push(r));
        assert_eq!(results.len(), requests.len());
        // Unbounded admission behaves exactly like batch mode, peak
        // population included.
        let mut batch_engine = Engine::new(&sys);
        let batch = batch_engine.run_batch(&requests);
        results.sort_by_key(|r| r.arrival);
        assert_eq!(results, batch);
        assert_eq!(
            engine.stats().peak_in_flight,
            batch_engine.stats().peak_in_flight
        );
    }

    #[test]
    fn faulty_engine_matches_direct_walker_and_counts_degradation() {
        let sys = system();
        let channel = ChannelModel::iid(ErrorModel::new(0.15, 0xFA11));
        let policy = RetryPolicy::bounded(2);
        let requests: Vec<(Ticks, Key)> =
            (0..300u64).map(|i| (i * 613, Key((i % 32) * 2))).collect();
        let mut engine = Engine::with_channel(&sys, channel, policy);
        let results = engine.run_batch(&requests);
        let mut retries = 0u64;
        let mut abandoned = 0u64;
        for (r, &(t, k)) in results.iter().zip(&requests) {
            let direct = sys.probe_with_channel(k, t, channel, policy);
            assert_eq!(r.outcome, direct, "slab ≡ walker under loss at t={t}");
            retries += u64::from(r.outcome.retries);
            abandoned += u64::from(r.outcome.abandoned);
            // Truthfulness: a key that is broadcast is found unless the
            // policy abandoned; it is never silently missed.
            assert!(r.outcome.found || r.outcome.abandoned);
            assert!(!r.outcome.aborted);
        }
        let stats = engine.stats();
        assert!(retries > 0, "15% loss must corrupt something");
        assert_eq!(stats.corrupt_reads, retries);
        assert_eq!(stats.abandoned, abandoned);
    }

    #[test]
    fn lossless_faulty_constructor_is_identity() {
        let sys = system();
        let requests: Vec<(Ticks, Key)> =
            (0..100u64).map(|i| (i * 137, Key((i % 32) * 2))).collect();
        let plain = Engine::new(&sys).run_batch(&requests);
        let faulty = Engine::with_channel(&sys, ChannelModel::NONE, RetryPolicy::default())
            .run_batch(&requests);
        assert_eq!(plain, faulty);
        let strict = Engine::with_channel(
            &sys,
            ChannelModel::NONE,
            RetryPolicy::bounded(0).with_deadline(1),
        )
        .run_batch(&requests);
        assert_eq!(plain, strict, "policies are no-ops without corruption");
    }

    #[test]
    fn observed_engine_matches_plain_and_accounts_every_tick() {
        use bda_obs::Gauge;
        let sys = system();
        let channel = ChannelModel::iid(ErrorModel::new(0.10, 0x0B5));
        let policy = RetryPolicy::bounded(3);
        let requests: Vec<(Ticks, Key)> =
            (0..300u64).map(|i| (i * 401, Key((i % 32) * 2))).collect();
        let plain = Engine::with_channel(&sys, channel, policy).run_batch(&requests);
        let mut engine = Engine::with_channel(&sys, channel, policy);
        engine.enable_metrics();
        let observed = engine.run_batch(&requests);
        let hub = engine.take_metrics().unwrap();
        assert_eq!(plain, observed, "observation must not perturb outcomes");

        assert_eq!(hub.completed, requests.len() as u64);
        let (access, tuning, found, abandoned) =
            plain.iter().fold((0u64, 0u64, 0u64, 0u64), |acc, r| {
                (
                    acc.0 + r.outcome.access,
                    acc.1 + r.outcome.tuning,
                    acc.2 + u64::from(r.outcome.found),
                    acc.3 + u64::from(r.outcome.abandoned),
                )
            });
        assert_eq!(hub.found, found);
        assert_eq!(hub.abandoned, abandoned);
        // Exact span accounting: per-phase ticks telescope to the metrics.
        assert_eq!(hub.spans.total_access(), access);
        assert_eq!(hub.spans.total_tuning(), tuning);
        assert_eq!(hub.access.sum(), u128::from(access));
        assert_eq!(hub.tuning.sum(), u128::from(tuning));
        assert_eq!(hub.access.len(), requests.len() as u64);
        // Gauges sampled once per wake batch, never exceeding the arena.
        let occ = hub.gauges.get(Gauge::SlabOccupancy);
        assert!(occ.samples > 0);
        assert_eq!(occ.last, 0, "final batch drains the slab");
        assert!(hub.gauges.get(Gauge::InFlight).max <= requests.len() as u64);
    }

    #[test]
    fn enable_metrics_rejects_a_busy_engine_and_resets_the_arena() {
        let sys = system();
        let mut engine = Engine::new(&sys);
        let requests: Vec<(Ticks, Key)> = (0..40u64).map(|i| (i * 97, Key((i % 32) * 2))).collect();
        engine.run_batch(&requests);
        assert!(engine.metrics().is_none());
        // Idle after the batch: enabling swaps every pooled slot for an
        // observed one, so spans are recorded from the next batch on.
        engine.enable_metrics();
        engine.run_batch(&requests);
        let hub = engine.take_metrics().unwrap();
        assert_eq!(hub.completed, 40);
        assert!(!hub.spans.is_empty(), "observed slots must record spans");
        assert!(engine.metrics().is_none(), "take_metrics clears the hub");
    }

    #[test]
    fn batches_step_same_instant_clients_together() {
        let sys = system();
        let mut engine = Engine::new(&sys);
        // 50 clients arriving at the same instant collapse onto shared
        // wake-up batches: far fewer batches than events.
        let requests = vec![(777u64, Key(8)); 50];
        engine.run_batch(&requests);
        let stats = engine.stats();
        assert_eq!(stats.completed, 50);
        assert!(
            stats.wake_batches < stats.events / 10,
            "expected heavy batching, got {} batches for {} events",
            stats.wake_batches,
            stats.events
        );
    }
}
