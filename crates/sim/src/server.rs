//! The broadcast server (paper §3, `BroadcastServer`) and its dynamic
//! counterpart, [`VersionedServer`].

use bda_core::scheme::drain;
use bda_core::{
    channel_model_for, even_partition, patch_outcome, patch_spans, remix_seed, AccessOutcome,
    ChannelModel, Dataset, DynSystem, Epoch, GroupConfig, Key, NoopRecorder, Params, PhaseSpans,
    ProgramTimeline, QueryRun, QuerySlot, Record, Result, RetryPolicy, Scheme, SpanRecorder,
    SwitchedRun, System, Ticks, VersionedSlot, VersionedWalk, WalkStep,
};

use crate::updates::{UpdateSpec, UpdateStream};

/// Wraps a built broadcast system and answers channel-timing questions —
/// "a process to broadcast data continuously". The channel itself is
/// deterministic (the cycle repeats forever), so the server's job is
/// bookkeeping: cycle geometry and how much has been broadcast by a given
/// instant.
#[derive(Clone, Copy)]
pub struct BroadcastServer<'a> {
    system: &'a dyn DynSystem,
}

impl<'a> BroadcastServer<'a> {
    /// Serve the given broadcast system.
    pub fn new(system: &'a dyn DynSystem) -> Self {
        BroadcastServer { system }
    }

    /// The system being broadcast.
    pub fn system(&self) -> &'a dyn DynSystem {
        self.system
    }

    /// Broadcast-cycle length in bytes (`Bt`).
    pub fn cycle_len(&self) -> Ticks {
        self.system.cycle_len()
    }

    /// Buckets per cycle.
    pub fn buckets_per_cycle(&self) -> usize {
        self.system.num_buckets()
    }

    /// Number of complete cycles broadcast by absolute time `t`.
    ///
    /// A zero-length cycle (a degenerate system broadcasting nothing)
    /// saturates instead of dividing by zero: nothing has been broadcast at
    /// `t == 0`, and "infinitely many" empty cycles fit in any later `t`.
    pub fn cycles_completed(&self, t: Ticks) -> u64 {
        match self.cycle_len() {
            0 if t == 0 => 0,
            0 => u64::MAX,
            cycle => t / cycle,
        }
    }

    /// Position within the current cycle at absolute time `t`. A
    /// zero-length cycle has only one position: 0.
    pub fn cycle_position(&self, t: Ticks) -> Ticks {
        match self.cycle_len() {
            0 => 0,
            cycle => t % cycle,
        }
    }
}

impl std::fmt::Debug for BroadcastServer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BroadcastServer")
            .field("scheme", &self.system.scheme_name())
            .field("cycle_len", &self.cycle_len())
            .field("buckets", &self.buckets_per_cycle())
            .finish()
    }
}

/// A dynamic broadcast server: owns the full air history of a mutating
/// database as a [`ProgramTimeline`], built by replaying a deterministic
/// [`UpdateStream`] against the initial dataset at every cycle boundary.
///
/// `VersionedServer` implements [`DynSystem`] directly, so the slab
/// engine, the reference oracle, and the adaptive simulator all drive it
/// through the same object-safe surface as a frozen system — dynamic mode
/// needs zero engine changes. Queries run as [`VersionedWalk`]s: clients
/// detect version skew from bucket headers and re-anchor mid-walk.
///
/// The reported [`DynSystem::cycle_len`]/[`DynSystem::num_buckets`] are
/// those of the *initial* program (epoch 0): request generators use them
/// to scale arrival horizons, and the initial geometry is the stable
/// reference point (per-epoch geometry is available via
/// [`VersionedServer::timeline`]).
pub struct VersionedServer<S: System> {
    timeline: ProgramTimeline<S>,
    /// `(version, dataset)` snapshots in air order — the ground truth the
    /// differential suite's verdict oracle checks outcomes against.
    datasets: Vec<(u64, Dataset)>,
    spec: UpdateSpec,
}

impl<S: System> VersionedServer<S> {
    /// Build the server: construct the initial program at version 0, then
    /// walk `spec.horizon_cycles` cycle boundaries, applying the update
    /// batch at each. A batch that changes nothing extends the current
    /// epoch (no version bump — crucially, a zero-rate spec yields a
    /// single epoch whose walks are bit-identical to the frozen channel);
    /// a real change bumps the version and rebuilds the program via
    /// [`Scheme::rebuild`].
    pub fn build<Sch>(
        scheme: &Sch,
        dataset: &Dataset,
        params: &Params,
        spec: UpdateSpec,
    ) -> Result<Self>
    where
        Sch: Scheme<System = S>,
    {
        let mut records: Vec<Record> = dataset.records().to_vec();
        let mut stream = UpdateStream::new(spec);
        let mut version = 0u64;
        let mut cur_sys = scheme.rebuild(&Dataset::new(records.clone())?, params, version)?;
        let mut cur_start: Ticks = 0;
        let mut epochs: Vec<Epoch<S>> = Vec::new();
        let mut datasets = vec![(version, Dataset::new(records.clone())?)];
        let mut t: Ticks = 0;
        for _ in 0..spec.horizon_cycles {
            // One full cycle of the current program goes on the air...
            t += cur_sys.channel().cycle_len();
            // ...then the server applies this boundary's batch.
            let batch = stream.next_batch(&records);
            if UpdateStream::apply(&mut records, &batch) > 0 {
                version += 1;
                let next = scheme.rebuild(&Dataset::new(records.clone())?, params, version)?;
                epochs.push(Epoch {
                    system: std::mem::replace(&mut cur_sys, next),
                    start: cur_start,
                });
                cur_start = t;
                datasets.push((version, Dataset::new(records.clone())?));
            }
        }
        epochs.push(Epoch {
            system: cur_sys,
            start: cur_start,
        });
        Ok(VersionedServer {
            timeline: ProgramTimeline::new(epochs)?,
            datasets,
            spec,
        })
    }

    /// The full air history.
    pub fn timeline(&self) -> &ProgramTimeline<S> {
        &self.timeline
    }

    /// `(version, dataset)` snapshots in air order, one per epoch.
    pub fn datasets(&self) -> &[(u64, Dataset)] {
        &self.datasets
    }

    /// The dataset broadcast at `version`, if that version ever aired.
    pub fn dataset_at(&self, version: u64) -> Option<&Dataset> {
        self.datasets
            .iter()
            .find(|(v, _)| *v == version)
            .map(|(_, d)| d)
    }

    /// The update stream parameters this server was built with.
    pub fn spec(&self) -> UpdateSpec {
        self.spec
    }

    /// Number of program versions that made it onto the air.
    pub fn num_epochs(&self) -> usize {
        self.timeline.epochs().len()
    }
}

impl<S: System> std::fmt::Debug for VersionedServer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedServer")
            .field(
                "scheme",
                &System::scheme_name(&self.timeline.epoch(0).system),
            )
            .field("epochs", &self.num_epochs())
            .field("rate", &self.spec.rate)
            .finish()
    }
}

impl<S: System> DynSystem for VersionedServer<S>
where
    S::Machine: 'static,
{
    fn scheme_name(&self) -> &'static str {
        self.timeline.epoch(0).system.scheme_name()
    }

    fn cycle_len(&self) -> Ticks {
        self.timeline.epoch(0).system.channel().cycle_len()
    }

    fn num_buckets(&self) -> usize {
        self.timeline.epoch(0).system.channel().num_buckets()
    }

    fn probe_with_channel(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> AccessOutcome {
        drain(&mut VersionedWalk::with_channel(
            &self.timeline,
            key,
            tune_in,
            channel,
            policy,
        ))
    }

    fn probe_recorded(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> (AccessOutcome, PhaseSpans) {
        let mut walk = VersionedWalk::with_channel_recorder(
            &self.timeline,
            key,
            tune_in,
            channel,
            policy,
            SpanRecorder::new(),
        );
        (drain(&mut walk), walk.recorder().spans)
    }

    fn begin(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Box<dyn QueryRun + '_> {
        Box::new(VersionedWalk::with_channel(
            &self.timeline,
            key,
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
            Box::new(VersionedSlot::<_, SpanRecorder>::new(
                &self.timeline,
                channel,
                policy,
            ))
        } else {
            Box::new(VersionedSlot::<_, NoopRecorder>::new(
                &self.timeline,
                channel,
                policy,
            ))
        }
    }
}

/// A striped **dynamic** broadcast group — the multichannel counterpart
/// of [`VersionedServer`]: the key-sorted dataset is split into
/// contiguous slices, each slice becomes its own [`VersionedServer`] on
/// its own channel (under [`Params::scaled`] dilation for equal aggregate
/// bandwidth), and each channel's update stream runs with a
/// deterministically remixed seed ([`remix_seed`]) so churn is
/// decorrelated across channels while channel 0 keeps the base stream.
///
/// Routing uses the **initial** partition's bounds, frozen for the whole
/// horizon. A known wart follows: an update stream may insert a key
/// outside its slice's initial key range, and such a key still routes by
/// the frozen bounds — the covering channel answers not-found from the
/// air even though a *different* channel broadcasts the record.
/// Cross-slice rebalancing is a server-side re-partition (a new group
/// build), not something a client-side routing directory can track;
/// every driver sees the same frozen directory, so cross-driver
/// equivalence is unaffected.
pub struct StripedVersionedServer<S: System> {
    channels: Vec<VersionedServer<S>>,
    bounds: Vec<u64>,
    switch_cost: Ticks,
}

impl<S: System> StripedVersionedServer<S> {
    /// Build the group: even contiguous partition of `dataset` over
    /// `config.channels` (clamped to the dataset size), one versioned
    /// server per slice, channel `g`'s update stream seeded with
    /// `remix_seed(spec.seed, g)`.
    pub fn build<Sch>(
        scheme: &Sch,
        dataset: &Dataset,
        params: &Params,
        config: GroupConfig,
        spec: UpdateSpec,
    ) -> Result<Self>
    where
        Sch: Scheme<System = S>,
    {
        let n = dataset.len();
        let k = (config.channels as usize).min(n).max(1);
        let sizes = even_partition(n, k);
        let scaled = params.scaled(k as u32);
        let mut channels = Vec::with_capacity(k);
        let mut bounds = Vec::with_capacity(k);
        let mut lo = 0usize;
        for (g, &len) in sizes.iter().enumerate() {
            let slice = &dataset.records()[lo..lo + len];
            bounds.push(slice[0].key.0);
            let slice_ds = Dataset::new(slice.to_vec())?;
            let slice_spec = UpdateSpec {
                seed: remix_seed(spec.seed, g as u32),
                ..spec
            };
            channels.push(VersionedServer::build(
                scheme, &slice_ds, &scaled, slice_spec,
            )?);
            lo += len;
        }
        Ok(StripedVersionedServer {
            channels,
            bounds,
            switch_cost: config.switch_cost,
        })
    }

    /// Number of channels in the group.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Air time one retune costs, in ticks.
    pub fn switch_cost(&self) -> Ticks {
        self.switch_cost
    }

    /// Channel `g`'s versioned server.
    pub fn channel_server(&self, g: usize) -> &VersionedServer<S> {
        &self.channels[g]
    }

    /// The frozen routing directory: first initial key of each slice.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// The channel a query for `key` tunes to.
    pub fn route(&self, key: Key) -> usize {
        self.bounds
            .partition_point(|&b| b <= key.0)
            .saturating_sub(1)
    }

    /// The channel for `key` and the retune cost a client tuning in at
    /// `tune_in` pays, cut short where it would pass `Ticks::MAX`.
    fn route_with_cost(&self, key: Key, tune_in: Ticks) -> (usize, Ticks) {
        let g = self.route(key);
        let sw = if g == 0 { 0 } else { self.switch_cost };
        (g, sw.min(Ticks::MAX - tune_in))
    }
}

impl<S: System> std::fmt::Debug for StripedVersionedServer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripedVersionedServer")
            .field(
                "scheme",
                &System::scheme_name(&self.channels[0].timeline().epoch(0).system),
            )
            .field("channels", &self.channels.len())
            .field("switch_cost", &self.switch_cost)
            .finish()
    }
}

/// The reusable [`QuerySlot`] of a striped versioned group: routes each
/// query at [`QuerySlot::start`], arms the target channel's own
/// (versioned) slot behind the channel-derived fault model, and patches
/// the switch cost into the final outcome and spans.
struct RoutedVersionedSlot<'a, S: System>
where
    S::Machine: 'static,
{
    server: &'a StripedVersionedServer<S>,
    base: ChannelModel,
    policy: RetryPolicy,
    observed: bool,
    ff: bool,
    inner: Option<Box<dyn QuerySlot + 'a>>,
    pending: Ticks,
    patched: Option<PhaseSpans>,
}

impl<'a, S: System> RoutedVersionedSlot<'a, S>
where
    S::Machine: 'static,
{
    fn new(
        server: &'a StripedVersionedServer<S>,
        base: ChannelModel,
        policy: RetryPolicy,
        observed: bool,
    ) -> Self {
        RoutedVersionedSlot {
            server,
            base,
            policy,
            observed,
            ff: false,
            inner: None,
            pending: 0,
            patched: None,
        }
    }
}

impl<S: System> QuerySlot for RoutedVersionedSlot<'_, S>
where
    S::Machine: 'static,
{
    fn start(&mut self, key: Key, tune_in: Ticks) {
        let (g, sw) = self.server.route_with_cost(key, tune_in);
        let ch = &self.server.channels[g];
        let model = channel_model_for(self.base, g as u32);
        let mut inner = ch.make_slot(model, self.policy, self.observed);
        inner.set_fast_forward(self.ff);
        inner.start(key, tune_in.saturating_add(sw));
        self.inner = Some(inner);
        self.pending = sw;
        self.patched = None;
    }

    fn set_fast_forward(&mut self, enabled: bool) {
        self.ff = enabled;
        if let Some(inner) = self.inner.as_mut() {
            inner.set_fast_forward(enabled);
        }
    }

    fn step(&mut self) -> WalkStep {
        let inner = self.inner.as_mut().expect("QuerySlot::step before start");
        match inner.step() {
            WalkStep::Done(out) => {
                if self.observed {
                    let spans = inner.spans().copied().unwrap_or_default();
                    self.patched = Some(patch_spans(spans, self.pending));
                }
                WalkStep::Done(patch_outcome(out, self.pending))
            }
            s => s,
        }
    }

    fn now(&self) -> Ticks {
        self.inner
            .as_ref()
            .expect("QuerySlot::now before start")
            .now()
    }

    fn is_done(&self) -> bool {
        self.inner.as_ref().map_or(true, |i| i.is_done())
    }

    fn spans(&self) -> Option<&PhaseSpans> {
        if !self.observed {
            return None;
        }
        self.patched
            .as_ref()
            .or_else(|| self.inner.as_ref().and_then(|i| i.spans()))
    }
}

impl<S: System> DynSystem for StripedVersionedServer<S>
where
    S::Machine: 'static,
{
    fn scheme_name(&self) -> &'static str {
        DynSystem::scheme_name(&self.channels[0])
    }

    fn cycle_len(&self) -> Ticks {
        // The longest per-channel cycle — same convention as the frozen
        // striped group.
        self.channels
            .iter()
            .map(DynSystem::cycle_len)
            .max()
            .unwrap_or(0)
    }

    fn num_buckets(&self) -> usize {
        self.channels.iter().map(DynSystem::num_buckets).sum()
    }

    fn probe_with_channel(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> AccessOutcome {
        let (g, sw) = self.route_with_cost(key, tune_in);
        let out = self.channels[g].probe_with_channel(
            key,
            tune_in.saturating_add(sw),
            channel_model_for(channel, g as u32),
            policy,
        );
        patch_outcome(out, sw)
    }

    fn probe_recorded(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> (AccessOutcome, PhaseSpans) {
        let (g, sw) = self.route_with_cost(key, tune_in);
        let (out, spans) = self.channels[g].probe_recorded(
            key,
            tune_in.saturating_add(sw),
            channel_model_for(channel, g as u32),
            policy,
        );
        (patch_outcome(out, sw), patch_spans(spans, sw))
    }

    fn begin(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Box<dyn QueryRun + '_> {
        let (g, sw) = self.route_with_cost(key, tune_in);
        let run = self.channels[g].begin(
            key,
            tune_in.saturating_add(sw),
            channel_model_for(channel, g as u32),
            policy,
        );
        if sw == 0 {
            run
        } else {
            Box::new(SwitchedRun::new(run, sw))
        }
    }

    fn make_slot(
        &self,
        channel: ChannelModel,
        policy: RetryPolicy,
        observed: bool,
    ) -> Box<dyn QuerySlot + '_> {
        Box::new(RoutedVersionedSlot::new(self, channel, policy, observed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{FlatScheme, Record};

    #[test]
    fn server_reports_channel_geometry() {
        let ds = Dataset::new((0..10).map(Record::keyed).collect()).unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let server = BroadcastServer::new(&sys);
        let dt = u64::from(Params::paper().data_bucket_size());
        assert_eq!(server.cycle_len(), 10 * dt);
        assert_eq!(server.buckets_per_cycle(), 10);
        assert_eq!(server.cycles_completed(25 * dt), 2);
        assert_eq!(server.cycle_position(25 * dt), 5 * dt);
        assert!(format!("{server:?}").contains("flat"));
    }

    /// A degenerate system broadcasting nothing, to pin the zero-cycle
    /// saturation behaviour without building an (impossible) empty channel.
    struct SilentSystem;

    impl DynSystem for SilentSystem {
        fn scheme_name(&self) -> &'static str {
            "silent"
        }
        fn cycle_len(&self) -> Ticks {
            0
        }
        fn num_buckets(&self) -> usize {
            0
        }
        fn probe_with_channel(
            &self,
            _: Key,
            _: Ticks,
            _: ChannelModel,
            _: RetryPolicy,
        ) -> AccessOutcome {
            unimplemented!("silent channel answers no queries")
        }
        fn probe_recorded(
            &self,
            _: Key,
            _: Ticks,
            _: ChannelModel,
            _: RetryPolicy,
        ) -> (AccessOutcome, PhaseSpans) {
            unimplemented!()
        }
        fn begin(
            &self,
            _: Key,
            _: Ticks,
            _: ChannelModel,
            _: RetryPolicy,
        ) -> Box<dyn QueryRun + '_> {
            unimplemented!()
        }
        fn make_slot(&self, _: ChannelModel, _: RetryPolicy, _: bool) -> Box<dyn QuerySlot + '_> {
            unimplemented!()
        }
    }

    #[test]
    fn zero_length_cycle_saturates_instead_of_panicking() {
        let server = BroadcastServer::new(&SilentSystem);
        assert_eq!(server.cycles_completed(0), 0);
        assert_eq!(server.cycles_completed(1), u64::MAX);
        assert_eq!(server.cycles_completed(u64::MAX), u64::MAX);
        assert_eq!(server.cycle_position(0), 0);
        assert_eq!(server.cycle_position(12345), 0);
    }

    fn ds(keys: &[u64]) -> Dataset {
        Dataset::new(keys.iter().map(|&k| Record::keyed(k)).collect()).unwrap()
    }

    #[test]
    fn zero_rate_server_is_a_single_frozen_epoch() {
        let d = ds(&[0, 10, 20, 30]);
        let p = Params::paper();
        let server = VersionedServer::build(&FlatScheme, &d, &p, UpdateSpec::rate(0.0, 1)).unwrap();
        assert_eq!(server.num_epochs(), 1);
        assert_eq!(server.timeline().epoch(0).version(), 0);
        let frozen = FlatScheme.build(&d, &p).unwrap();
        for t in [0u64, 17, 500, 9999] {
            for k in [0u64, 20, 35] {
                assert_eq!(server.probe(Key(k), t), frozen.probe(Key(k), t));
            }
        }
    }

    #[test]
    fn striped_k1_zero_rate_is_bit_identical_to_the_plain_server() {
        let d = ds(&[0, 10, 20, 30, 40, 50]);
        let p = Params::paper();
        let spec = UpdateSpec::rate(0.0, 7);
        let plain = VersionedServer::build(&FlatScheme, &d, &p, spec).unwrap();
        let striped = StripedVersionedServer::build(
            &FlatScheme,
            &d,
            &p,
            bda_core::GroupConfig::new(1, 9_999).unwrap(),
            spec,
        )
        .unwrap();
        assert_eq!(striped.num_channels(), 1);
        for t in [0u64, 17, 500, 9999] {
            for k in [0u64, 30, 55] {
                assert_eq!(striped.probe(Key(k), t), plain.probe(Key(k), t));
            }
        }
    }

    #[test]
    fn striped_zero_rate_matches_the_frozen_striped_group() {
        let d = ds(&[0, 10, 20, 30, 40, 50, 60, 70, 80]);
        let p = Params::paper();
        let config = bda_core::GroupConfig::new(3, 700).unwrap();
        let frozen = bda_core::StripedScheme::new(FlatScheme, config)
            .build(&d, &p)
            .unwrap();
        let striped =
            StripedVersionedServer::build(&FlatScheme, &d, &p, config, UpdateSpec::rate(0.0, 3))
                .unwrap();
        assert_eq!(striped.bounds(), frozen.bounds());
        for t in [0u64, 123, 4567] {
            for k in [0u64, 25, 30, 60, 85, 95] {
                assert_eq!(
                    striped.probe(Key(k), t),
                    frozen.probe(Key(k), t),
                    "key {k} at t={t}"
                );
            }
        }
    }

    #[test]
    fn striped_churn_decorrelates_channels_and_stays_deterministic() {
        let d = ds(&(0..32).map(|i| i * 10).collect::<Vec<_>>());
        let p = Params::paper();
        let config = bda_core::GroupConfig::new(4, 512).unwrap();
        let spec = UpdateSpec::rate(0.25, 41);
        let a = StripedVersionedServer::build(&FlatScheme, &d, &p, config, spec).unwrap();
        assert_eq!(a.num_channels(), 4);
        assert!(
            (0..4).any(|g| a.channel_server(g).num_epochs() > 1),
            "25% churn must version at least one channel"
        );
        // Channel epoch histories differ (remixed seeds decorrelate them)…
        let histories: Vec<Vec<Ticks>> = (0..4)
            .map(|g| {
                a.channel_server(g)
                    .timeline()
                    .epochs()
                    .iter()
                    .map(|e| e.start)
                    .collect()
            })
            .collect();
        assert!(
            histories.iter().any(|h| h != &histories[0]),
            "all channels churned identically: {histories:?}"
        );
        // …while the whole group stays reproducible.
        let b = StripedVersionedServer::build(&FlatScheme, &d, &p, config, spec).unwrap();
        for t in [0u64, 999, 31_337] {
            for k in [0u64, 105, 200, 315] {
                assert_eq!(a.probe(Key(k), t), b.probe(Key(k), t));
            }
        }
    }

    #[test]
    fn updating_server_versions_advance_and_snapshots_match() {
        let d = ds(&[0, 10, 20, 30, 40, 50, 60, 70]);
        let p = Params::paper();
        let server =
            VersionedServer::build(&FlatScheme, &d, &p, UpdateSpec::rate(0.25, 99)).unwrap();
        assert!(server.num_epochs() > 1, "25% churn must produce epochs");
        // Epoch versions strictly increase and each has a dataset snapshot
        // whose keys are exactly what that epoch's program broadcasts.
        let mut prev = None;
        for (i, e) in server.timeline().epochs().iter().enumerate() {
            let v = e.version();
            if let Some(p) = prev {
                assert!(v > p, "epoch {i} version {v} not after {p}");
            }
            prev = Some(v);
            let snap = server.dataset_at(v).expect("snapshot per version");
            assert_eq!(
                e.system.channel().num_buckets(),
                snap.len(),
                "flat program has one bucket per record"
            );
        }
        assert_eq!(server.datasets().len(), server.num_epochs());
        // Determinism: the same spec rebuilds the identical timeline.
        let again =
            VersionedServer::build(&FlatScheme, &d, &p, UpdateSpec::rate(0.25, 99)).unwrap();
        assert_eq!(again.num_epochs(), server.num_epochs());
        for (a, b) in again
            .timeline()
            .epochs()
            .iter()
            .zip(server.timeline().epochs())
        {
            assert_eq!(a.start, b.start);
            assert_eq!(a.version(), b.version());
        }
    }
}
