//! Multichannel broadcast groups (extension).
//!
//! Everything else in this crate broadcasts on **one** channel. Real
//! satellite and cellular broadcast systems stripe data across K parallel
//! carriers, and a client radio can tune only one of them at a time —
//! retuning costs real air time. This module generalizes the single
//! [`Channel`] into a **channel group**: K synchronized channels sharing
//! one tick clock (one byte per tick *per channel*), with two layouts:
//!
//! * [`StripedScheme`] — partition the key space into K contiguous slices
//!   and broadcast each slice as a self-contained program (any inner
//!   [`Scheme`]) on its own channel. A query routes to the channel owning
//!   its key range, pays one [`GroupConfig::switch_cost`] retune when that
//!   channel is not the home channel 0, and then runs the inner scheme's
//!   ordinary protocol unchanged. With `channels == 1` the striped system
//!   *is* the single-channel system, bit for bit.
//! * [`IndexedGroupScheme`] — a genuinely cross-channel layout: channel 0
//!   carries a two-level directory (root buckets, then directory buckets)
//!   whose leaf entries are [`BucketRef`]s pointing **across channels** at
//!   data buckets striped over channels `1..K`. Clients follow the
//!   pointers with the same forward-only discipline as
//!   [`crate::disks::DiskGeometry`]: a retune lands on the *next reachable
//!   occurrence* of the target bucket, never backward in time.
//!
//! **Equal aggregate bandwidth.** Splitting one carrier into K channels
//! slows each down by K×; rather than introduce a tick-per-byte ratio,
//! every per-channel program is built with [`Params::scaled`]`(K)`, so
//! byte-time arithmetic is unchanged and cross-K comparisons are fair.
//!
//! **Fault derivation.** Channel 0 keeps the caller's fault model
//! untouched (so K=1 is bit-identical to the single-channel path);
//! channels `g > 0` remix every seed in the model with
//! [`remix_seed`]`(seed, g)` — same loss probabilities, independent draws
//! — preserving the purity contract (corruption a pure function of bucket
//! start instant and seed) that sharded merge and fast-forward require.
//!
//! **Switch accounting.** The client radio rests on channel 0. A query
//! homed on channel `g != 0` pays `switch_cost` ticks before it can hear
//! anything: its walk starts at `tune_in + switch_cost` and the final
//! outcome's access time includes the switch. Tuning time does not — a
//! retuning radio is not demodulating. Observed walks attribute the cost
//! to the dedicated [`Phase::ChannelSwitch`] span.

use crate::bucket::Bucket;
use crate::channel::Channel;
use crate::error::{BdaError, Result};
use crate::errors_model::{ChannelModel, ErrorModel, LossModel, OutageSchedule, RetryPolicy};
use crate::key::Key;
use crate::machine::{AccessOutcome, Walk, WalkStep};
use crate::params::Params;
use crate::record::Dataset;
use crate::scheme::{drain, DynSystem, QueryRun, QuerySlot, Scheme, System};
use crate::Ticks;
use bda_obs::{NoopRecorder, Phase, PhaseSpans, Recorder, SpanRecorder};

/// A cross-channel bucket address: bucket starting at cycle-relative
/// `offset` on channel `channel` of the group. Directory entries carry
/// these; a client resolves one to an absolute instant with
/// [`Channel::occurrence_at_or_after`], which is forward-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BucketRef {
    /// Group channel index (0 = index/home channel).
    pub channel: u32,
    /// Start offset of the bucket within its channel's cycle, in ticks.
    pub offset: Ticks,
}

/// Multichannel group shape: how many synchronized channels, and what one
/// retune costs the client in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupConfig {
    /// Total number of channels in the group (≥ 1). For
    /// [`IndexedGroupScheme`] this includes the index channel 0.
    pub channels: u32,
    /// Air time one channel retune costs the client, in ticks.
    pub switch_cost: Ticks,
}

impl GroupConfig {
    /// The degenerate single-channel group.
    pub const SINGLE: GroupConfig = GroupConfig {
        channels: 1,
        switch_cost: 0,
    };

    /// A group of `channels` channels with retunes costing `switch_cost`.
    pub fn new(channels: u32, switch_cost: Ticks) -> Result<Self> {
        if channels == 0 {
            return Err(BdaError::BadParams(
                "a channel group needs at least one channel".into(),
            ));
        }
        if channels > 64 {
            return Err(BdaError::BadParams(format!(
                "channel group too wide ({channels} > 64)"
            )));
        }
        Ok(GroupConfig {
            channels,
            switch_cost,
        })
    }
}

/// Derive channel `g`'s fault seed from the base seed: identity for the
/// home channel 0, an independent splitmix draw for every other channel.
/// Purity is preserved — the derived seed is a constant per `(seed, g)`.
pub fn remix_seed(seed: u64, g: u32) -> u64 {
    if g == 0 {
        return seed;
    }
    let mut z = seed
        ^ (u64::from(g)
            .wrapping_add(0x5EED)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Channel `g`'s view of the caller's [`ChannelModel`]: every probability
/// and schedule shape unchanged, every seed remixed (identity at
/// `g == 0`). Carriers fade independently, but with the same severity.
pub fn channel_model_for(base: ChannelModel, g: u32) -> ChannelModel {
    if g == 0 {
        return base;
    }
    let loss = match base.loss {
        LossModel::Iid(m) => LossModel::Iid(ErrorModel {
            seed: remix_seed(m.seed, g),
            ..m
        }),
        LossModel::Burst(m) => LossModel::Burst(crate::errors_model::BurstModel {
            seed: remix_seed(m.seed, g),
            ..m
        }),
    };
    let outages = if base.outages.is_none() {
        base.outages
    } else {
        OutageSchedule {
            seed: remix_seed(base.outages.seed, g),
            ..base.outages
        }
    };
    ChannelModel { loss, outages }
}

/// Split `n` records into `k` contiguous slice sizes, as even as
/// possible (the first `n % k` slices get one extra record). Every slice
/// is non-empty when `k <= n`.
pub fn even_partition(n: usize, k: usize) -> Vec<usize> {
    let k = k.max(1);
    let base = n / k;
    let rem = n % k;
    (0..k).map(|i| base + usize::from(i < rem)).collect()
}

// ---------------------------------------------------------------------------
// Striped groups: one self-contained inner program per channel.
// ---------------------------------------------------------------------------

/// Stripe any inner [`Scheme`] across a channel group: the key-sorted
/// dataset is split into `channels` contiguous slices and each slice is
/// built as a self-contained inner program on its own channel (with
/// [`Params::scaled`] dilation for equal aggregate bandwidth).
pub struct StripedScheme<S> {
    inner: S,
    config: GroupConfig,
    partition: Option<Vec<usize>>,
}

impl<S: Scheme> StripedScheme<S> {
    /// Stripe `inner` over `config.channels` channels with even contiguous
    /// slices.
    pub fn new(inner: S, config: GroupConfig) -> Self {
        StripedScheme {
            inner,
            config,
            partition: None,
        }
    }

    /// Stripe with an explicit slice-size partition (the air-time
    /// allocator's output). `sizes` must have one entry per channel, all
    /// positive, summing to the dataset length at build time.
    pub fn with_partition(inner: S, config: GroupConfig, sizes: Vec<usize>) -> Self {
        StripedScheme {
            inner,
            config,
            partition: Some(sizes),
        }
    }

    /// Lay out the group (program version 0 on every channel).
    pub fn build(&self, dataset: &Dataset, params: &Params) -> Result<StripedSystem<S::System>> {
        self.rebuild(dataset, params, 0)
    }

    /// Lay out the group with every channel's program stamped `version`.
    pub fn rebuild(
        &self,
        dataset: &Dataset,
        params: &Params,
        version: u64,
    ) -> Result<StripedSystem<S::System>> {
        if dataset.is_empty() {
            return Err(BdaError::BadParams("cannot stripe an empty dataset".into()));
        }
        let n = dataset.len();
        // Never spread fewer records than channels: idle channels would
        // break the "every channel is a self-contained program" invariant.
        let k = (self.config.channels as usize).min(n).max(1);
        let sizes = match &self.partition {
            None => even_partition(n, k),
            Some(sizes) => {
                if sizes.len() != k {
                    return Err(BdaError::BadParams(format!(
                        "partition has {} slices for {} channels",
                        sizes.len(),
                        k
                    )));
                }
                if sizes.contains(&0) || sizes.iter().sum::<usize>() != n {
                    return Err(BdaError::BadParams(format!(
                        "partition {sizes:?} does not cover {n} records"
                    )));
                }
                sizes.clone()
            }
        };
        let scaled = params.scaled(k as u32);
        let mut channels = Vec::with_capacity(k);
        let mut bounds = Vec::with_capacity(k);
        let mut lo = 0usize;
        for &len in &sizes {
            let slice = &dataset.records()[lo..lo + len];
            bounds.push(slice[0].key.0);
            let slice_ds = Dataset::new(slice.to_vec())?;
            channels.push(self.inner.rebuild(&slice_ds, &scaled, version)?);
            lo += len;
        }
        Ok(StripedSystem {
            channels,
            bounds,
            switch_cost: self.config.switch_cost,
        })
    }
}

/// A built striped group: one inner [`System`] per channel plus the
/// frozen routing directory (first key of each slice).
pub struct StripedSystem<S: System> {
    channels: Vec<S>,
    bounds: Vec<u64>,
    switch_cost: Ticks,
}

impl<S: System> StripedSystem<S> {
    /// Assemble a striped system from already-built per-channel programs.
    /// `bounds[g]` is the first key of channel `g`'s slice; keys route to
    /// the last channel whose bound is ≤ the key (keys below every bound
    /// route to channel 0). Used by the dynamic-broadcast wrapper, whose
    /// channels are versioned servers rather than frozen systems.
    pub fn from_parts(channels: Vec<S>, bounds: Vec<u64>, switch_cost: Ticks) -> Self {
        assert_eq!(channels.len(), bounds.len());
        assert!(!channels.is_empty());
        StripedSystem {
            channels,
            bounds,
            switch_cost,
        }
    }

    /// Number of channels in the group.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Air time one retune costs, in ticks.
    pub fn switch_cost(&self) -> Ticks {
        self.switch_cost
    }

    /// Channel `g`'s inner program.
    pub fn channel_system(&self, g: usize) -> &S {
        &self.channels[g]
    }

    /// The routing directory: first key of each channel's slice.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// The channel a query for `key` tunes to: the slice whose key range
    /// covers it (absent keys route to the covering range too, so the
    /// inner scheme answers not-found from the air).
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

/// Patch a walk's final outcome with the up-front channel-switch cost:
/// the retune elapses air time before the walk's clock starts, so it is
/// pure access time (a retuning radio is deaf — tuning is untouched).
pub fn patch_outcome(mut out: AccessOutcome, sw: Ticks) -> AccessOutcome {
    out.access = out.access.saturating_add(sw);
    out
}

/// Patch a walk's phase spans with the up-front channel-switch cost as
/// one [`Phase::ChannelSwitch`] span (omitted when the query stayed on
/// its home channel, keeping switch-free spans bit-identical).
pub fn patch_spans(mut spans: PhaseSpans, sw: Ticks) -> PhaseSpans {
    if sw > 0 {
        spans.add(Phase::ChannelSwitch, sw, 0);
    }
    spans
}

/// A stepping query wrapping an inner walk that started after a channel
/// switch: steps pass through, the final outcome gains the switch cost.
pub struct SwitchedRun<R> {
    inner: R,
    sw: Ticks,
}

impl<R: QueryRun> SwitchedRun<R> {
    /// Wrap `inner` (already started `sw` ticks after the query's real
    /// tune-in) so its final outcome charges the retune.
    pub fn new(inner: R, sw: Ticks) -> Self {
        SwitchedRun { inner, sw }
    }
}

impl<R: QueryRun> QueryRun for SwitchedRun<R> {
    fn step(&mut self) -> WalkStep {
        match self.inner.step() {
            WalkStep::Done(out) => WalkStep::Done(patch_outcome(out, self.sw)),
            step => step,
        }
    }

    fn now(&self) -> Ticks {
        self.inner.now()
    }
}

/// The reusable [`QuerySlot`] of a striped group: routes each query to
/// its channel at [`QuerySlot::start`], arms an inner [`Walk`] behind the
/// channel's derived fault model, and patches the switch cost into the
/// final outcome. With a [`SpanRecorder`] the exposed spans gain one
/// [`Phase::ChannelSwitch`] span when the query paid a retune (patched at
/// completion, so the totals equal the patched outcome).
pub struct StripedSlot<'a, S: System, R = NoopRecorder> {
    system: &'a StripedSystem<S>,
    walk: Option<Walk<'a, S::Payload, S::Machine, R>>,
    base: ChannelModel,
    policy: RetryPolicy,
    ff: bool,
    pending: Ticks,
    patched: Option<PhaseSpans>,
}

impl<'a, S: System, R: Recorder + Default> StripedSlot<'a, S, R> {
    /// An empty slot over the group behind `base` faults; arm with
    /// [`QuerySlot::start`].
    pub fn new(system: &'a StripedSystem<S>, base: ChannelModel, policy: RetryPolicy) -> Self {
        StripedSlot {
            system,
            walk: None,
            base,
            policy,
            ff: false,
            pending: 0,
            patched: None,
        }
    }
}

impl<S: System, R: Recorder + Default + Send> QuerySlot for StripedSlot<'_, S, R> {
    fn start(&mut self, key: Key, tune_in: Ticks) {
        let (g, sw) = self.system.route_with_cost(key, tune_in);
        let sys = &self.system.channels[g];
        let mut walk = Walk::with_channel_recorder(
            sys.channel(),
            sys.query(key),
            tune_in.saturating_add(sw),
            channel_model_for(self.base, g as u32),
            self.policy,
            R::default(),
        );
        walk.set_fast_forward(self.ff);
        self.walk = Some(walk);
        self.pending = sw;
        self.patched = None;
    }

    fn set_fast_forward(&mut self, enabled: bool) {
        self.ff = enabled;
        if let Some(walk) = self.walk.as_mut() {
            walk.set_fast_forward(enabled);
        }
    }

    fn step(&mut self) -> WalkStep {
        let walk = self.walk.as_mut().expect("QuerySlot::step before start");
        match walk.step() {
            WalkStep::Done(out) => {
                if R::ENABLED {
                    let spans = walk.recorder().spans().copied().unwrap_or_default();
                    self.patched = Some(patch_spans(spans, self.pending));
                }
                WalkStep::Done(patch_outcome(out, self.pending))
            }
            s => s,
        }
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
        self.patched
            .as_ref()
            .or_else(|| self.walk.as_ref().and_then(|w| w.recorder().spans()))
    }
}

impl<S: System> DynSystem for StripedSystem<S>
where
    S::Machine: 'static,
{
    fn scheme_name(&self) -> &'static str {
        self.channels[0].scheme_name()
    }

    fn cycle_len(&self) -> Ticks {
        // Channels are not harmonically related in general, so the group
        // has no common period; the longest per-channel cycle is the
        // back-off unit.
        self.channels
            .iter()
            .map(|c| c.channel().cycle_len())
            .max()
            .unwrap_or(0)
    }

    fn num_buckets(&self) -> usize {
        self.channels
            .iter()
            .map(|c| c.channel().num_buckets())
            .sum()
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
        if observed {
            Box::new(StripedSlot::<_, SpanRecorder>::new(self, channel, policy))
        } else {
            Box::new(StripedSlot::<_, NoopRecorder>::new(self, channel, policy))
        }
    }
}

// ---------------------------------------------------------------------------
// Indexed groups: a cross-channel directory on channel 0.
// ---------------------------------------------------------------------------

/// Bucket payloads of an indexed channel group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupPayload {
    /// Channel-0 root bucket: one `(first key, directory offset)` entry
    /// per directory bucket in this root's block.
    Root {
        /// `(first key of the directory bucket's range, channel-0 cycle
        /// offset of that directory bucket)`, sorted by key.
        entries: Vec<(u64, Ticks)>,
        /// First key of the *next* root bucket's first entry, if any — a
        /// scanning client stops at the root where the key is below this.
        next_first: Option<u64>,
        /// Ticks from this bucket's end to the next occurrence of root
        /// bucket 0 (the published resynchronization offset).
        to_root: Ticks,
    },
    /// Channel-0 directory bucket: exact key → cross-channel data-bucket
    /// address.
    Dir {
        /// `(key, data-bucket address)`, sorted by key.
        entries: Vec<(u64, BucketRef)>,
        /// First key of the next directory bucket's range, if any — a key
        /// inside `[entries[0].0, next_first)` that is not listed is
        /// *provably absent*, answered not-found from the air.
        next_first: Option<u64>,
        /// Ticks from this bucket's end to the next occurrence of root
        /// bucket 0.
        to_root: Ticks,
    },
    /// Data bucket on channels `1..K`: one record.
    Data {
        /// The record's primary key.
        key: u64,
    },
}

/// An indexed channel group: a two-level directory on channel 0 whose
/// leaves point across channels at data buckets striped over `1..K`.
///
/// Channel 0's cycle is `[root_0 .. root_{R-1}, dir_0 .. dir_{D-1}]` with
/// `D = ⌈n / fanout⌉` and `R = ⌈D / fanout⌉` (fanout =
/// [`Params::index_entries_per_bucket`], scale-invariant). The program is
/// frozen — the dynamic/churn path applies to striped groups, whose
/// channels are self-contained programs.
pub struct IndexedGroupScheme {
    config: GroupConfig,
    placement: Option<Vec<(u32, u32)>>,
}

impl IndexedGroupScheme {
    /// An indexed group over `config.channels` total channels (≥ 2: one
    /// index channel plus at least one data channel), data striped evenly
    /// and contiguously over channels `1..K`.
    pub fn new(config: GroupConfig) -> Result<Self> {
        if config.channels < 2 {
            return Err(BdaError::BadParams(
                "an indexed group needs an index channel plus at least one data channel".into(),
            ));
        }
        Ok(IndexedGroupScheme {
            config,
            placement: None,
        })
    }

    /// An indexed group with an explicit per-record `(channel, slot)`
    /// placement (the air-time allocator's output): `placement[i]` locates
    /// record `i` of the key-sorted dataset, channels in `1..config.channels`,
    /// and each channel's slots must be exactly `0..n_d`.
    pub fn with_placement(config: GroupConfig, placement: Vec<(u32, u32)>) -> Result<Self> {
        let mut s = IndexedGroupScheme::new(config)?;
        s.placement = Some(placement);
        Ok(s)
    }

    /// Lay out the group.
    pub fn build(&self, dataset: &Dataset, params: &Params) -> Result<IndexedGroupSystem> {
        if dataset.is_empty() {
            return Err(BdaError::BadParams("cannot index an empty dataset".into()));
        }
        let n = dataset.len();
        let total = self.config.channels as usize;
        let data_channels = total - 1;
        let scaled = params.scaled(self.config.channels);
        scaled.validate()?;
        let bs = Ticks::from(scaled.data_bucket_size());

        // Per-record (channel, slot) placement: allocator-provided or
        // contiguous even striping over the data channels.
        let placement: Vec<(u32, u32)> = match &self.placement {
            Some(p) => {
                if p.len() != n {
                    return Err(BdaError::BadParams(format!(
                        "placement has {} entries for {} records",
                        p.len(),
                        n
                    )));
                }
                p.clone()
            }
            None => {
                let sizes = even_partition(n, data_channels.min(n));
                let mut p = Vec::with_capacity(n);
                for (d, &len) in sizes.iter().enumerate() {
                    for slot in 0..len {
                        p.push((d as u32 + 1, slot as u32));
                    }
                }
                p
            }
        };

        // Validate the placement is a per-channel permutation and build
        // the data channels.
        let mut slots: Vec<Vec<Option<u64>>> = vec![Vec::new(); data_channels];
        for (i, &(ch, slot)) in placement.iter().enumerate() {
            if ch == 0 || ch as usize >= total {
                return Err(BdaError::BadParams(format!(
                    "record {i} placed on channel {ch} outside 1..{total}"
                )));
            }
            let lane = &mut slots[ch as usize - 1];
            let slot = slot as usize;
            if lane.len() <= slot {
                lane.resize(slot + 1, None);
            }
            if lane[slot].is_some() {
                return Err(BdaError::BadParams(format!(
                    "two records placed at channel {ch} slot {slot}"
                )));
            }
            lane[slot] = Some(dataset.record(i).key.0);
        }
        let mut data = Vec::with_capacity(data_channels);
        for (d, lane) in slots.into_iter().enumerate() {
            if lane.is_empty() {
                return Err(BdaError::BadParams(format!(
                    "data channel {} carries no records",
                    d + 1
                )));
            }
            let buckets: Result<Vec<Bucket<GroupPayload>>> = lane
                .into_iter()
                .enumerate()
                .map(|(slot, key)| match key {
                    Some(key) => Ok(Bucket::new(
                        scaled.data_bucket_size(),
                        GroupPayload::Data { key },
                    )),
                    None => Err(BdaError::BadParams(format!(
                        "channel {} slot {slot} left empty by placement",
                        d + 1
                    ))),
                })
                .collect();
            data.push(Channel::new(buckets?)?);
        }

        // Directory buckets: fanout keys each, entries pointing across
        // channels at the records' placed buckets.
        let fanout = scaled.index_entries_per_bucket();
        let dirs = n.div_ceil(fanout);
        let roots = dirs.div_ceil(fanout);
        let cycle0 = (roots + dirs) as Ticks * bs;
        let dir_first = |j: usize| dataset.record(j * fanout).key.0;
        let mut buckets = Vec::with_capacity(roots + dirs);
        for r in 0..roots {
            let blk_lo = r * fanout;
            let blk_hi = ((r + 1) * fanout).min(dirs);
            let entries = (blk_lo..blk_hi)
                .map(|j| (dir_first(j), (roots + j) as Ticks * bs))
                .collect();
            let next_first = (blk_hi < dirs).then(|| dir_first(blk_hi));
            let end = (r + 1) as Ticks * bs;
            buckets.push(Bucket::new(
                scaled.data_bucket_size(),
                GroupPayload::Root {
                    entries,
                    next_first,
                    to_root: cycle0 - end,
                },
            ));
        }
        for j in 0..dirs {
            let lo = j * fanout;
            let hi = ((j + 1) * fanout).min(n);
            let entries = (lo..hi)
                .map(|i| {
                    let (ch, slot) = placement[i];
                    (
                        dataset.record(i).key.0,
                        BucketRef {
                            channel: ch,
                            offset: Ticks::from(slot) * bs,
                        },
                    )
                })
                .collect();
            let next_first = (hi < n).then(|| dataset.record(hi).key.0);
            let end = (roots + j + 1) as Ticks * bs;
            buckets.push(Bucket::new(
                scaled.data_bucket_size(),
                GroupPayload::Dir {
                    entries,
                    next_first,
                    to_root: cycle0 - end,
                },
            ));
        }
        Ok(IndexedGroupSystem {
            index: Channel::new(buckets)?,
            data,
            config: self.config,
            bucket_size: bs,
            num_roots: roots,
        })
    }
}

/// A built indexed channel group.
pub struct IndexedGroupSystem {
    index: Channel<GroupPayload>,
    data: Vec<Channel<GroupPayload>>,
    config: GroupConfig,
    bucket_size: Ticks,
    num_roots: usize,
}

impl IndexedGroupSystem {
    /// The index channel (channel 0).
    pub fn index(&self) -> &Channel<GroupPayload> {
        &self.index
    }

    /// Data channel `d` (group channel `d + 1`).
    pub fn data_channel(&self, d: usize) -> &Channel<GroupPayload> {
        &self.data[d]
    }

    /// Total channels in the group (index included).
    pub fn num_channels(&self) -> usize {
        self.data.len() + 1
    }

    /// The group shape this system was built with.
    pub fn config(&self) -> GroupConfig {
        self.config
    }

    /// Uniform on-air bucket size of every channel, in ticks.
    pub fn bucket_size(&self) -> Ticks {
        self.bucket_size
    }

    /// Number of root buckets at the head of channel 0's cycle.
    pub fn num_roots(&self) -> usize {
        self.num_roots
    }

    /// Where `key`'s record airs, per the directory — `None` for absent
    /// keys. Layout tests pin this against the placement.
    pub fn bucket_ref(&self, key: Key) -> Option<BucketRef> {
        self.index.buckets().iter().find_map(|b| match &b.payload {
            GroupPayload::Dir { entries, .. } => entries
                .binary_search_by_key(&key.0, |e| e.0)
                .ok()
                .map(|i| entries[i].1),
            _ => None,
        })
    }
}

/// What the group walk is about to do.
#[derive(Clone, Copy)]
enum GroupPending {
    /// Tune to channel 0 at (or after) `at` and read the next complete
    /// index bucket.
    Probe { at: Ticks },
    /// Read bucket `idx` of channel `ch` at its occurrence starting
    /// `start`.
    ReadAt { ch: u32, idx: usize, start: Ticks },
    /// Retune to the data channel holding `dref`.
    Switch { dref: BucketRef },
    /// Finished.
    Finished(AccessOutcome),
}

/// The single client protocol of an [`IndexedGroupSystem`], used verbatim
/// by every execution driver (probe, stepping run, slot) — cross-driver
/// bit-identity holds by construction.
///
/// Protocol: probe channel 0, resynchronize to the root block, scan roots
/// forward to the directory bucket covering the key, read it, then either
/// answer not-found from the air or retune (paying
/// [`GroupConfig::switch_cost`]) to the data channel and read the record
/// at its next occurrence — forward-only at every hop. Corrupted reads
/// consult the [`RetryPolicy`] exactly like the single-channel walker:
/// recovery dozes are whole cycles of the *current* channel, outage
/// streaks escalate the back-off, and exhausted budgets abandon
/// truthfully.
pub struct GroupWalk<'a> {
    system: &'a IndexedGroupSystem,
    key: Key,
    tune_in: Ticks,
    base: ChannelModel,
    policy: RetryPolicy,
    now: Ticks,
    pending: GroupPending,
    spans: PhaseSpans,
    tuning: Ticks,
    probes: u32,
    retries: u32,
    streak: u32,
    first_read: bool,
    budget: u32,
}

impl<'a> GroupWalk<'a> {
    /// A walk for `key` tuning in at `tune_in` behind `base` faults
    /// (channel `g`'s view is [`channel_model_for`]`(base, g)`).
    pub fn new(
        system: &'a IndexedGroupSystem,
        key: Key,
        tune_in: Ticks,
        base: ChannelModel,
        policy: RetryPolicy,
    ) -> Self {
        // Same budget discipline as the single-channel walker: linear in
        // the program size, scaled for loss and outages, so a protocol
        // bug aborts instead of spinning forever.
        let num_buckets = system.index.num_buckets()
            + system.data.iter().map(Channel::num_buckets).sum::<usize>();
        let mut budget = (num_buckets as u32).saturating_mul(4).saturating_add(64);
        let worst = base.worst_loss();
        if worst > 0.0 {
            let factor = (1.0 / (1.0 - worst.min(0.99))).ceil() as u32 + 4;
            budget = budget.saturating_mul(factor);
        }
        if base.has_outages() {
            budget = budget.saturating_mul(4).saturating_add(256);
        }
        GroupWalk {
            system,
            key,
            tune_in,
            base,
            policy,
            now: tune_in,
            pending: GroupPending::Probe { at: tune_in },
            spans: PhaseSpans::new(),
            tuning: 0,
            probes: 0,
            retries: 0,
            streak: 0,
            first_read: true,
            budget,
        }
    }

    /// Whether the walk has completed.
    pub fn is_done(&self) -> bool {
        matches!(self.pending, GroupPending::Finished(_))
    }

    /// The per-phase span decomposition recorded so far (always on — the
    /// group walk's accounting is cheap enough to never switch off).
    pub fn spans(&self) -> &PhaseSpans {
        &self.spans
    }

    fn channel_of(&self, ch: u32) -> &'a Channel<GroupPayload> {
        if ch == 0 {
            &self.system.index
        } else {
            &self.system.data[ch as usize - 1]
        }
    }

    /// Seal the walk's outcome; the next [`QueryRun::step`] reports it.
    fn complete(&mut self, found: bool, abandoned: bool, aborted: bool) {
        let out = AccessOutcome {
            found,
            access: self.now - self.tune_in,
            tuning: self.tuning,
            probes: self.probes,
            false_drops: 0,
            retries: self.retries,
            abandoned,
            aborted,
            stale_restarts: 0,
            version_skews: 0,
        };
        self.pending = GroupPending::Finished(out);
    }

    /// Handle a corrupted read of bucket `idx` on channel `ch` (the
    /// transmission started at `start` and ended at `self.now`): pay the
    /// retry, consult the policy, and either abandon or schedule the
    /// recovery re-read.
    fn recover(&mut self, ch: u32, idx: usize, start: Ticks, probe: bool) {
        self.retries += 1;
        self.streak += 1;
        if self.policy.gives_up(self.retries, self.now - self.tune_in) {
            self.complete(false, true, false);
            return;
        }
        let chan = self.channel_of(ch);
        let in_outage = channel_model_for(self.base, ch).in_outage(start);
        let cycles = self.policy.recovery_cycles(self.streak, in_outage);
        let wake = self
            .now
            .saturating_add(Ticks::from(cycles).saturating_mul(chan.cycle_len()));
        self.pending = if probe {
            GroupPending::Probe { at: wake }
        } else {
            GroupPending::ReadAt {
                ch,
                idx,
                start: chan.occurrence_at_or_after(idx, wake),
            }
        };
    }

    /// Dispatch a cleanly read channel-0 bucket: set the next pending
    /// action (possibly sealing the outcome). `idx` is its index in the
    /// cycle; `end` the absolute read end.
    fn dispatch_index(&mut self, idx: usize, end: Ticks) {
        let key = self.key.0;
        let system = self.system;
        match &system.index.bucket(idx).payload {
            GroupPayload::Root {
                entries,
                next_first,
                to_root,
            } => {
                if let Some(nf) = next_first {
                    if key >= *nf {
                        // Target directory lives under a later root:
                        // roots are contiguous, keep listening.
                        self.pending = GroupPending::ReadAt {
                            ch: 0,
                            idx: idx + 1,
                            start: end,
                        };
                        return;
                    }
                }
                if idx > 0 && entries.first().is_some_and(|e| key < e.0) {
                    // Landed mid-root-block on a root that starts above
                    // the key: resynchronize to the next root block.
                    self.pending = GroupPending::Probe {
                        at: end.saturating_add(*to_root),
                    };
                    return;
                }
                // Last entry with first-key ≤ key covers the target
                // (everything below the very first entry falls into
                // directory bucket 0 and is answered absent there).
                let pos = entries.partition_point(|e| e.0 <= key).saturating_sub(1);
                let dir_off = entries[pos].1;
                let dir_idx = (dir_off / self.system.bucket_size) as usize;
                self.pending = GroupPending::ReadAt {
                    ch: 0,
                    idx: dir_idx,
                    start: self.system.index.occurrence_at_or_after(dir_idx, end),
                };
            }
            GroupPayload::Dir {
                entries,
                next_first,
                to_root,
            } => {
                let covers = (entries.first().is_some_and(|e| e.0 <= key)
                    && next_first.map_or(true, |nf| key < nf))
                    || (idx == self.system.num_roots && key < entries[0].0);
                if !covers {
                    // A directory bucket we were not steered to (initial
                    // probe landed here): resynchronize to the roots.
                    self.pending = GroupPending::Probe {
                        at: end.saturating_add(*to_root),
                    };
                    return;
                }
                match entries.binary_search_by_key(&key, |e| e.0) {
                    Ok(i) => {
                        self.pending = GroupPending::Switch { dref: entries[i].1 };
                    }
                    // Provably absent: the covering directory bucket does
                    // not list the key.
                    Err(_) => self.complete(false, false, false),
                }
            }
            GroupPayload::Data { .. } => self.complete(false, false, true),
        }
    }
}

impl QueryRun for GroupWalk<'_> {
    fn step(&mut self) -> WalkStep {
        loop {
            match self.pending {
                GroupPending::Finished(out) => return WalkStep::Done(out),
                GroupPending::Probe { at } => {
                    if at > self.now {
                        self.spans.add(Phase::Doze, at - self.now, 0);
                        self.now = at;
                        return WalkStep::Doze { until: at };
                    }
                    if self.probes.saturating_add(self.retries) >= self.budget {
                        self.complete(false, false, true);
                        continue;
                    }
                    let (idx, start) = self.system.index.first_complete_at(self.now);
                    let Some(end) = start.checked_add(self.system.bucket_size) else {
                        // The clock would pass `Ticks::MAX`: give up.
                        self.complete(false, true, false);
                        continue;
                    };
                    let from = self.now;
                    let listened = end - from;
                    self.tuning += listened;
                    self.now = end;
                    if channel_model_for(self.base, 0).corrupted(start) {
                        self.spans.add(Phase::Retry, listened, listened);
                        self.recover(0, idx, start, true);
                    } else {
                        self.streak = 0;
                        self.probes += 1;
                        let phase = if self.first_read {
                            Phase::InitialProbe
                        } else {
                            Phase::IndexTraversal
                        };
                        self.first_read = false;
                        self.spans.add(phase, listened, listened);
                        self.dispatch_index(idx, end);
                    }
                    return WalkStep::Read {
                        bucket: idx,
                        from,
                        until: end,
                    };
                }
                GroupPending::ReadAt { ch, idx, start } => {
                    if start > self.now {
                        self.spans.add(Phase::Doze, start - self.now, 0);
                        self.now = start;
                        return WalkStep::Doze { until: start };
                    }
                    if self.probes.saturating_add(self.retries) >= self.budget {
                        self.complete(false, false, true);
                        continue;
                    }
                    let chan = self.channel_of(ch);
                    let Some(end) = start.checked_add(self.system.bucket_size) else {
                        self.complete(false, true, false);
                        continue;
                    };
                    let from = self.now;
                    let listened = end - from;
                    self.tuning += listened;
                    self.now = end;
                    self.first_read = false;
                    if channel_model_for(self.base, ch).corrupted(start) {
                        self.spans.add(Phase::Retry, listened, listened);
                        self.recover(ch, idx, start, false);
                    } else {
                        self.streak = 0;
                        self.probes += 1;
                        if ch == 0 {
                            self.spans.add(Phase::IndexTraversal, listened, listened);
                            self.dispatch_index(idx, end);
                        } else {
                            self.spans.add(Phase::DataRead, listened, listened);
                            match &chan.bucket(idx).payload {
                                GroupPayload::Data { key } if *key == self.key.0 => {
                                    self.complete(true, false, false);
                                }
                                // The directory pointed at a bucket that
                                // does not carry the key: a layout bug,
                                // reported as an abort, never a silent
                                // wrong answer.
                                _ => self.complete(false, false, true),
                            }
                        }
                    }
                    return WalkStep::Read {
                        bucket: idx,
                        from,
                        until: end,
                    };
                }
                GroupPending::Switch { dref } => {
                    // A retune that would pass `Ticks::MAX` is cut short
                    // there; the read after it then gives up.
                    let sw = self.system.config.switch_cost.min(Ticks::MAX - self.now);
                    let chan = self.channel_of(dref.channel);
                    let idx = (dref.offset / self.system.bucket_size) as usize;
                    let arrive = self.now.saturating_add(sw);
                    self.pending = GroupPending::ReadAt {
                        ch: dref.channel,
                        idx,
                        start: chan.occurrence_at_or_after(idx, arrive),
                    };
                    if sw > 0 {
                        self.spans.add(Phase::ChannelSwitch, sw, 0);
                        self.now = arrive;
                        return WalkStep::Doze { until: arrive };
                    }
                }
            }
        }
    }

    fn now(&self) -> Ticks {
        self.now
    }
}

/// The reusable [`QuerySlot`] of an indexed group: one [`GroupWalk`] per
/// query, re-armed in place. `observed` controls whether
/// [`QuerySlot::spans`] exposes the walk's (always recorded) spans.
pub struct GroupSlot<'a> {
    system: &'a IndexedGroupSystem,
    walk: Option<GroupWalk<'a>>,
    base: ChannelModel,
    policy: RetryPolicy,
    observed: bool,
}

impl<'a> GroupSlot<'a> {
    /// An empty slot; arm with [`QuerySlot::start`].
    pub fn new(
        system: &'a IndexedGroupSystem,
        base: ChannelModel,
        policy: RetryPolicy,
        observed: bool,
    ) -> Self {
        GroupSlot {
            system,
            walk: None,
            base,
            policy,
            observed,
        }
    }
}

impl QuerySlot for GroupSlot<'_> {
    fn start(&mut self, key: Key, tune_in: Ticks) {
        self.walk = Some(GroupWalk::new(
            self.system,
            key,
            tune_in,
            self.base,
            self.policy,
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
        self.walk.as_ref().map_or(true, GroupWalk::is_done)
    }

    fn spans(&self) -> Option<&PhaseSpans> {
        if self.observed {
            self.walk.as_ref().map(GroupWalk::spans)
        } else {
            None
        }
    }

    // Fast-forward stays a no-op: the group walk's step count is already
    // O(directory depth), not O(cycle length).
}

impl DynSystem for IndexedGroupSystem {
    fn scheme_name(&self) -> &'static str {
        "indexed-group"
    }

    fn cycle_len(&self) -> Ticks {
        self.data
            .iter()
            .map(Channel::cycle_len)
            .chain([self.index.cycle_len()])
            .max()
            .unwrap_or(0)
    }

    fn num_buckets(&self) -> usize {
        self.index.num_buckets() + self.data.iter().map(Channel::num_buckets).sum::<usize>()
    }

    fn probe_with_channel(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> AccessOutcome {
        drain(&mut GroupWalk::new(self, key, tune_in, channel, policy))
    }

    fn probe_recorded(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> (AccessOutcome, PhaseSpans) {
        let mut walk = GroupWalk::new(self, key, tune_in, channel, policy);
        (drain(&mut walk), *walk.spans())
    }

    fn begin(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Box<dyn QueryRun + '_> {
        Box::new(GroupWalk::new(self, key, tune_in, channel, policy))
    }

    fn make_slot(
        &self,
        channel: ChannelModel,
        policy: RetryPolicy,
        observed: bool,
    ) -> Box<dyn QuerySlot + '_> {
        Box::new(GroupSlot::new(self, channel, policy, observed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatScheme;
    use crate::machine::run_machine;
    use crate::record::Record;

    fn dataset(n: usize) -> Dataset {
        Dataset::new((0..n).map(|i| Record::keyed(i as u64 * 10)).collect()).unwrap()
    }

    #[test]
    fn even_partition_covers_everything() {
        for n in [1usize, 5, 8, 64, 100] {
            for k in [1usize, 2, 3, 4, 8] {
                if k > n {
                    continue;
                }
                let sizes = even_partition(n, k);
                assert_eq!(sizes.len(), k);
                assert_eq!(sizes.iter().sum::<usize>(), n);
                assert!(sizes.iter().all(|&s| s > 0));
                assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
            }
        }
    }

    #[test]
    fn remix_identity_on_home_channel_and_decorrelated_elsewhere() {
        assert_eq!(remix_seed(42, 0), 42);
        assert_ne!(remix_seed(42, 1), 42);
        assert_ne!(remix_seed(42, 1), remix_seed(42, 2));
        let base = ChannelModel::iid(ErrorModel::new(0.2, 7));
        assert_eq!(channel_model_for(base, 0), base);
        let derived = channel_model_for(base, 3);
        assert_eq!(derived.worst_loss(), base.worst_loss());
        assert_ne!(derived, base);
    }

    #[test]
    fn k1_striped_flat_probe_is_bit_identical() {
        let ds = dataset(16);
        let params = Params::paper();
        let single = FlatScheme.build(&ds, &params).unwrap();
        let striped = StripedScheme::new(FlatScheme, GroupConfig::SINGLE)
            .build(&ds, &params)
            .unwrap();
        for i in 0..16u64 {
            for t in [0u64, 100, 5_000, 123_456] {
                let key = Key(i * 10);
                assert_eq!(
                    DynSystem::probe(&single, key, t),
                    DynSystem::probe(&striped, key, t)
                );
            }
        }
        assert_eq!(
            DynSystem::cycle_len(&single),
            DynSystem::cycle_len(&striped)
        );
        assert_eq!(
            DynSystem::num_buckets(&single),
            DynSystem::num_buckets(&striped)
        );
    }

    #[test]
    fn striped_routing_and_switch_cost_are_exact() {
        let ds = dataset(16);
        let params = Params::paper();
        let cfg = GroupConfig::new(4, 1_000).unwrap();
        let sys = StripedScheme::new(FlatScheme, cfg)
            .build(&ds, &params)
            .unwrap();
        assert_eq!(sys.num_channels(), 4);
        // Slices of 4 records each: keys 0..30 on ch0, 40..70 on ch1, ...
        assert_eq!(sys.route(Key(0)), 0);
        assert_eq!(sys.route(Key(35)), 0, "absent key clamps to covering slice");
        assert_eq!(sys.route(Key(40)), 1);
        assert_eq!(sys.route(Key(150)), 3);
        assert_eq!(sys.route(Key(9_999)), 3);
        // A channel-0 query pays no switch; any other pays exactly 1000
        // more than the same walk started 1000 ticks later would alone.
        let home = sys.probe(Key(0), 0);
        assert_eq!(home.access, {
            let inner = sys.channel_system(0);
            run_machine(inner.channel(), inner.query(Key(0)), 0).access
        });
        let away = sys.probe(Key(40), 0);
        let inner = sys.channel_system(1);
        let raw = run_machine(inner.channel(), inner.query(Key(40)), 1_000);
        assert_eq!(away.access, raw.access + 1_000);
        assert_eq!(away.tuning, raw.tuning, "retuning radio is not listening");
    }

    #[test]
    fn striped_drivers_agree() {
        let ds = dataset(32);
        let params = Params::paper();
        let cfg = GroupConfig::new(4, 256).unwrap();
        let sys = StripedScheme::new(FlatScheme, cfg)
            .build(&ds, &params)
            .unwrap();
        let channel = ChannelModel::iid(ErrorModel::new(0.2, 11));
        let policy = RetryPolicy::bounded(4);
        let mut slot = sys.make_slot(channel, policy, false);
        let mut obs = sys.make_slot(channel, policy, true);
        for i in [0u64, 5, 13, 31] {
            for t in [0u64, 777, 44_000] {
                let key = Key(i * 10);
                let fast = sys.probe_with_channel(key, t, channel, policy);
                let mut run = sys.begin(key, t, channel, policy);
                assert_eq!(drain(run.as_mut()), fast);
                slot.start(key, t);
                let stepped = loop {
                    if let WalkStep::Done(out) = slot.step() {
                        break out;
                    }
                };
                assert_eq!(stepped, fast);
                obs.start(key, t);
                let observed = loop {
                    if let WalkStep::Done(out) = obs.step() {
                        break out;
                    }
                };
                assert_eq!(observed, fast);
                let spans = obs.spans().unwrap();
                assert_eq!(spans.total_access(), fast.access);
                assert_eq!(spans.total_tuning(), fast.tuning);
            }
        }
    }

    #[test]
    fn indexed_group_finds_every_record_and_rejects_absent_keys() {
        let ds = dataset(64);
        let params = Params::paper();
        let cfg = GroupConfig::new(4, 512).unwrap();
        let sys = IndexedGroupScheme::new(cfg)
            .unwrap()
            .build(&ds, &params)
            .unwrap();
        assert_eq!(sys.num_channels(), 4);
        for i in 0..64u64 {
            for t in [0u64, 1_234, 98_765] {
                let out = sys.probe(Key(i * 10), t);
                assert!(out.found, "key {} at t={t} not found", i * 10);
                assert!(!out.aborted);
                assert!(out.tuning <= out.access);
            }
        }
        for absent in [5u64, 315, 999, 100_000] {
            let out = sys.probe(Key(absent), 0);
            assert!(!out.found);
            assert!(!out.aborted, "absent key must be answered, not aborted");
        }
    }

    #[test]
    fn indexed_group_spans_are_exact_and_attribute_switches() {
        let ds = dataset(64);
        let cfg = GroupConfig::new(4, 512).unwrap();
        let sys = IndexedGroupScheme::new(cfg)
            .unwrap()
            .build(&ds, &Params::paper())
            .unwrap();
        let (out, spans) =
            sys.probe_recorded(Key(400), 7, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        assert!(out.found);
        assert_eq!(spans.total_access(), out.access);
        assert_eq!(spans.total_tuning(), out.tuning);
        let sw = spans.get(Phase::ChannelSwitch);
        assert_eq!(sw.access, 512, "exactly one retune on a lossless walk");
        assert_eq!(sw.tuning, 0);
    }

    #[test]
    fn indexed_group_drivers_agree_under_loss() {
        let ds = dataset(48);
        let cfg = GroupConfig::new(3, 200).unwrap();
        let sys = IndexedGroupScheme::new(cfg)
            .unwrap()
            .build(&ds, &Params::paper())
            .unwrap();
        let model = ChannelModel::iid(ErrorModel::new(0.15, 0xFA57));
        let policy = RetryPolicy::bounded(6);
        let mut slot = sys.make_slot(model, policy, false);
        for i in [0u64, 7, 23, 47] {
            for t in [0u64, 31_337] {
                let key = Key(i * 10);
                let fast = sys.probe_with_channel(key, t, model, policy);
                let mut run = sys.begin(key, t, model, policy);
                assert_eq!(drain(run.as_mut()), fast);
                slot.start(key, t);
                let stepped = loop {
                    if let WalkStep::Done(out) = slot.step() {
                        break out;
                    }
                };
                assert_eq!(stepped, fast);
            }
        }
    }

    #[test]
    fn bucket_refs_point_at_the_placed_records() {
        let ds = dataset(40);
        let cfg = GroupConfig::new(5, 0).unwrap();
        let sys = IndexedGroupScheme::new(cfg)
            .unwrap()
            .build(&ds, &Params::paper())
            .unwrap();
        for i in 0..40usize {
            let r = sys.bucket_ref(Key(i as u64 * 10)).unwrap();
            assert!(r.channel >= 1 && r.channel <= 4);
            let idx = (r.offset / sys.bucket_size()) as usize;
            match &sys.data_channel(r.channel as usize - 1).bucket(idx).payload {
                GroupPayload::Data { key } => assert_eq!(*key, i as u64 * 10),
                p => panic!("ref points at non-data payload {p:?}"),
            }
        }
        assert_eq!(sys.bucket_ref(Key(5)), None);
    }
}
