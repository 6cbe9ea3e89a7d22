//! Sharded multi-core execution of the slab engine.
//!
//! A single [`Engine`] run is inherently sequential: one wakeup scheduler,
//! one slab arena, one thread. But clients of a broadcast channel never
//! interact — the broadcast program is immutable within a run
//! ([`bda_core::DynSystem`] is `Sync`; a
//! [`crate::server::VersionedServer`]'s epoch timeline is built once and
//! only read afterwards), every request's fault RNG is seeded from the
//! request itself, and each walk touches nothing but its own slot. So a
//! request batch can be **partitioned by request index across `N` worker
//! shards**, each shard owning a private slab arena, free list and
//! bucket-aligned wakeup scheduler over the *shared read-only program*,
//! and the per-request outcomes are exactly what the single engine would
//! have produced.
//!
//! # Deterministic merge
//!
//! Each shard returns its completions in submission order; the merge
//! scatters shard `s`'s `j`-th completion back to request index
//! `s + j·N` (round-robin partition), so the merged vector is in request
//! order — **bit-identical to a single [`Engine::run_batch`] for every
//! shard count**, including under fault injection, bounded retries and
//! broadcast churn. Aggregated statistics merge exactly too:
//!
//! * [`EngineStats`] counters sum ([`EngineStats::merge`]); the
//!   per-request projection ([`EngineStats::outcome_counters`]) is
//!   invariant under sharding.
//! * [`MetricsHub`]s fold via the mergeable-histogram API: histogram bins
//!   share one fixed layout, so the merged access/tuning/retry-depth
//!   distributions (and their percentiles) equal the single-engine ones
//!   bin for bin. Only the engine occupancy *gauges* are scheduler-shaped
//!   and keep per-shard sampling grids.
//!
//! The `engine_sharded_equiv` suite pins all of this across shard counts
//! {1, 2, 3, 7, #cores} × all eight schemes × {lossless, lossy, churn},
//! plus arbitrary (non-round-robin) partitions by property test.

use std::time::Instant;

use bda_core::{ChannelModel, DynSystem, Key, RetryPolicy, Ticks};
use bda_obs::{MetricsHub, WindowSpec};

use crate::engine::{CompletedRequest, Engine, EngineStats};

/// Wall-clock accounting for one shard's share of the most recent batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardRun {
    /// Shard index (0-based).
    pub shard: usize,
    /// Requests this shard executed in the batch.
    pub requests: u64,
    /// Walker steps this shard processed in the batch.
    pub events: u64,
    /// Wall-clock seconds the shard's worker spent in `run_batch`.
    pub elapsed_sec: f64,
}

impl ShardRun {
    /// This shard's throughput over the batch (requests per wall-clock
    /// second; 0 when nothing ran).
    pub fn requests_per_sec(&self) -> f64 {
        if self.elapsed_sec > 0.0 {
            self.requests as f64 / self.elapsed_sec
        } else {
            0.0
        }
    }
}

/// `N` independent slab engines over one shared broadcast program.
///
/// Construction is cheap (arenas fill lazily); like [`Engine`], a
/// `ShardedEngine` is reusable across batches and its arenas persist, so
/// repeated rounds run allocation-free after warm-up. With `shards == 1`
/// everything runs inline on the caller's thread — no threads are
/// spawned, making the 1-shard configuration literally the single
/// engine.
pub struct ShardedEngine<'a> {
    shards: Vec<Engine<'a>>,
    last_runs: Vec<ShardRun>,
    last_merge_sec: f64,
}

impl<'a> ShardedEngine<'a> {
    /// A sharded engine over a lossless channel.
    pub fn new(system: &'a dyn DynSystem, shards: usize) -> Self {
        ShardedEngine::with_channel(system, shards, ChannelModel::NONE, RetryPolicy::UNBOUNDED)
    }

    /// A sharded engine whose clients all experience `channel` (i.i.d. or
    /// burst loss, outage windows, or none) and recover per `policy` —
    /// still bit-identical across shard counts, because corruption and
    /// outages are pure functions of bucket instant + seed.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_channel(
        system: &'a dyn DynSystem,
        shards: usize,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Self {
        assert!(shards >= 1, "a sharded engine needs at least one shard");
        ShardedEngine {
            shards: (0..shards)
                .map(|_| Engine::with_channel(system, channel, policy))
                .collect(),
            last_runs: Vec::new(),
            last_merge_sec: 0.0,
        }
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Enable or disable analytical fast-forward on every shard (on by
    /// default; see [`Engine::set_fast_forward`]). Outcomes, accounting
    /// and merged metrics are identical either way — only event counts
    /// change.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        for e in &mut self.shards {
            e.set_fast_forward(enabled);
        }
    }

    /// Turn on metrics collection on every shard. Same idle-arena
    /// requirement as [`Engine::enable_metrics`].
    pub fn enable_metrics(&mut self) {
        for e in &mut self.shards {
            e.enable_metrics();
        }
    }

    /// Turn on time-resolved metrics collection on every shard: each
    /// shard's hub carries a windowed time series with the same `spec`,
    /// so [`ShardedEngine::take_metrics`] merges them window-by-window
    /// (the per-window outcome counters are invariant under sharding) and
    /// [`ShardedEngine::take_shard_metrics`] exposes per-shard busy/idle
    /// tick attribution for load-imbalance analysis.
    pub fn enable_metrics_windowed(&mut self, spec: WindowSpec) {
        for e in &mut self.shards {
            e.enable_metrics_windowed(spec);
        }
    }

    /// Detach and deterministically merge the per-shard metrics hubs (in
    /// shard order), disabling further collection. The merged histograms,
    /// spans and counters are bit-identical to a single-engine observed
    /// run of the same batches; the occupancy gauges keep per-shard
    /// sampling grids (merged via the order-tagged gauge merge).
    pub fn take_metrics(&mut self) -> Option<MetricsHub> {
        MetricsHub::merged(self.take_shard_metrics())
    }

    /// Detach the per-shard metrics hubs **unmerged**, in shard order,
    /// disabling further collection. Shards that never had metrics
    /// enabled are skipped. This is the load-attribution surface: each
    /// hub's windowed time series carries that shard's own busy ticks,
    /// wake batches and in-flight high-water per window.
    pub fn take_shard_metrics(&mut self) -> Vec<MetricsHub> {
        self.shards
            .iter_mut()
            .filter_map(Engine::take_metrics)
            .collect()
    }

    /// Counters accumulated over everything this engine has run, merged
    /// across shards (see [`EngineStats::merge`] for the semantics of
    /// each field under merging).
    pub fn stats(&self) -> EngineStats {
        let mut merged = EngineStats::default();
        for e in &self.shards {
            merged.merge(&e.stats());
        }
        merged
    }

    /// Per-shard cumulative counters, in shard order.
    pub fn shard_stats(&self) -> Vec<EngineStats> {
        self.shards.iter().map(Engine::stats).collect()
    }

    /// Wall-clock accounting of the most recent [`ShardedEngine::run_batch`],
    /// one entry per shard — the per-shard throughput the bench harness
    /// exports.
    pub fn last_runs(&self) -> &[ShardRun] {
        &self.last_runs
    }

    /// Wall-clock seconds the most recent [`ShardedEngine::run_batch`]
    /// spent scattering shard completions back to request order — the
    /// merge-side overhead of sharding (0 on the 1-shard inline path,
    /// where no scatter happens).
    pub fn last_merge_sec(&self) -> f64 {
        self.last_merge_sec
    }

    /// Run a batch of `(arrival, key)` requests to completion, returning
    /// outcomes **in request order** — bit-identical to
    /// [`Engine::run_batch`] on a single engine, for every shard count.
    ///
    /// Requests are partitioned round-robin by index (shard `s` owns
    /// indices `i ≡ s mod N`), each shard runs its share on its own
    /// thread (`std::thread::scope`), and completions scatter back to
    /// their original indices.
    pub fn run_batch(&mut self, requests: &[(Ticks, Key)]) -> Vec<CompletedRequest> {
        let n = self.shards.len();
        if n == 1 {
            let engine = &mut self.shards[0];
            let events_before = engine.stats().events;
            let start = Instant::now();
            let done = engine.run_batch(requests);
            self.last_runs = vec![ShardRun {
                shard: 0,
                requests: requests.len() as u64,
                events: engine.stats().events - events_before,
                elapsed_sec: start.elapsed().as_secs_f64(),
            }];
            self.last_merge_sec = 0.0;
            return done;
        }

        // Round-robin partition: balanced within ±1 request and, because
        // request streams are typically time-ordered, each shard sees the
        // same arrival-time profile.
        let mut parts: Vec<Vec<(Ticks, Key)>> = (0..n)
            .map(|_| Vec::with_capacity(requests.len() / n + 1))
            .collect();
        for (i, &r) in requests.iter().enumerate() {
            parts[i % n].push(r);
        }

        let mut results: Vec<Option<CompletedRequest>> = vec![None; requests.len()];
        let mut runs = vec![ShardRun::default(); n];
        let mut merge_sec = 0.0;
        std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .shards
                .iter_mut()
                .zip(&parts)
                .enumerate()
                .map(|(s, (engine, part))| {
                    scope.spawn(move || {
                        let events_before = engine.stats().events;
                        let start = Instant::now();
                        let done = engine.run_batch(part);
                        let elapsed = start.elapsed().as_secs_f64();
                        (s, done, engine.stats().events - events_before, elapsed)
                    })
                })
                .collect();
            for worker in workers {
                let (s, done, events, elapsed) = worker.join().expect("shard worker panicked");
                runs[s] = ShardRun {
                    shard: s,
                    requests: done.len() as u64,
                    events,
                    elapsed_sec: elapsed,
                };
                let scatter_start = Instant::now();
                for (j, r) in done.into_iter().enumerate() {
                    results[s + j * n] = Some(r);
                }
                merge_sec += scatter_start.elapsed().as_secs_f64();
            }
        });
        self.last_merge_sec = merge_sec;
        self.last_runs = runs;
        results
            .into_iter()
            .map(|r| r.expect("engine invariant: every admitted request completes"))
            .collect()
    }
}

/// Run a batch under an **arbitrary** request→shard assignment
/// (`assignment[i]` names the shard executing request `i`; ids need not
/// be contiguous or dense) and merge back to request order.
///
/// This is the generality proof behind the round-robin fast path: merge
/// correctness depends only on per-request independence, not on how the
/// batch was cut. Shards here execute sequentially — the property suite
/// uses this to check that *any* partition reproduces the unsharded
/// outcomes, independent of thread interleaving.
pub fn run_requests_partitioned(
    system: &dyn DynSystem,
    requests: &[(Ticks, Key)],
    assignment: &[usize],
    channel: ChannelModel,
    policy: RetryPolicy,
) -> Vec<CompletedRequest> {
    assert_eq!(requests.len(), assignment.len(), "one shard id per request");
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &s) in assignment.iter().enumerate() {
        groups.entry(s).or_default().push(i);
    }
    let mut results: Vec<Option<CompletedRequest>> = vec![None; requests.len()];
    for indices in groups.values() {
        let part: Vec<(Ticks, Key)> = indices.iter().map(|&i| requests[i]).collect();
        let done = Engine::with_channel(system, channel, policy).run_batch(&part);
        for (&i, r) in indices.iter().zip(done) {
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("engine invariant: every admitted request completes"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{Dataset, FlatScheme, Params, Record, Scheme};

    fn system() -> impl DynSystem {
        let ds = Dataset::new((0..32).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        FlatScheme.build(&ds, &Params::paper()).unwrap()
    }

    fn requests(n: u64) -> Vec<(Ticks, Key)> {
        (0..n)
            .map(|i| ((i * 613) % 9999, Key((i % 32) * 2)))
            .collect()
    }

    #[test]
    fn sharded_matches_single_for_every_count() {
        let sys = system();
        let reqs = requests(200);
        let single = Engine::new(&sys).run_batch(&reqs);
        for shards in [1, 2, 3, 5, 8] {
            let sharded = ShardedEngine::new(&sys, shards).run_batch(&reqs);
            assert_eq!(single, sharded, "shards={shards}");
        }
    }

    #[test]
    fn merged_stats_project_to_single_engine_counters() {
        let sys = system();
        let reqs = requests(150);
        let mut single = Engine::new(&sys);
        single.run_batch(&reqs);
        for shards in [1, 2, 4] {
            let mut engine = ShardedEngine::new(&sys, shards);
            engine.run_batch(&reqs);
            assert_eq!(
                engine.stats().outcome_counters(),
                single.stats().outcome_counters(),
                "shards={shards}"
            );
            let runs = engine.last_runs();
            assert_eq!(runs.len(), shards);
            let total: u64 = runs.iter().map(|r| r.requests).sum();
            assert_eq!(total, reqs.len() as u64);
            let events: u64 = runs.iter().map(|r| r.events).sum();
            assert_eq!(events, single.stats().events);
        }
    }

    #[test]
    fn arenas_recycle_across_batches_per_shard() {
        let sys = system();
        let reqs = requests(120);
        let mut engine = ShardedEngine::new(&sys, 3);
        engine.run_batch(&reqs);
        let occupied: Vec<usize> = engine.shards.iter().map(Engine::arena_len).collect();
        engine.run_batch(&reqs);
        let again: Vec<usize> = engine.shards.iter().map(Engine::arena_len).collect();
        assert_eq!(
            occupied, again,
            "second identical batch must not grow arenas"
        );
        assert_eq!(engine.stats().completed, 240);
    }

    #[test]
    fn empty_batch_and_fewer_requests_than_shards() {
        let sys = system();
        assert!(ShardedEngine::new(&sys, 4).run_batch(&[]).is_empty());
        let reqs = requests(3);
        let single = Engine::new(&sys).run_batch(&reqs);
        assert_eq!(ShardedEngine::new(&sys, 8).run_batch(&reqs), single);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let sys = system();
        let _ = ShardedEngine::new(&sys, 0);
    }

    #[test]
    fn partitioned_with_sparse_ids_matches_unsharded() {
        let sys = system();
        let reqs = requests(90);
        let single = Engine::new(&sys).run_batch(&reqs);
        // Sparse, non-contiguous shard ids.
        let assignment: Vec<usize> = (0..reqs.len()).map(|i| (i * i + 7) % 11 * 3).collect();
        let merged = run_requests_partitioned(
            &sys,
            &reqs,
            &assignment,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
        );
        assert_eq!(single, merged);
    }
}
