//! Shard-count invariance suite — the contract of the sharded engine.
//!
//! For every shard count in {1, 2, 3, 7, #cores} and every scheme family,
//! `ShardedEngine::run_batch` must be **bit-identical** to the single-threaded
//! engine: per-request outcomes, the shard-invariant `EngineStats`
//! projection, the merged retry-depth histogram, and every merged
//! percentile — across a lossless channel, a 15 % error-prone channel
//! with bounded retries, and a 20 %-churn dynamic broadcast program.
//!
//! The property half drops the round-robin assumption entirely: an
//! *arbitrary* request→shard assignment, merged back to request order,
//! reproduces the unsharded result — merge correctness depends only on
//! per-request independence, not on how the batch was cut.

use bda_core::{
    ChannelModel, Dataset, DynSystem, ErrorModel, Key, Params, RetryPolicy, Scheme, Ticks,
};
use bda_datagen::DatasetBuilder;
use bda_sim::{run_requests_partitioned, Engine, ShardedEngine, UpdateSpec, VersionedServer};
use proptest::prelude::*;

/// 15 % loss — the suite's error-prone channel.
const LOSS: f64 = 0.15;
/// 20 % of records touched per cycle — the suite's churn rate.
const CHURN: f64 = 0.20;

/// The shard counts the issue pins: 1, 2, 3, 7 and however many cores the
/// host actually has (deduplicated — on a small host some coincide).
fn shard_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut counts = vec![1, 2, 3, 7, cores];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Frozen builds of all eight scheme families.
fn all_frozen(ds: &Dataset, p: &Params) -> Vec<Box<dyn DynSystem>> {
    vec![
        Box::new(bda_core::FlatScheme.build(ds, p).unwrap()),
        Box::new(bda_btree::OneMScheme::new().build(ds, p).unwrap()),
        Box::new(bda_btree::DistributedScheme::new().build(ds, p).unwrap()),
        Box::new(bda_hash::HashScheme::new().build(ds, p).unwrap()),
        Box::new(
            bda_signature::SimpleSignatureScheme::new()
                .build(ds, p)
                .unwrap(),
        ),
        Box::new(
            bda_signature::IntegratedSignatureScheme::new(8)
                .build(ds, p)
                .unwrap(),
        ),
        Box::new(
            bda_signature::MultiLevelSignatureScheme::new(8)
                .build(ds, p)
                .unwrap(),
        ),
        Box::new(bda_hybrid::HybridScheme::new().build(ds, p).unwrap()),
    ]
}

/// Build a churned [`VersionedServer`] for every scheme family and hand
/// each one (type-erased, with the air span covering all its epochs) to
/// `f`.
fn with_all_versioned(
    ds: &Dataset,
    p: &Params,
    spec: UpdateSpec,
    f: &mut dyn FnMut(&dyn DynSystem, Ticks),
) {
    fn one<Sch: Scheme>(
        scheme: Sch,
        ds: &Dataset,
        p: &Params,
        spec: UpdateSpec,
        f: &mut dyn FnMut(&dyn DynSystem, Ticks),
    ) where
        <Sch::System as bda_core::System>::Machine: 'static,
    {
        let server = VersionedServer::build(&scheme, ds, p, spec).unwrap();
        let span =
            server.timeline().epochs().last().map_or(0, |e| e.start) + 4 * server.cycle_len();
        f(&server, span);
    }
    one(bda_core::FlatScheme, ds, p, spec, f);
    one(bda_btree::OneMScheme::new(), ds, p, spec, f);
    one(bda_btree::DistributedScheme::new(), ds, p, spec, f);
    one(bda_hash::HashScheme::new(), ds, p, spec, f);
    one(bda_signature::SimpleSignatureScheme::new(), ds, p, spec, f);
    one(
        bda_signature::IntegratedSignatureScheme::new(8),
        ds,
        p,
        spec,
        f,
    );
    one(
        bda_signature::MultiLevelSignatureScheme::new(8),
        ds,
        p,
        spec,
        f,
    );
    one(bda_hybrid::HybridScheme::new(), ds, p, spec, f);
}

/// Deterministic request mix spreading arrivals over `span` bytes of air
/// time, present and absent keys interleaved, unsorted.
fn request_mix(ds: &Dataset, pool: &[Key], n: usize, span: Ticks) -> Vec<(Ticks, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    (0..n)
        .map(|i| {
            let t = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13;
            let key = if i % 6 == 0 {
                pool[i % pool.len()]
            } else {
                keys[(i * 37) % keys.len()]
            };
            (t % span.max(1), key)
        })
        .collect()
}

/// The fault modes the matrix sweeps: lossless with unbounded retries,
/// and 15 % loss with a bounded (2-retry) policy so abandonment paths are
/// exercised too.
fn fault_modes() -> [(ChannelModel, RetryPolicy); 2] {
    [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ChannelModel::iid(ErrorModel::new(LOSS, 0xFA57)),
            RetryPolicy::bounded(2),
        ),
    ]
}

/// Outcomes and the shard-invariant stats projection are bit-identical
/// for every shard count, on all eight frozen schemes, lossless and at
/// 15 % loss with bounded retries.
#[test]
fn outcomes_and_stats_invariant_across_shard_counts() {
    let (ds, pool) = DatasetBuilder::new(60, 0x5A4D)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for (channel, policy) in fault_modes() {
        for sys in all_frozen(&ds, &params) {
            let requests = request_mix(&ds, &pool, 90, 16 * sys.cycle_len());
            let mut single = Engine::with_channel(sys.as_ref(), channel, policy);
            let baseline = single.run_batch(&requests);
            for shards in shard_counts() {
                let mut engine = ShardedEngine::with_channel(sys.as_ref(), shards, channel, policy);
                let merged = engine.run_batch(&requests);
                assert_eq!(
                    baseline,
                    merged,
                    "{} outcomes drifted at {shards} shards (loss={})",
                    sys.scheme_name(),
                    channel.mean_loss()
                );
                assert_eq!(
                    single.stats().outcome_counters(),
                    engine.stats().outcome_counters(),
                    "{} stats drifted at {shards} shards",
                    sys.scheme_name()
                );
            }
        }
    }
}

/// The same invariance holds on a dynamic broadcast program at 20 %
/// churn — stale restarts and version skews included — with and without
/// loss on top.
#[test]
fn churned_programs_are_shard_invariant() {
    let (ds, pool) = DatasetBuilder::new(60, 0x0C0DE)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let spec = UpdateSpec {
        rate: CHURN,
        seed: 0xBEEF,
        horizon_cycles: 16,
    };
    for (channel, policy) in fault_modes() {
        with_all_versioned(&ds, &params, spec, &mut |server, span| {
            let requests = request_mix(&ds, &pool, 70, span);
            let baseline = Engine::with_channel(server, channel, policy).run_batch(&requests);
            let churn_engaged = baseline.iter().any(|r| r.outcome.version_skews > 0);
            assert!(
                churn_engaged,
                "{}: 20% churn must exercise the stale machinery",
                server.scheme_name()
            );
            for shards in shard_counts() {
                let merged = ShardedEngine::with_channel(server, shards, channel, policy)
                    .run_batch(&requests);
                assert_eq!(
                    baseline,
                    merged,
                    "{} churn outcomes drifted at {shards} shards (loss={})",
                    server.scheme_name(),
                    channel.mean_loss()
                );
            }
        });
    }
}

/// Merged observability is exact: per-shard hubs folded in shard order
/// reproduce the single-engine histograms bin for bin — so retry-depth
/// distributions, phase spans, completion counters and every percentile
/// match bit for bit. (Occupancy gauges are scheduler-shaped and
/// deliberately out of scope.)
#[test]
fn merged_metrics_histograms_and_percentiles_are_bit_identical() {
    let (ds, pool) = DatasetBuilder::new(60, 0x0B5)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let channel = ChannelModel::iid(ErrorModel::new(LOSS, 0x717));
    let policy = RetryPolicy::bounded(3);
    for sys in all_frozen(&ds, &params) {
        let requests = request_mix(&ds, &pool, 90, 16 * sys.cycle_len());
        let mut single = Engine::with_channel(sys.as_ref(), channel, policy);
        single.enable_metrics();
        let baseline = single.run_batch(&requests);
        let hub = single.take_metrics().unwrap();
        for shards in shard_counts() {
            let mut engine = ShardedEngine::with_channel(sys.as_ref(), shards, channel, policy);
            engine.enable_metrics();
            let merged = engine.run_batch(&requests);
            let sharded_hub = engine.take_metrics().unwrap();
            assert_eq!(baseline, merged, "{}", sys.scheme_name());
            let name = sys.scheme_name();
            assert_eq!(
                hub.spans, sharded_hub.spans,
                "{name} spans, {shards} shards"
            );
            assert_eq!(
                hub.access, sharded_hub.access,
                "{name} access histogram, {shards} shards"
            );
            assert_eq!(
                hub.tuning, sharded_hub.tuning,
                "{name} tuning histogram, {shards} shards"
            );
            assert_eq!(
                hub.retry_depth, sharded_hub.retry_depth,
                "{name} retry-depth histogram, {shards} shards"
            );
            assert_eq!(hub.completed, sharded_hub.completed);
            assert_eq!(hub.found, sharded_hub.found);
            assert_eq!(hub.abandoned, sharded_hub.abandoned);
            for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    hub.access.quantile(q),
                    sharded_hub.access.quantile(q),
                    "{name} access p{q}, {shards} shards"
                );
                assert_eq!(
                    hub.tuning.quantile(q),
                    sharded_hub.tuning.quantile(q),
                    "{name} tuning p{q}, {shards} shards"
                );
                assert_eq!(
                    hub.retry_depth.quantile(q),
                    sharded_hub.retry_depth.quantile(q),
                    "{name} retry p{q}, {shards} shards"
                );
            }
        }
    }
}

/// An arbitrary batch plus an arbitrary request→shard assignment: the
/// strategy yields unsorted collision-heavy arrivals, present/absent key
/// mixes, and shard ids drawn from a range wider than typical core counts
/// (so empty shards and singleton shards both occur).
fn arb_partitioned_batch() -> impl Strategy<Value = (Vec<(Ticks, Key)>, Vec<usize>, u64)> {
    (
        proptest::collection::vec(
            (
                0u64..5_000,
                any::<proptest::sample::Index>(),
                any::<bool>(),
                0usize..12,
            ),
            1..100,
        ),
        any::<u64>(),
    )
        .prop_map(|(raw, seed)| {
            let (ds, pool) = DatasetBuilder::new(40, seed)
                .build_with_absent_pool(8)
                .expect("dataset");
            let keys: Vec<Key> = ds.keys().collect();
            let mut reqs = Vec::with_capacity(raw.len());
            let mut assignment = Vec::with_capacity(raw.len());
            for (t, idx, present, shard) in raw {
                let key = if present {
                    keys[idx.index(keys.len())]
                } else {
                    pool[idx.index(pool.len())]
                };
                reqs.push((t, key));
                assignment.push(shard);
            }
            (reqs, assignment, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any partition of a request batch, merged back to request order,
    /// equals the unsharded run — lossless and under 15 % loss with
    /// bounded retries.
    #[test]
    fn arbitrary_partition_merges_to_unsharded_result(
        (requests, assignment, seed) in arb_partitioned_batch()
    ) {
        let (ds, _) = DatasetBuilder::new(40, seed)
            .build_with_absent_pool(8)
            .expect("dataset");
        let params = Params::paper();
        let systems: Vec<Box<dyn DynSystem>> = vec![
            Box::new(bda_hash::HashScheme::new().build(&ds, &params).unwrap()),
            Box::new(
                bda_btree::DistributedScheme::new()
                    .build(&ds, &params)
                    .unwrap(),
            ),
        ];
        for sys in &systems {
            for (channel, policy) in fault_modes() {
                let unsharded =
                    Engine::with_channel(sys.as_ref(), channel, policy).run_batch(&requests);
                let merged = run_requests_partitioned(
                    sys.as_ref(),
                    &requests,
                    &assignment,
                    channel,
                    policy,
                );
                prop_assert_eq!(
                    &unsharded,
                    &merged,
                    "{} (loss={})",
                    sys.scheme_name(),
                    channel.mean_loss()
                );
            }
        }
    }
}
