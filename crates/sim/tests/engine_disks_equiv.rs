//! Cross-driver equivalence on **broadcast-disk (stratified) programs**.
//!
//! The disk constructor changes the broadcast program's *shape* — hot
//! records repeat, index frames route to the next occurrence — but it must
//! not change the simulator contract: the slab engine, the naive reference
//! oracle, the sharded engine (every shard count), and the fast-forwarding
//! walker all agree bit-identically on every disk-capable scheme, across a
//! lossless channel, a 15 % error-prone channel with bounded retries, and
//! a 20 %-churn dynamic program. Observability (span sums, histograms,
//! percentiles) merges exactly too.

use bda_core::{
    ChannelModel, Dataset, DiskConfig, DiskScheme, DynSystem, ErrorModel, FlatDisksScheme, Key,
    Params, RetryPolicy, Scheme, Ticks,
};
use bda_datagen::DatasetBuilder;
use bda_signature::SimpleSignatureDisksScheme;
use bda_sim::engine::reference::run_requests_reference;
use bda_sim::{CompletedRequest, Engine, ShardedEngine, UpdateSpec, VersionedServer};

/// 15 % loss — the suite's error-prone channel.
const LOSS: f64 = 0.15;
/// 20 % of records touched per cycle — the suite's churn rate.
const CHURN: f64 = 0.20;
/// The stratification depth under test. (D = 1 bit-identity is pinned by
/// the property suite in `bda-core` and per-scheme wrapper tests.)
const DISKS: usize = 3;

/// Frozen builds of every disk-capable scheme family at `D = 3`: the two
/// interleaved scan layouts plus the chunked-navigation wrapper around
/// hashing and distributed indexing.
fn disk_systems(ds: &Dataset, p: &Params) -> Vec<Box<dyn DynSystem>> {
    let d = DiskConfig::new(DISKS);
    vec![
        Box::new(FlatDisksScheme::new(d).build(ds, p).unwrap()),
        Box::new(SimpleSignatureDisksScheme::new(d).build(ds, p).unwrap()),
        Box::new(
            DiskScheme::new(bda_hash::HashScheme::new(), d)
                .build(ds, p)
                .unwrap(),
        ),
        Box::new(
            DiskScheme::new(bda_btree::DistributedScheme::new(), d)
                .build(ds, p)
                .unwrap(),
        ),
    ]
}

/// Shard counts: 1, 2, 3, 7 and the host's core count, deduplicated.
fn shard_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut counts = vec![1, 2, 3, 7, cores];
    counts.sort_unstable();
    counts.dedup();
    counts
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

/// Lossless with unbounded retries, and 15 % loss with a bounded policy
/// so abandonment paths are exercised on stratified programs too.
fn fault_modes() -> [(ChannelModel, RetryPolicy); 2] {
    [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ChannelModel::iid(ErrorModel::new(LOSS, 0xFA57)),
            RetryPolicy::bounded(2),
        ),
    ]
}

/// Run a batch on a slab engine with fast-forward pinned on or off.
fn run_with_ff(
    sys: &dyn DynSystem,
    requests: &[(Ticks, Key)],
    channel: ChannelModel,
    policy: RetryPolicy,
    ff: bool,
) -> (Vec<CompletedRequest>, u64) {
    let mut engine = Engine::with_channel(sys, channel, policy);
    engine.set_fast_forward(ff);
    let done = engine.run_batch(requests);
    (done, engine.stats().events)
}

/// Slab engine ≡ reference oracle ≡ sharded engine (every shard count) on
/// all four disk-capable schemes, lossless and at 15 % loss — outcomes
/// and the shard-invariant stats projection both.
#[test]
fn disk_outcomes_agree_across_all_drivers_and_shard_counts() {
    let (ds, pool) = DatasetBuilder::new(60, 0xD15C)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for (channel, policy) in fault_modes() {
        for sys in disk_systems(&ds, &params) {
            let requests = request_mix(&ds, &pool, 90, 12 * sys.cycle_len());
            let mut single = Engine::with_channel(sys.as_ref(), channel, policy);
            let baseline = single.run_batch(&requests);
            let oracle = run_requests_reference(sys.as_ref(), &requests, channel, policy);
            let name = sys.scheme_name();
            assert_eq!(
                baseline, oracle,
                "{name}: slab engine ≠ reference oracle on stratified program"
            );
            for shards in shard_counts() {
                let mut engine = ShardedEngine::with_channel(sys.as_ref(), shards, channel, policy);
                let merged = engine.run_batch(&requests);
                assert_eq!(
                    baseline,
                    merged,
                    "{name} outcomes drifted at {shards} shards (loss={})",
                    channel.mean_loss()
                );
                assert_eq!(
                    single.stats().outcome_counters(),
                    engine.stats().outcome_counters(),
                    "{name} stats drifted at {shards} shards"
                );
            }
        }
    }
}

/// The fast-forwarding walker is exact on stratified programs: outcomes
/// match the bucket-by-bucket path bit for bit, and the jump never *adds*
/// scheduler events. Repetition must not break ff eligibility for the
/// scan layouts — the interleaved flat-disk program still collapses its
/// event count.
#[test]
fn fast_forward_is_exact_on_stratified_programs() {
    let (ds, pool) = DatasetBuilder::new(60, 0xD15D)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for (channel, policy) in fault_modes() {
        for sys in disk_systems(&ds, &params) {
            let requests = request_mix(&ds, &pool, 72, 8 * sys.cycle_len());
            let (fast, fast_events) = run_with_ff(sys.as_ref(), &requests, channel, policy, true);
            let (slow, slow_events) = run_with_ff(sys.as_ref(), &requests, channel, policy, false);
            let name = sys.scheme_name();
            assert_eq!(fast, slow, "{name}: fast-forward changed a disk outcome");
            assert!(
                fast_events <= slow_events,
                "{name}: fast-forward added events ({fast_events} > {slow_events})"
            );
        }
    }
    // Eligibility, not just exactness: the flat scan layout must still
    // collapse wake-ups by an order of magnitude on a lossless channel.
    let sys = FlatDisksScheme::new(DiskConfig::new(DISKS))
        .build(&ds, &params)
        .unwrap();
    let requests = request_mix(&ds, &pool, 72, 8 * DynSystem::cycle_len(&sys));
    let (fast, fe) = run_with_ff(
        &sys,
        &requests,
        ChannelModel::NONE,
        RetryPolicy::UNBOUNDED,
        true,
    );
    let (slow, se) = run_with_ff(
        &sys,
        &requests,
        ChannelModel::NONE,
        RetryPolicy::UNBOUNDED,
        false,
    );
    assert_eq!(fast, slow);
    assert!(
        fe * 10 <= se,
        "flat-disks lost fast-forward eligibility: {se} → {fe} events"
    );
}

/// Merged observability is exact on stratified programs: span sums,
/// access/tuning/retry histograms and every percentile agree between the
/// single engine and each sharded merge.
#[test]
fn observed_metrics_merge_exactly_on_stratified_programs() {
    let (ds, pool) = DatasetBuilder::new(60, 0xD15E)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let channel = ChannelModel::iid(ErrorModel::new(LOSS, 0x717));
    let policy = RetryPolicy::bounded(3);
    for sys in disk_systems(&ds, &params) {
        let requests = request_mix(&ds, &pool, 90, 12 * sys.cycle_len());
        let mut single = Engine::with_channel(sys.as_ref(), channel, policy);
        single.enable_metrics();
        let baseline = single.run_batch(&requests);
        let hub = single.take_metrics().unwrap();
        // Span sums must tie out against the outcomes they measure.
        let access_sum: u128 = baseline.iter().map(|r| u128::from(r.outcome.access)).sum();
        let name = sys.scheme_name();
        assert_eq!(
            access_sum,
            hub.access.sum(),
            "{name}: access histogram sum ≠ outcome access sum"
        );
        for shards in shard_counts() {
            let mut engine = ShardedEngine::with_channel(sys.as_ref(), shards, channel, policy);
            engine.enable_metrics();
            let merged = engine.run_batch(&requests);
            let sharded_hub = engine.take_metrics().unwrap();
            assert_eq!(baseline, merged, "{name}, {shards} shards");
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
            for q in [0.5, 0.9, 0.99, 1.0] {
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
            }
        }
    }
}

/// Build a churned [`VersionedServer`] for every disk-capable scheme and
/// hand each one (type-erased, span covering all epochs) to `f` — the
/// stratified constructor piggybacks on the versioned-cycle machinery
/// without any scheme-specific glue.
fn with_all_disk_versioned(
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
    let d = DiskConfig::new(DISKS);
    one(FlatDisksScheme::new(d), ds, p, spec, f);
    one(SimpleSignatureDisksScheme::new(d), ds, p, spec, f);
    one(
        DiskScheme::new(bda_hash::HashScheme::new(), d),
        ds,
        p,
        spec,
        f,
    );
    one(
        DiskScheme::new(bda_btree::DistributedScheme::new(), d),
        ds,
        p,
        spec,
        f,
    );
}

/// A 20 %-churn dynamic stratified program: the stale machinery engages
/// (re-ranking piggybacks on versioned cycles), and every shard count
/// reproduces the unsharded outcomes exactly, with and without loss.
#[test]
fn churned_stratified_programs_are_shard_invariant() {
    let (ds, pool) = DatasetBuilder::new(60, 0xD15F)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let spec = UpdateSpec {
        rate: CHURN,
        seed: 0xBEEF,
        horizon_cycles: 16,
    };
    for (channel, policy) in fault_modes() {
        with_all_disk_versioned(&ds, &params, spec, &mut |server, span| {
            let requests = request_mix(&ds, &pool, 70, span);
            let baseline = Engine::with_channel(server, channel, policy).run_batch(&requests);
            let churn_engaged = baseline.iter().any(|r| r.outcome.version_skews > 0);
            assert!(
                churn_engaged,
                "{}: 20% churn must exercise the stale machinery on disks",
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
