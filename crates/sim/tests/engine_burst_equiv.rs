//! Bursty-channel differential suite: under Gilbert–Elliott burst loss,
//! scheduled carrier outages, and both at once, every execution strategy
//! must produce **identical** per-request outcomes.
//!
//! This is the chain-state analogue of `engine_lossy_equiv`: the
//! [`bda_core::BurstModel`] resolves its fading state by an exact
//! skip-ahead that is a pure function of (bucket start instant, seed), and
//! the [`bda_core::OutageSchedule`] is a pure function of the frame index,
//! so the slab engine (fast-forward on and off), the naive reference heap,
//! the sharded engine at every shard count, and an isolated direct walker
//! all see the same dead air for the same request. Any divergence is an
//! engine scheduling bug, not noise.

use bda_core::{
    BurstModel, ChannelModel, DynSystem, ErrorModel, Key, OutageSchedule, Params, RetryPolicy,
    Scheme, Ticks,
};
use bda_datagen::DatasetBuilder;
use bda_sim::engine::reference::run_requests_reference;
use bda_sim::{CompletedRequest, Engine, ShardedEngine, UpdateSpec, VersionedServer};

/// Every scheme family in the repo, including the composite hybrid.
fn all_systems(ds: &bda_core::Dataset, p: &Params) -> Vec<Box<dyn DynSystem>> {
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

/// A deterministic request mix: unsorted arrivals with collisions, present
/// and absent keys interleaved.
fn request_mix(ds: &bda_core::Dataset, pool: &[Key], n: usize) -> Vec<(Ticks, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    (0..n)
        .map(|i| {
            let t = ((i * 6151) % 9000) as Ticks;
            let key = if i % 6 == 0 {
                pool[i % pool.len()]
            } else {
                keys[(i * 37) % keys.len()]
            };
            (t, key)
        })
        .collect()
}

/// The shard counts the suite sweeps: the acceptance grid plus however
/// many cores this host actually has.
fn shard_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut counts = vec![1, 2, 3, 7, cores];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The channel grid: pure burst loss, burst + outages, i.i.d. + outages.
fn channel_grid() -> Vec<(&'static str, ChannelModel)> {
    let burst = BurstModel::new(0.05, 0.25, 0.0, 1.0, 0xFA57);
    let outages = OutageSchedule::new(2_500, 250, 0x0A7);
    vec![
        ("burst", ChannelModel::burst(burst)),
        (
            "burst+outage",
            ChannelModel::burst(burst).with_outages(outages),
        ),
        (
            "iid+outage",
            ChannelModel::iid(ErrorModel::new(0.10, 7)).with_outages(outages),
        ),
    ]
}

/// Slab engine (fast-forward on and off) ≡ reference heap ≡ sharded engine
/// at shard counts {1, 2, 3, 7, #cores} ≡ direct walker, request by
/// request, for every scheme over every channel in the grid.
#[test]
fn all_drivers_agree_under_burst_and_outages() {
    let (ds, pool) = DatasetBuilder::new(60, 0xB1257)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let requests = request_mix(&ds, &pool, 72);
    for (label, channel) in channel_grid() {
        // Exponential backoff with seeded jitter exercises the
        // resynchronization path; the bound keeps dead-air walks finite.
        let policy = RetryPolicy::bounded(24)
            .with_backoff_cap(8)
            .with_jitter(0x1EE7);
        for sys in all_systems(&ds, &params) {
            let name = sys.scheme_name();
            let mut fast = Engine::with_channel(sys.as_ref(), channel, policy);
            fast.set_fast_forward(true);
            let fast = fast.run_batch(&requests);
            let mut slow = Engine::with_channel(sys.as_ref(), channel, policy);
            slow.set_fast_forward(false);
            let slow = slow.run_batch(&requests);
            assert_eq!(
                fast, slow,
                "{name}/{label}: fast-forward changed an outcome"
            );
            let oracle = run_requests_reference(sys.as_ref(), &requests, channel, policy);
            assert_eq!(fast, oracle, "{name}/{label}: slab ≠ reference oracle");
            for shards in shard_counts() {
                let sharded = ShardedEngine::with_channel(sys.as_ref(), shards, channel, policy)
                    .run_batch(&requests);
                assert_eq!(fast, sharded, "{name}/{label}: {shards} shards diverged");
            }
            for (i, r) in fast.iter().enumerate() {
                let direct = sys.probe_with_channel(r.key, r.arrival, channel, policy);
                assert_eq!(
                    r.outcome, direct,
                    "{name}/{label}: engine vs walker diverged at req {i}"
                );
                // Truthfulness: a wrong answer is never reported.
                assert!(!r.outcome.aborted, "{name}/{label}: aborted at req {i}");
            }
        }
    }
}

/// A Gilbert–Elliott chain whose two states lose at the same rate *is*
/// the i.i.d. channel: with `loss_good == loss_bad` and the same seed the
/// per-bucket draws are reused bit for bit, so the whole run — outcomes,
/// access, tuning, retries — matches `ErrorModel` exactly. This is the
/// degenerate-configs-are-free guarantee at the engine level.
#[test]
fn degenerate_burst_is_bit_identical_to_iid() {
    let (ds, pool) = DatasetBuilder::new(60, 0xB1257)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let requests = request_mix(&ds, &pool, 72);
    let seed = 0xFA57;
    let channel = ChannelModel::iid(ErrorModel::new(0.15, seed));
    let degenerate = ChannelModel::burst(BurstModel::new(0.3, 0.2, 0.15, 0.15, seed));
    for policy in [RetryPolicy::UNBOUNDED, RetryPolicy::bounded(2)] {
        for sys in all_systems(&ds, &params) {
            let iid = Engine::with_channel(sys.as_ref(), channel, policy).run_batch(&requests);
            let burst = Engine::with_channel(sys.as_ref(), degenerate, policy).run_batch(&requests);
            assert_eq!(
                iid,
                burst,
                "{}: degenerate burst drifted from i.i.d.",
                sys.scheme_name()
            );
        }
    }
}

/// The dynamic-broadcast leg: a churning versioned program (20 % of
/// records touched per cycle) under burst loss plus outages still yields
/// identical outcomes — including skew and stale-restart counters — on
/// the slab engine, the reference heap, every shard count, and the direct
/// versioned walker.
#[test]
fn churning_program_agrees_across_drivers_under_burst() {
    let (ds, pool) = DatasetBuilder::new(48, 0xB1258)
        .build_with_absent_pool(8)
        .unwrap();
    let params = Params::paper();
    let spec = UpdateSpec {
        rate: 0.20,
        seed: 0xABC7,
        horizon_cycles: 16,
    };
    let requests = request_mix(&ds, &pool, 48);
    let channel = ChannelModel::burst(BurstModel::new(0.05, 0.25, 0.0, 1.0, 0x717))
        .with_outages(OutageSchedule::new(2_000, 200, 0x0A7));
    let policy = RetryPolicy::bounded(24)
        .with_backoff_cap(8)
        .with_jitter(0x1EE7);
    for scheme_run in [
        |ds: &bda_core::Dataset, p: &Params, s| {
            VersionedServer::build(&bda_core::FlatScheme, ds, p, s)
                .map(|v| Box::new(v) as Box<dyn DynSystem>)
        },
        |ds: &bda_core::Dataset, p: &Params, s| {
            VersionedServer::build(&bda_btree::DistributedScheme::new(), ds, p, s)
                .map(|v| Box::new(v) as Box<dyn DynSystem>)
        },
        |ds: &bda_core::Dataset, p: &Params, s| {
            VersionedServer::build(&bda_signature::SimpleSignatureScheme::new(), ds, p, s)
                .map(|v| Box::new(v) as Box<dyn DynSystem>)
        },
    ] {
        let server = scheme_run(&ds, &params, spec).unwrap();
        let slab = Engine::with_channel(server.as_ref(), channel, policy).run_batch(&requests);
        let oracle = run_requests_reference(server.as_ref(), &requests, channel, policy);
        assert_eq!(slab, oracle, "{}: slab ≠ reference", server.scheme_name());
        for shards in shard_counts() {
            let sharded = ShardedEngine::with_channel(server.as_ref(), shards, channel, policy)
                .run_batch(&requests);
            assert_eq!(
                slab,
                sharded,
                "{}: {shards} shards diverged under churn",
                server.scheme_name()
            );
        }
        for (i, r) in slab.iter().enumerate() {
            let direct = server.probe_with_channel(r.key, r.arrival, channel, policy);
            assert_eq!(
                r.outcome,
                direct,
                "{}: engine vs versioned walker diverged at req {i}",
                server.scheme_name()
            );
        }
        let skews: u64 = slab
            .iter()
            .map(|r| u64::from(r.outcome.version_skews))
            .sum();
        assert!(
            skews > 0,
            "{}: 20% churn must produce version skews",
            server.scheme_name()
        );
    }
}

/// Outage windows actually bite, and recovery is truthful: on a channel
/// with scheduled outages some reads land in dead air (retries > 0), a
/// bounded policy abandons rather than answers wrongly, and abandonment
/// decisions match across drivers (checked above) — here we pin that the
/// counters move and abandoned queries are never "found".
#[test]
fn outage_recovery_is_truthful() {
    let (ds, pool) = DatasetBuilder::new(60, 0xB1259)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let requests = request_mix(&ds, &pool, 72);
    // One third of the air is dead, in long spans.
    let channel = ChannelModel::NONE.with_outages(OutageSchedule::new(1_500, 500, 0xDEAD));
    let policy = RetryPolicy::bounded(2);
    let present: std::collections::BTreeSet<u64> = ds.keys().map(|k| k.0).collect();
    let mut any_retries = false;
    let mut any_abandoned = false;
    for sys in all_systems(&ds, &params) {
        let done: Vec<CompletedRequest> =
            Engine::with_channel(sys.as_ref(), channel, policy).run_batch(&requests);
        for r in &done {
            assert!(!r.outcome.aborted, "{}", sys.scheme_name());
            any_retries |= r.outcome.retries > 0;
            if r.outcome.abandoned {
                assert!(!r.outcome.found, "{}", sys.scheme_name());
                any_abandoned = true;
            } else {
                assert_eq!(
                    r.outcome.found,
                    present.contains(&r.key.0),
                    "{} answered wrongly for key {} under outages",
                    sys.scheme_name(),
                    r.key
                );
            }
        }
    }
    assert!(any_retries, "a 33% outage channel must corrupt some reads");
    assert!(
        any_abandoned,
        "a 2-retry budget must abandon under 33% outages"
    );
}
