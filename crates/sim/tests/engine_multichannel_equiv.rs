//! Multichannel differential suite: channel groups must not open any gap
//! between the execution drivers.
//!
//! Every multichannel-capable program — striped flat, striped hashing,
//! striped signature, and the cross-channel indexed group — is run over
//! {lossless, 15 % i.i.d. loss with a bounded retry budget, burst loss
//! plus scheduled outages, 20 % program churn} through:
//!
//! * the slab engine with analytical fast-forward **on** and **off**,
//! * the naive reference heap (the oracle),
//! * the sharded engine at shard counts {1, 2, 3, 7, #cores},
//! * the isolated direct walker, request by request.
//!
//! Per-request outcomes must be bit-identical, and so must the folded
//! observability aggregates: outcome counters, access/tuning/retry-depth
//! histograms, and per-phase span sums (including the new
//! `ChannelSwitch` phase). Per-channel fault seeds are remixed
//! deterministically (`remix_seed`), so all drivers see the same loss on
//! the same channel at the same instant — any divergence is an engine
//! bug, not noise.

use bda_core::{
    BurstModel, ChannelModel, DynSystem, ErrorModel, GroupConfig, IndexedGroupScheme, Key,
    OutageSchedule, Params, RetryPolicy, StripedScheme, Ticks,
};
use bda_datagen::DatasetBuilder;
use bda_obs::{Completion, MetricsHub};
use bda_sim::engine::reference::run_requests_reference;
use bda_sim::{Engine, ShardedEngine, StripedVersionedServer, UpdateSpec};

/// Every multichannel-capable program shape at one group config: the
/// striping conformance subset (one scan layout, one hash layout, one
/// signature layout) plus the cross-channel indexed group.
fn multichannel_systems(
    ds: &bda_core::Dataset,
    p: &Params,
    config: GroupConfig,
) -> Vec<Box<dyn DynSystem>> {
    vec![
        Box::new(
            StripedScheme::new(bda_core::FlatScheme, config)
                .build(ds, p)
                .unwrap(),
        ),
        Box::new(
            StripedScheme::new(bda_hash::HashScheme::new(), config)
                .build(ds, p)
                .unwrap(),
        ),
        Box::new(
            StripedScheme::new(bda_signature::SimpleSignatureScheme::new(), config)
                .build(ds, p)
                .unwrap(),
        ),
        Box::new(
            IndexedGroupScheme::new(config)
                .unwrap()
                .build(ds, p)
                .unwrap(),
        ),
    ]
}

/// A deterministic request mix: unsorted arrivals with collisions, present
/// and absent keys interleaved.
fn request_mix(ds: &bda_core::Dataset, pool: &[Key], n: usize, span: Ticks) -> Vec<(Ticks, Key)> {
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

/// The shard counts the suite sweeps: the acceptance grid plus however
/// many cores this host actually has.
fn shard_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut counts = vec![1, 2, 3, 7, cores];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The fault grid of the wall: a perfect channel, i.i.d. loss with an
/// abandoning budget, and burst loss with scheduled outages driven by the
/// resynchronization policy.
fn fault_grid() -> Vec<(&'static str, ChannelModel, RetryPolicy)> {
    vec![
        ("lossless", ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            "lossy15",
            ChannelModel::iid(ErrorModel::new(0.15, 0xFA57)),
            RetryPolicy::bounded(2),
        ),
        (
            "burst+outage",
            ChannelModel::burst(BurstModel::new(0.05, 0.25, 0.0, 1.0, 0xB0B))
                .with_outages(OutageSchedule::new(2_500, 250, 0x0A7)),
            RetryPolicy::bounded(24)
                .with_backoff_cap(8)
                .with_jitter(0x1EE7),
        ),
    ]
}

/// Fold one driver's completions plus the direct walker's recorded spans
/// into a [`MetricsHub`], asserting the walker agrees with the driver on
/// every outcome on the way.
fn walker_hub(
    sys: &dyn DynSystem,
    completed: &[bda_sim::CompletedRequest],
    channel: ChannelModel,
    policy: RetryPolicy,
    label: &str,
) -> MetricsHub {
    let mut hub = MetricsHub::new();
    for (i, r) in completed.iter().enumerate() {
        let (out, spans) = sys.probe_recorded(r.key, r.arrival, channel, policy);
        assert_eq!(
            out,
            r.outcome,
            "{}/{label}: engine vs recorded walker diverged at req {i}",
            sys.scheme_name()
        );
        assert!(
            !out.aborted,
            "{}/{label}: aborted at req {i}",
            sys.scheme_name()
        );
        hub.complete_at(
            &Completion {
                end_tick: r.arrival + r.outcome.access,
                access: r.outcome.access,
                tuning: r.outcome.tuning,
                retries: r.outcome.retries,
                stale_restarts: r.outcome.stale_restarts,
                version_skews: r.outcome.version_skews,
                found: r.outcome.found,
                abandoned: r.outcome.abandoned,
            },
            Some(&spans),
        );
    }
    hub
}

/// Assert two hubs agree on every aggregate the drivers fold: outcome
/// counters, all three histograms, and the per-phase span sums.
fn assert_hubs_agree(a: &MetricsHub, b: &MetricsHub, what: &str) {
    assert_eq!(
        (a.completed, a.found, a.abandoned),
        (b.completed, b.found, b.abandoned),
        "{what}: outcome counters diverged"
    );
    assert_eq!(a.access, b.access, "{what}: access histograms diverged");
    assert_eq!(a.tuning, b.tuning, "{what}: tuning histograms diverged");
    assert_eq!(
        a.retry_depth, b.retry_depth,
        "{what}: retry-depth histograms diverged"
    );
    assert_eq!(a.spans, b.spans, "{what}: phase span sums diverged");
}

/// Slab (fast-forward on and off) ≡ reference ≡ sharded {1,2,3,7,#cores}
/// ≡ direct walker on every multichannel-capable program over the whole
/// fault grid, outcomes and folded aggregates alike — at two group
/// shapes, one with free retunes and one paying a real switch cost.
#[test]
fn all_drivers_agree_on_multichannel_groups() {
    let (ds, pool) = DatasetBuilder::new(64, 0x6C64)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for config in [
        GroupConfig::new(3, 0).unwrap(),
        GroupConfig::new(4, 257).unwrap(),
    ] {
        for (label, channel, policy) in fault_grid() {
            for sys in multichannel_systems(&ds, &params, config) {
                let name = sys.scheme_name();
                let requests = request_mix(&ds, &pool, 72, 8 * sys.cycle_len());
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
                    let sharded =
                        ShardedEngine::with_channel(sys.as_ref(), shards, channel, policy)
                            .run_batch(&requests);
                    assert_eq!(fast, sharded, "{name}/{label}: {shards} shards diverged");
                }
                // Aggregates: the observed slab engine's hub must match a
                // hub folded from the reference completions plus the
                // direct walker's recorded spans, component for component.
                let mut engine = Engine::with_channel(sys.as_ref(), channel, policy);
                engine.enable_metrics();
                let observed = engine.run_batch(&requests);
                let slab_hub = engine.take_metrics().unwrap();
                assert_eq!(
                    fast, observed,
                    "{name}/{label}: observation perturbed outcomes"
                );
                let folded = walker_hub(sys.as_ref(), &oracle, channel, policy, label);
                assert_hubs_agree(&slab_hub, &folded, &format!("{name}/{label}"));
            }
        }
    }
}

/// The dynamic-broadcast leg: striped groups whose channels are churning
/// versioned servers (20 % of each slice touched per cycle) still agree
/// across slab, reference, every shard count, and the direct versioned
/// walker, under burst loss plus outages.
#[test]
fn churning_striped_groups_agree_across_drivers() {
    let (ds, pool) = DatasetBuilder::new(48, 0x6C48)
        .build_with_absent_pool(8)
        .unwrap();
    let params = Params::paper();
    let config = GroupConfig::new(3, 199).unwrap();
    let spec = UpdateSpec {
        rate: 0.20,
        seed: 0xABC7,
        horizon_cycles: 16,
    };
    let channel = ChannelModel::burst(BurstModel::new(0.05, 0.25, 0.0, 1.0, 0x717))
        .with_outages(OutageSchedule::new(2_000, 200, 0x0A7));
    let policy = RetryPolicy::bounded(24)
        .with_backoff_cap(8)
        .with_jitter(0x1EE7);
    let servers: Vec<Box<dyn DynSystem>> = vec![
        Box::new(
            StripedVersionedServer::build(&bda_core::FlatScheme, &ds, &params, config, spec)
                .unwrap(),
        ),
        Box::new(
            StripedVersionedServer::build(&bda_hash::HashScheme::new(), &ds, &params, config, spec)
                .unwrap(),
        ),
        Box::new(
            StripedVersionedServer::build(
                &bda_signature::SimpleSignatureScheme::new(),
                &ds,
                &params,
                config,
                spec,
            )
            .unwrap(),
        ),
    ];
    for server in servers {
        let name = server.scheme_name();
        let requests = request_mix(&ds, &pool, 48, 8 * server.cycle_len());
        let slab = Engine::with_channel(server.as_ref(), channel, policy).run_batch(&requests);
        let oracle = run_requests_reference(server.as_ref(), &requests, channel, policy);
        assert_eq!(slab, oracle, "{name}: slab ≠ reference under striped churn");
        for shards in shard_counts() {
            let sharded = ShardedEngine::with_channel(server.as_ref(), shards, channel, policy)
                .run_batch(&requests);
            assert_eq!(
                slab, sharded,
                "{name}: {shards} shards diverged under striped churn"
            );
        }
        let mut skews = 0u64;
        for (i, r) in slab.iter().enumerate() {
            let direct = server.probe_with_channel(r.key, r.arrival, channel, policy);
            assert_eq!(
                r.outcome, direct,
                "{name}: engine vs versioned walker diverged at req {i}"
            );
            assert!(!r.outcome.aborted, "{name}: aborted at req {i}");
            skews += u64::from(r.outcome.version_skews);
        }
        assert!(skews > 0, "{name}: 20% churn must produce version skews");
    }
}
