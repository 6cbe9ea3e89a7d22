//! Fast-forward differential suite.
//!
//! The analytical fast-forward layer collapses a scan-heavy walk's
//! O(cycle) wake-ups into O(1) scheduler events by computing the next
//! *interesting* bucket directly from the immutable program. These tests
//! pin the contract from the simulator's side:
//!
//! 1. **Triple equivalence**: the fast-forwarding slab engine, the
//!    bucket-by-bucket slab engine, and the naive reference oracle agree
//!    *bit-identically* — outcome, access time, tuning time, probe count,
//!    false drops — on every scheme, lossless and lossy.
//! 2. **Event collapse**: with fast-forward on, the scan-heavy schemes
//!    (flat, signature family) process dramatically fewer scheduler
//!    events for the same work; it is the mechanism behind the
//!    requests-per-second repair, so it is asserted, not just measured.
//! 3. **No skipped faults**: fault instants are a pure function of the
//!    bucket instant and the seed, so a jump that lands one bucket late
//!    would silently swallow a corruption or a version-skew event.
//!    Near cycle boundaries, near `Ticks::MAX`, and under heavy loss the
//!    degradation counters must tie out exactly.
//!
//! (The golden-corpus conformance test in `bda-bench` runs the same
//! engine entry points against 16 frozen TSVs, so the corpus pins the
//! fast-forward path too — no separate leg is needed here.)

use bda_core::{
    ChannelModel, Dataset, DiskConfig, DiskScheme, DynSystem, ErrorModel, GroupConfig,
    IndexedGroupScheme, Key, Params, RetryPolicy, Scheme, StripedScheme, Ticks,
};
use bda_datagen::DatasetBuilder;
use bda_sim::engine::reference::run_requests_reference;
use bda_sim::{CompletedRequest, Engine, StripedVersionedServer, UpdateSpec, VersionedServer};

/// Every scheme family in the repo, including the composite hybrid.
fn all_systems(ds: &Dataset, p: &Params) -> Vec<Box<dyn DynSystem>> {
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

/// Deterministic request mix over `span` ticks starting at `base`:
/// unsorted arrivals with collisions, every sixth key absent.
fn request_mix(
    ds: &Dataset,
    pool: &[Key],
    n: usize,
    base: Ticks,
    span: Ticks,
) -> Vec<(Ticks, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    (0..n)
        .map(|i| {
            let t = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13;
            let key = if i % 6 == 0 {
                pool[i % pool.len()]
            } else {
                keys[(i * 37) % keys.len()]
            };
            (base + t % span.max(1), key)
        })
        .collect()
}

/// Run a batch on a slab engine with fast-forward pinned on or off,
/// returning the outcomes and the number of scheduler events consumed.
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

/// The fast-forwarding engine, the bucket-by-bucket engine, and the naive
/// reference oracle produce bit-identical outcomes (found/abandoned,
/// access, tuning, probes, false drops, retries) on all eight schemes,
/// lossless and at 15 % loss with an abandoning retry policy — and the
/// fast path never consumes *more* scheduler events than the slow path.
#[test]
fn fast_forward_engine_matches_slow_engine_and_reference_oracle() {
    let (ds, pool) = DatasetBuilder::new(60, 0x0FF1)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for (channel, policy) in [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ChannelModel::iid(ErrorModel::new(0.15, 0xFA57)),
            RetryPolicy::bounded(2),
        ),
    ] {
        for sys in all_systems(&ds, &params) {
            let requests = request_mix(&ds, &pool, 72, 0, 8 * sys.cycle_len());
            let (fast, fast_events) = run_with_ff(sys.as_ref(), &requests, channel, policy, true);
            let (slow, slow_events) = run_with_ff(sys.as_ref(), &requests, channel, policy, false);
            let oracle = run_requests_reference(sys.as_ref(), &requests, channel, policy);
            let name = sys.scheme_name();
            assert_eq!(fast, slow, "{name}: fast-forward changed an outcome");
            assert_eq!(slow, oracle, "{name}: slab engine ≠ reference oracle");
            assert!(
                fast_events <= slow_events,
                "{name}: fast-forward added events ({fast_events} > {slow_events})"
            );
        }
    }
}

/// The point of the layer: scan-heavy schemes collapse from O(cycle)
/// wake-ups per request to a small constant. On a lossless channel the
/// fast engine must spend well under a tenth of the slow engine's events
/// on flat and the whole signature family.
#[test]
fn fast_forward_collapses_events_on_scan_heavy_schemes() {
    // Large enough that O(cycle) vs O(1) dominates the constant factors:
    // integrated/multilevel already doze whole frames bucket-by-bucket, so
    // their slow-path event count grows with the *frame* count, not the
    // bucket count.
    let (ds, pool) = DatasetBuilder::new(320, 0x0FF2)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for sys in all_systems(&ds, &params) {
        let name = sys.scheme_name();
        let scan_heavy = matches!(
            name,
            "flat" | "simple-signature" | "integrated-signature" | "multilevel-signature"
        );
        if !scan_heavy {
            continue;
        }
        let requests = request_mix(&ds, &pool, 72, 0, 8 * sys.cycle_len());
        let (fast, fast_events) = run_with_ff(
            sys.as_ref(),
            &requests,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
            true,
        );
        let (slow, slow_events) = run_with_ff(
            sys.as_ref(),
            &requests,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
            false,
        );
        assert_eq!(fast, slow, "{name}: outcomes diverged");
        assert!(
            fast_events * 10 <= slow_events,
            "{name}: expected ≥10× event collapse, got {slow_events} → {fast_events}"
        );
    }
}

/// Fault instants are a pure function of (bucket instant, seed): a jump
/// that mis-lands by even one bucket shifts which reads are corrupted and
/// the retry counters betray it. Drive every scheme at 30 % loss with
/// arrivals packed around cycle boundaries and assert the degradation
/// counters — retries, false drops, abandonments — tie out exactly.
#[test]
fn fast_forward_never_skips_a_corruption_event() {
    let (ds, pool) = DatasetBuilder::new(48, 0x0FF3)
        .build_with_absent_pool(8)
        .unwrap();
    let params = Params::paper();
    let channel = ChannelModel::iid(ErrorModel::new(0.30, 0xC0DE));
    let policy = RetryPolicy::bounded(3);
    for sys in all_systems(&ds, &params) {
        let cycle = sys.cycle_len();
        // Arrivals hugging k·cycle from both sides, plus exact boundaries.
        let mut requests: Vec<(Ticks, Key)> = Vec::new();
        let keys: Vec<Key> = ds.keys().collect();
        for k in 1..9u64 {
            for d in [0i64, 1, -1, 2, -2, 7, -7] {
                let t = (k * cycle).saturating_add_signed(d);
                let i = requests.len();
                let key = if i % 5 == 0 {
                    pool[i % pool.len()]
                } else {
                    keys[(i * 37) % keys.len()]
                };
                requests.push((t, key));
            }
        }
        let (fast, _) = run_with_ff(sys.as_ref(), &requests, channel, policy, true);
        let (slow, _) = run_with_ff(sys.as_ref(), &requests, channel, policy, false);
        let name = sys.scheme_name();
        assert_eq!(fast, slow, "{name}: boundary arrivals diverged under loss");
        let retries: u32 = slow.iter().map(|r| r.outcome.retries).sum();
        assert!(retries > 0, "{name}: the 30% channel must actually corrupt");
    }
}

/// Clock-edge safety: with arrivals a few dozen cycles below `Ticks::MAX`
/// the walker must disengage fast-forward rather than overflow, and the
/// outcomes still match the bucket-by-bucket engine exactly.
#[test]
fn fast_forward_is_exact_near_ticks_max() {
    let (ds, pool) = DatasetBuilder::new(48, 0x0FF4)
        .build_with_absent_pool(8)
        .unwrap();
    let params = Params::paper();
    let channel = ChannelModel::iid(ErrorModel::new(0.15, 0xFA57));
    let policy = RetryPolicy::bounded(2);
    for sys in all_systems(&ds, &params) {
        let cycle = sys.cycle_len();
        let base = Ticks::MAX - 64 * cycle;
        let requests = request_mix(&ds, &pool, 48, base, 4 * cycle);
        let (fast, _) = run_with_ff(sys.as_ref(), &requests, channel, policy, true);
        let (slow, _) = run_with_ff(sys.as_ref(), &requests, channel, policy, false);
        assert_eq!(
            fast,
            slow,
            "{}: outcomes diverged near Ticks::MAX",
            sys.scheme_name()
        );
    }
}

/// The clock's end is a truthful give-up: a client whose next bucket would
/// end past `Ticks::MAX` finishes `abandoned` — never `aborted`, never on a
/// wrapped clock — on every program shape, through the direct walker and
/// the slab engine alike.
#[test]
fn walks_at_the_clock_end_abandon_on_every_shape() {
    let ds = DatasetBuilder::new(48, 0x0FF5).build().unwrap();
    let params = Params::paper();
    let group = GroupConfig::new(4, 256).unwrap();
    let mut systems = all_systems(&ds, &params);
    systems.push(Box::new(
        DiskScheme::new(bda_hash::HashScheme::new(), DiskConfig::new(3))
            .build(&ds, &params)
            .unwrap(),
    ));
    systems.push(Box::new(
        StripedScheme::new(bda_core::FlatScheme, group)
            .build(&ds, &params)
            .unwrap(),
    ));
    systems.push(Box::new(
        IndexedGroupScheme::new(group)
            .unwrap()
            .build(&ds, &params)
            .unwrap(),
    ));
    systems.push(Box::new(
        VersionedServer::build(&bda_core::FlatScheme, &ds, &params, UpdateSpec::FROZEN).unwrap(),
    ));
    systems.push(Box::new(
        StripedVersionedServer::build(
            &bda_core::FlatScheme,
            &ds,
            &params,
            group,
            UpdateSpec::FROZEN,
        )
        .unwrap(),
    ));
    // The first key stays on the home channel of a group; the last one
    // pays the retune.
    let keys = [ds.record(0).key, ds.record(47).key];
    let requests: Vec<(Ticks, Key)> = [Ticks::MAX - 1, Ticks::MAX]
        .into_iter()
        .flat_map(|t| keys.map(|k| (t, k)))
        .collect();
    for sys in &systems {
        let name = sys.scheme_name();
        let engine = Engine::new(sys.as_ref()).run_batch(&requests);
        for (r, &(t, key)) in engine.iter().zip(&requests) {
            let direct = sys.probe_with_channel(key, t, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
            assert_eq!(r.outcome, direct, "{name} at {t}: engine ≠ walker");
            assert!(
                direct.abandoned && !direct.aborted && !direct.found,
                "{name} at {t}: {direct:?}"
            );
            assert!(
                direct.access <= Ticks::MAX - t,
                "{name} at {t}: clock wrapped"
            );
        }
    }
}

/// Version-skew events on a churning program are never skipped: versioned
/// walks stay on the bucket-by-bucket path (fast-forward only reasons
/// about immutable programs), so the skew and stale-restart counters are
/// identical whether the engine's fast-forward switch is on or off.
#[test]
fn fast_forward_never_skips_a_version_skew_event() {
    let (ds, pool) = DatasetBuilder::new(48, 0x0FF5)
        .build_with_absent_pool(8)
        .unwrap();
    let params = Params::paper();
    let spec = UpdateSpec {
        rate: 0.20,
        seed: 0xABC7,
        horizon_cycles: 16,
    };
    let server = VersionedServer::build(&bda_core::FlatScheme, &ds, &params, spec).unwrap();
    let span = server.timeline().epochs().last().map_or(0, |e| e.start)
        + 4 * DynSystem::cycle_len(&server);
    let requests = request_mix(&ds, &pool, 72, 0, span);
    for channel in [
        ChannelModel::NONE,
        ChannelModel::iid(ErrorModel::new(0.10, 0x717)),
    ] {
        let policy = RetryPolicy::UNBOUNDED;
        let (fast, fast_events) = run_with_ff(&server, &requests, channel, policy, true);
        let (slow, slow_events) = run_with_ff(&server, &requests, channel, policy, false);
        assert_eq!(fast, slow, "churn outcomes diverged");
        assert_eq!(
            fast_events, slow_events,
            "versioned walks must not fast-forward at all"
        );
        let skews: u64 = slow
            .iter()
            .map(|r| u64::from(r.outcome.version_skews))
            .sum();
        assert!(skews > 0, "20% churn must produce version skews to protect");
    }
}
