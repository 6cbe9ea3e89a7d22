//! Lossy-channel differential suite: over an error-prone channel the slab
//! engine, the naive reference heap, and an isolated direct walker must
//! produce **identical** per-request outcomes.
//!
//! This is the property that makes fault injection trustworthy: the
//! [`bda_core::ErrorModel`] is a pure function of (bucket start time,
//! seed), so every execution strategy sees the same corrupted buckets for
//! the same request — any divergence is an engine scheduling bug, not
//! noise. The suite sweeps all eight schemes at 2 %, 10 % and 25 % loss,
//! with both unbounded and bounded retry policies, and additionally pins
//! streaming-mode behaviour under abandonment (no slot leak, deterministic
//! event accounting).

use bda_core::{ChannelModel, DynSystem, ErrorModel, Key, Params, RetryPolicy, Scheme, Ticks};
use bda_datagen::DatasetBuilder;
use bda_sim::engine::reference::run_requests_reference;
use bda_sim::Engine;

/// Loss rates the differential suite sweeps.
const LOSS_RATES: [f64; 3] = [0.02, 0.10, 0.25];

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

/// Slab engine ≡ reference heap ≡ direct walker, request by request, for
/// every scheme at every loss rate, retrying forever.
#[test]
fn slab_reference_and_walker_agree_under_loss() {
    let (ds, pool) = DatasetBuilder::new(60, 0x10EB)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let requests = request_mix(&ds, &pool, 90);
    for loss in LOSS_RATES {
        let channel = ChannelModel::iid(ErrorModel::new(loss, 0xFA57));
        let policy = RetryPolicy::UNBOUNDED;
        for sys in all_systems(&ds, &params) {
            let slab = Engine::with_channel(sys.as_ref(), channel, policy).run_batch(&requests);
            let naive = run_requests_reference(sys.as_ref(), &requests, channel, policy);
            assert_eq!(slab.len(), requests.len());
            assert_eq!(naive.len(), requests.len());
            for (i, (a, b)) in slab.iter().zip(&naive).enumerate() {
                assert_eq!(
                    &a.outcome,
                    &b.outcome,
                    "{} slab vs reference diverged at req {i}, loss {loss}",
                    sys.scheme_name()
                );
                let direct = sys.probe_with_channel(a.key, a.arrival, channel, policy);
                assert_eq!(
                    a.outcome,
                    direct,
                    "{} slab vs walker diverged at req {i}, loss {loss}",
                    sys.scheme_name()
                );
            }
        }
    }
}

/// Same differential property with a *bounded* retry policy: abandonment
/// decisions (which depend on exact corrupt-read counts and elapsed time)
/// must also be identical across all three executions.
#[test]
fn bounded_retry_abandonment_is_identical_across_drivers() {
    let (ds, pool) = DatasetBuilder::new(60, 0x10EB)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let requests = request_mix(&ds, &pool, 60);
    let channel = ChannelModel::iid(ErrorModel::new(0.25, 7));
    let policy = RetryPolicy::bounded(2);
    for sys in all_systems(&ds, &params) {
        let slab = Engine::with_channel(sys.as_ref(), channel, policy).run_batch(&requests);
        let naive = run_requests_reference(sys.as_ref(), &requests, channel, policy);
        let mut abandoned = 0u64;
        for (a, b) in slab.iter().zip(&naive) {
            assert_eq!(&a.outcome, &b.outcome, "{}", sys.scheme_name());
            let direct = sys.probe_with_channel(a.key, a.arrival, channel, policy);
            assert_eq!(a.outcome, direct, "{}", sys.scheme_name());
            // Truthfulness: a wrong answer is never reported.
            assert!(!a.outcome.aborted, "{}", sys.scheme_name());
            if a.outcome.abandoned {
                assert!(!a.outcome.found, "{}", sys.scheme_name());
                abandoned += 1;
            }
        }
        // At 25 % loss with a 2-retry budget some queries must give up —
        // otherwise the policy was never consulted.
        assert!(
            abandoned > 0,
            "{} never abandoned at 25% loss / 2 retries",
            sys.scheme_name()
        );
    }
}

/// Every present key is eventually found (or truthfully abandoned under a
/// bounded policy) — never answered wrongly — when driven through the
/// engine rather than an isolated walker.
#[test]
fn engine_never_lies_under_loss() {
    let (ds, pool) = DatasetBuilder::new(80, 3)
        .build_with_absent_pool(12)
        .unwrap();
    let params = Params::paper();
    let requests = request_mix(&ds, &pool, 120);
    let present: std::collections::BTreeSet<u64> = ds.keys().map(|k| k.0).collect();
    let channel = ChannelModel::iid(ErrorModel::new(0.10, 11));
    for sys in all_systems(&ds, &params) {
        for r in
            Engine::with_channel(sys.as_ref(), channel, RetryPolicy::UNBOUNDED).run_batch(&requests)
        {
            assert!(!r.outcome.aborted, "{}", sys.scheme_name());
            assert!(!r.outcome.abandoned, "unbounded policy abandoned");
            assert_eq!(
                r.outcome.found,
                present.contains(&r.key.0),
                "{} answered wrongly for key {} under loss",
                sys.scheme_name(),
                r.key
            );
        }
    }
}

/// Streaming mode under heavy loss with an abandoning policy: abandonment
/// must free slots (the arena stays capped at `max_in_flight`), every
/// streamed request must still complete, and event accounting must be
/// deterministic run to run.
#[test]
fn run_stream_recycles_slots_and_stays_deterministic_under_loss() {
    let (ds, pool) = DatasetBuilder::new(50, 21)
        .build_with_absent_pool(8)
        .unwrap();
    let params = Params::paper();
    let requests = request_mix(&ds, &pool, 400);
    let channel = ChannelModel::iid(ErrorModel::new(0.25, 5));
    let policy = RetryPolicy::bounded(1); // abandon aggressively
    let cap = 8usize;
    let run = |sys: &dyn DynSystem| {
        let mut engine = Engine::with_channel(sys, channel, policy);
        let mut completions = Vec::new();
        engine.run_stream(requests.iter().copied(), cap, |r| {
            completions.push(r.outcome)
        });
        (completions, engine.stats(), engine.arena_len())
    };
    for sys in all_systems(&ds, &params) {
        let (c1, s1, arena) = run(sys.as_ref());
        // If an abandoning client leaked its slot, admission would stall at
        // max_in_flight and the stream could never drain all 400 requests.
        assert_eq!(
            c1.len(),
            requests.len(),
            "{} leaked slots",
            sys.scheme_name()
        );
        assert!(
            arena <= cap,
            "{} arena {arena} exceeded cap {cap}",
            sys.scheme_name()
        );
        assert!(
            c1.iter().any(|o| o.abandoned),
            "{} policy never fired at 25% loss",
            sys.scheme_name()
        );
        assert_eq!(s1.completed, requests.len() as u64);
        assert_eq!(
            s1.abandoned,
            c1.iter().filter(|o| o.abandoned).count() as u64
        );
        // Determinism: a second engine fed the same stream reports the
        // same outcomes and the same event count.
        let (c2, s2, _) = run(sys.as_ref());
        assert_eq!(c1, c2, "{} outcomes drifted", sys.scheme_name());
        assert_eq!(
            s1.events,
            s2.events,
            "{} event count drifted",
            sys.scheme_name()
        );
        assert_eq!(s1.corrupt_reads, s2.corrupt_reads);
    }
}

/// With `ChannelModel::NONE` the faulty entry points are bit-identical to
/// the lossless ones regardless of the retry policy — the policy is only
/// ever consulted at a corrupt read.
#[test]
fn lossless_faulty_paths_match_plain_paths() {
    let (ds, pool) = DatasetBuilder::new(40, 8)
        .build_with_absent_pool(6)
        .unwrap();
    let params = Params::paper();
    let requests = request_mix(&ds, &pool, 50);
    for policy in [
        RetryPolicy::UNBOUNDED,
        RetryPolicy::bounded(0),
        RetryPolicy::bounded(3).with_backoff(2).with_deadline(1_000),
    ] {
        for sys in all_systems(&ds, &params) {
            let plain = Engine::new(sys.as_ref()).run_batch(&requests);
            let faulty =
                Engine::with_channel(sys.as_ref(), ChannelModel::NONE, policy).run_batch(&requests);
            assert_eq!(plain, faulty, "{} with {policy:?}", sys.scheme_name());
        }
    }
}
