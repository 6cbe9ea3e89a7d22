//! Error-prone channel (extension): every scheme must stay *correct* under
//! bucket loss — queries eventually succeed, absence is still reported
//! truthfully, and costs degrade monotonically-ish with the loss rate.

use bda::core::scheme::drain;
use bda::core::{ErrorModel, Walk};
use bda::prelude::*;
use bda::sim::Engine;

fn systems(ds: &Dataset, params: &Params) -> Vec<Box<dyn DynSystem>> {
    vec![
        Box::new(FlatScheme.build(ds, params).unwrap()),
        Box::new(OneMScheme::new().build(ds, params).unwrap()),
        Box::new(DistributedScheme::new().build(ds, params).unwrap()),
        Box::new(HashScheme::new().build(ds, params).unwrap()),
        Box::new(SimpleSignatureScheme::new().build(ds, params).unwrap()),
        Box::new(IntegratedSignatureScheme::new(8).build(ds, params).unwrap()),
        Box::new(MultiLevelSignatureScheme::new(8).build(ds, params).unwrap()),
        Box::new(HybridScheme::new().build(ds, params).unwrap()),
    ]
}

#[test]
fn lossy_channel_preserves_correctness() {
    let (ds, pool) = DatasetBuilder::new(150, 0xBAD)
        .build_with_absent_pool(20)
        .unwrap();
    let params = Params::paper();
    for loss in [0.02, 0.10, 0.25] {
        let channel = ChannelModel::iid(ErrorModel::new(loss, 99));
        for sys in systems(&ds, &params) {
            // Present keys are always found despite corruption.
            for (i, r) in ds.records().iter().enumerate().step_by(11) {
                let out =
                    sys.probe_with_channel(r.key, i as u64 * 977, channel, RetryPolicy::UNBOUNDED);
                assert!(
                    out.found,
                    "{} lost key {} at loss {loss}",
                    sys.scheme_name(),
                    r.key
                );
                assert!(!out.aborted, "{}", sys.scheme_name());
            }
            // Absent keys are never hallucinated.
            for (i, k) in pool.iter().enumerate() {
                let out =
                    sys.probe_with_channel(*k, i as u64 * 1013, channel, RetryPolicy::UNBOUNDED);
                assert!(!out.found, "{} hallucinated under loss", sys.scheme_name());
                assert!(!out.aborted, "{}", sys.scheme_name());
            }
        }
    }
}

#[test]
fn lossless_error_model_is_identity() {
    let ds = DatasetBuilder::new(80, 5).build().unwrap();
    let params = Params::paper();
    for sys in systems(&ds, &params) {
        for (i, r) in ds.records().iter().enumerate().step_by(9) {
            let t = i as u64 * 733;
            let plain = sys.probe(r.key, t);
            let lossless =
                sys.probe_with_channel(r.key, t, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
            assert_eq!(plain, lossless, "{}", sys.scheme_name());
            assert_eq!(plain.retries, 0);
        }
    }
}

#[test]
fn costs_degrade_with_loss() {
    let ds = DatasetBuilder::new(300, 7).build().unwrap();
    let params = Params::paper();
    let sys = DistributedScheme::new().build(&ds, &params).unwrap();
    let mean_access = |loss: f64| {
        let channel = ChannelModel::iid(ErrorModel::new(loss, 3));
        let mut total = 0u64;
        let mut retries = 0u64;
        let mut n = 0u64;
        for (i, r) in ds.records().iter().enumerate() {
            let out =
                sys.probe_with_channel(r.key, i as u64 * 4099, channel, RetryPolicy::UNBOUNDED);
            assert!(out.found);
            total += out.access;
            retries += u64::from(out.retries);
            n += 1;
        }
        (total as f64 / n as f64, retries as f64 / n as f64)
    };
    let (at0, r0) = mean_access(0.0);
    let (at10, r10) = mean_access(0.10);
    let (at30, r30) = mean_access(0.30);
    assert_eq!(r0, 0.0);
    assert!(r10 > 0.0 && r30 > r10, "retries rise with loss");
    assert!(at10 > at0, "access degrades with loss");
    assert!(at30 > at10, "…monotonically across these rates");
}

/// The same correctness contract holds when queries run as *concurrent
/// clients* through the discrete-event engine rather than as isolated
/// walkers — and because the error model is a pure function of bucket
/// start time, each request's outcome is identical to its walker run.
#[test]
fn event_engine_preserves_correctness_under_loss() {
    let (ds, pool) = DatasetBuilder::new(100, 0xBAD)
        .build_with_absent_pool(15)
        .unwrap();
    let params = Params::paper();
    let keys: Vec<Key> = ds.keys().collect();
    let requests: Vec<(u64, Key)> = (0..80)
        .map(|i| {
            let key = if i % 7 == 0 {
                pool[i % pool.len()]
            } else {
                keys[(i * 13) % keys.len()]
            };
            (i as u64 * 997, key)
        })
        .collect();
    let present: std::collections::BTreeSet<u64> = keys.iter().map(|k| k.0).collect();
    for loss in [0.02, 0.10, 0.25] {
        let channel = ChannelModel::iid(ErrorModel::new(loss, 99));
        for sys in systems(&ds, &params) {
            let completed = Engine::with_channel(sys.as_ref(), channel, RetryPolicy::UNBOUNDED)
                .run_batch(&requests);
            for r in completed {
                assert!(!r.outcome.aborted, "{}", sys.scheme_name());
                assert_eq!(
                    r.outcome.found,
                    present.contains(&r.key.0),
                    "{} answered wrongly at loss {loss}",
                    sys.scheme_name()
                );
                // Engine ≡ isolated walker, per request.
                let walker =
                    sys.probe_with_channel(r.key, r.arrival, channel, RetryPolicy::UNBOUNDED);
                assert_eq!(r.outcome, walker, "{}", sys.scheme_name());
            }
        }
    }
}

/// A bounded retry policy abandons truthfully through the engine: every
/// give-up is reported as `abandoned` (never a wrong `found` verdict), and
/// the engine's degradation counters agree with the outcomes.
#[test]
fn event_engine_bounded_retries_abandon_truthfully() {
    let ds = DatasetBuilder::new(100, 0xBAD).build().unwrap();
    let params = Params::paper();
    let keys: Vec<Key> = ds.keys().collect();
    let requests: Vec<(u64, Key)> = (0..60)
        .map(|i| (i as u64 * 1361, keys[(i * 17) % keys.len()]))
        .collect();
    let channel = ChannelModel::iid(ErrorModel::new(0.25, 4));
    let policy = bda::core::RetryPolicy::bounded(1);
    for sys in systems(&ds, &params) {
        let mut engine = Engine::with_channel(sys.as_ref(), channel, policy);
        let completed = engine.run_batch(&requests);
        let mut abandoned = 0u64;
        for r in &completed {
            assert!(!r.outcome.aborted, "{}", sys.scheme_name());
            if r.outcome.abandoned {
                assert!(!r.outcome.found, "{} lied on give-up", sys.scheme_name());
                abandoned += 1;
            } else {
                // All keys here are present: not abandoned means found.
                assert!(r.outcome.found, "{}", sys.scheme_name());
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.abandoned, abandoned, "{}", sys.scheme_name());
        assert!(
            stats.corrupt_reads > 0,
            "{} saw no corruption at 25% loss",
            sys.scheme_name()
        );
    }
}

#[test]
fn hybrid_attr_queries_survive_loss() {
    let ds = DatasetBuilder::new(120, 9).build().unwrap();
    let params = Params::paper();
    let sys = HybridScheme::new().build(&ds, &params).unwrap();
    let channel = ChannelModel::iid(ErrorModel::new(0.10, 17));
    for (i, r) in ds.records().iter().enumerate().step_by(13) {
        let m = sys.attr_query(r.attrs[1]);
        let policy = RetryPolicy::UNBOUNDED;
        let out = drain(&mut Walk::with_channel(
            sys.channel(),
            m,
            i as u64 * 577,
            channel,
            policy,
        ));
        assert!(out.found, "attr {} lost", r.attrs[1]);
        assert!(!out.aborted);
    }
}
