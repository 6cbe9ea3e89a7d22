//! Internal validity of the testbed: the discrete-event engine and the
//! direct walker execute the same protocol machines, so their outcomes
//! must be *identical* — per request, for every scheme.
//!
//! Both of those fast-forward scans, so the suite also holds every
//! one-shot drain to the bucket-by-bucket stepping run of
//! [`DynSystem::begin`], the slow oracle.

use bda::core::scheme::drain;
use bda::core::{BurstModel, ErrorModel, OutageSchedule, PhaseSpans, WalkStep};
use bda::prelude::*;
use bda::sim::Engine;

fn systems(ds: &Dataset, params: &Params) -> Vec<Box<dyn DynSystem>> {
    vec![
        Box::new(FlatScheme.build(ds, params).unwrap()),
        Box::new(OneMScheme::new().build(ds, params).unwrap()),
        Box::new(DistributedScheme::new().build(ds, params).unwrap()),
        Box::new(HashScheme::new().build(ds, params).unwrap()),
        Box::new(SimpleSignatureScheme::new().build(ds, params).unwrap()),
        Box::new(IntegratedSignatureScheme::new(6).build(ds, params).unwrap()),
        Box::new(MultiLevelSignatureScheme::new(6).build(ds, params).unwrap()),
        Box::new(HybridScheme::new().build(ds, params).unwrap()),
    ]
}

#[test]
fn event_engine_equals_direct_walker_per_request() {
    let (ds, pool) = DatasetBuilder::new(250, 0xD1CE)
        .build_with_absent_pool(50)
        .unwrap();
    let params = Params::paper();
    // A mixed batch: hits and misses, bursty and spread arrivals.
    let mut requests: Vec<(Ticks, Key)> = Vec::new();
    for i in 0..300u64 {
        let key = if i % 5 == 4 {
            pool[(i as usize / 5) % pool.len()]
        } else {
            ds.record((i as usize * 7) % ds.len()).key
        };
        let arrival = (i * 13_331) % 4_000_000 + (i % 3) * 17;
        requests.push((arrival, key));
    }

    for sys in systems(&ds, &params) {
        let evented = Engine::new(sys.as_ref()).run_batch(&requests);
        for (res, &(t, k)) in evented.iter().zip(&requests) {
            let direct = sys.probe(k, t);
            assert_eq!(
                res.outcome,
                direct,
                "{}: divergence at t={t} key={k}",
                sys.scheme_name()
            );
        }
    }
}

#[test]
fn simulator_fast_path_equals_event_path_for_all_schemes() {
    let ds = DatasetBuilder::new(150, 0xBEEF).build().unwrap();
    let params = Params::paper();
    for sys in systems(&ds, &params) {
        let mut cfg = SimConfig::quick();
        cfg.min_rounds = 2;
        cfg.max_rounds = 2;
        cfg.round_requests = 100;
        cfg.event_driven = true;
        let a = Simulator::uniform(sys.as_ref(), &ds, cfg).run();
        cfg.event_driven = false;
        let b = Simulator::uniform(sys.as_ref(), &ds, cfg).run();
        assert_eq!(a.access, b.access, "{}", sys.scheme_name());
        assert_eq!(a.tuning, b.tuning, "{}", sys.scheme_name());
        assert_eq!(a.found, b.found, "{}", sys.scheme_name());
        assert_eq!(a.false_drops, b.false_drops, "{}", sys.scheme_name());
    }
}

#[test]
fn stepping_runs_report_monotone_time() {
    use bda::core::WalkStep;
    let ds = DatasetBuilder::new(100, 3).build().unwrap();
    let params = Params::paper();
    for sys in systems(&ds, &params) {
        let mut run = sys.begin(
            ds.record(50).key,
            777,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
        );
        let mut last = 0u64;
        loop {
            match run.step() {
                WalkStep::Read { from, until, .. } => {
                    assert!(from >= last && until > from, "{}", sys.scheme_name());
                    last = until;
                }
                WalkStep::Doze { until } => {
                    assert!(until >= last, "{}", sys.scheme_name());
                    last = until;
                }
                WalkStep::Done(out) => {
                    assert!(out.found);
                    break;
                }
            }
        }
    }
}

/// Every program shape a one-shot drain can run: the eight schemes, three
/// D=3 broadcast-disk programs (two fast-forwarding scans and a chunked
/// hash), a K=4 striped group and an indexed group, both with a 256-tick
/// switch.
fn all_shapes(ds: &Dataset, params: &Params) -> Vec<Box<dyn DynSystem>> {
    let disks = DiskConfig::new(3);
    let group = GroupConfig::new(4, 256).unwrap();
    let mut all = systems(ds, params);
    all.push(Box::new(
        FlatDisksScheme::new(disks).build(ds, params).unwrap(),
    ));
    all.push(Box::new(
        SimpleSignatureDisksScheme::new(disks)
            .build(ds, params)
            .unwrap(),
    ));
    all.push(Box::new(
        DiskScheme::new(HashScheme::new(), disks)
            .build(ds, params)
            .unwrap(),
    ));
    all.push(Box::new(
        StripedScheme::new(FlatScheme, group)
            .build(ds, params)
            .unwrap(),
    ));
    all.push(Box::new(
        IndexedGroupScheme::new(group)
            .unwrap()
            .build(ds, params)
            .unwrap(),
    ));
    all
}

/// A bucket-by-bucket observed drain: a span-recording slot with
/// fast-forward off, stepped to completion.
fn slow_spans(
    sys: &dyn DynSystem,
    key: Key,
    tune_in: Ticks,
    channel: ChannelModel,
    policy: RetryPolicy,
) -> (AccessOutcome, PhaseSpans) {
    let mut slot = sys.make_slot(channel, policy, true);
    slot.set_fast_forward(false);
    slot.start(key, tune_in);
    loop {
        if let WalkStep::Done(out) = slot.step() {
            return (out, *slot.spans().expect("observed slot records spans"));
        }
    }
}

#[test]
fn one_shot_drains_equal_the_bucket_by_bucket_oracle() {
    let (ds, pool) = DatasetBuilder::new(200, 0x0AC1E)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let channels = [
        ("none", ChannelModel::NONE),
        ("iid10", ChannelModel::iid(ErrorModel::new(0.10, 0x1D))),
        (
            "burst",
            ChannelModel::burst(BurstModel::new(0.05, 0.25, 0.0, 1.0, 0xB0B)),
        ),
        (
            "outage",
            ChannelModel::NONE.with_outages(OutageSchedule::new(2_500, 250, 0x0A7)),
        ),
    ];
    let policies = [RetryPolicy::bounded(4), RetryPolicy::UNBOUNDED];
    for sys in all_shapes(&ds, &params) {
        let name = sys.scheme_name();
        let cycle = sys.cycle_len();
        // Ordinary tune-ins spread over three cycles, hits and misses,
        // plus the last two instants the clock can represent.
        let mut requests: Vec<(Ticks, Key)> = (0..24u64)
            .map(|i| {
                let key = if i % 4 == 3 {
                    pool[i as usize % pool.len()]
                } else {
                    ds.record((i as usize * 23) % ds.len()).key
                };
                ((i * 0x9E37_79B9) % (3 * cycle), key)
            })
            .collect();
        for t in [Ticks::MAX - 1, Ticks::MAX] {
            requests.push((t, ds.record(7).key));
            requests.push((t, pool[0]));
        }
        for (label, channel) in channels {
            for policy in policies {
                for &(t, key) in &requests {
                    let ctx = format!("{name}/{label}/{policy:?}: t={t} key={key:?}");
                    let oracle = drain(sys.begin(key, t, channel, policy).as_mut());
                    assert!(!oracle.aborted, "{ctx}");
                    assert_eq!(
                        sys.probe_with_channel(key, t, channel, policy),
                        oracle,
                        "{ctx}"
                    );
                    if channel.is_lossless() && policy == RetryPolicy::UNBOUNDED {
                        assert_eq!(sys.probe(key, t), oracle, "{ctx}");
                    }
                    let (recorded, spans) = sys.probe_recorded(key, t, channel, policy);
                    assert_eq!(recorded, oracle, "{ctx}");
                    let (slow, slow_spans) = slow_spans(sys.as_ref(), key, t, channel, policy);
                    assert_eq!(slow, oracle, "{ctx}");
                    assert_eq!(spans, slow_spans, "{ctx}");
                }
            }
        }
    }
}
