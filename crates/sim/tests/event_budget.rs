//! Event-budget smoke: the analytical fast-forward layer's throughput
//! repair rests on one invariant — a scan-heavy query costs O(1)
//! scheduler events, not O(cycle). This pins `events / requests` under a
//! small per-scheme constant so an accidental slow-path regression (a
//! machine that stops fast-forwarding, a slot that drops the setting)
//! fails fast instead of quietly costing 100× in the benches.
//!
//! Budgets are deliberately loose versus the measured ratios (about 2×
//! headroom) but *tiny* versus the slow path: flat at 320 records burns
//! ~480 events per request bucket-by-bucket; the budget is 4.

use bda_core::{ChannelModel, Dataset, DynSystem, ErrorModel, Key, Params, RetryPolicy, Scheme};
use bda_datagen::DatasetBuilder;
use bda_sim::Engine;

/// (scheme, max scheduler events per completed request, lossless).
fn budgeted_systems(ds: &Dataset, p: &Params) -> Vec<(Box<dyn DynSystem>, f64)> {
    vec![
        // One initial probe, one fast-forwarded landing, one finish.
        (Box::new(bda_core::FlatScheme.build(ds, p).unwrap()), 4.0),
        (
            Box::new(
                bda_signature::SimpleSignatureScheme::new()
                    .build(ds, p)
                    .unwrap(),
            ),
            6.0,
        ),
        (
            Box::new(
                bda_signature::IntegratedSignatureScheme::new(8)
                    .build(ds, p)
                    .unwrap(),
            ),
            6.0,
        ),
        (
            Box::new(
                bda_signature::MultiLevelSignatureScheme::new(8)
                    .build(ds, p)
                    .unwrap(),
            ),
            8.0,
        ),
    ]
}

fn request_mix(ds: &Dataset, pool: &[Key], n: usize, span: u64) -> Vec<(u64, Key)> {
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

#[test]
fn scan_heavy_schemes_stay_within_their_event_budget() {
    let (ds, pool) = DatasetBuilder::new(320, 0xB0D6)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for (sys, budget) in budgeted_systems(&ds, &params) {
        let requests = request_mix(&ds, &pool, 200, 8 * sys.cycle_len());
        let mut engine =
            Engine::with_channel(sys.as_ref(), ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        let done = engine.run_batch(&requests);
        assert_eq!(done.len(), requests.len());
        let ratio = engine.stats().events as f64 / requests.len() as f64;
        assert!(
            ratio <= budget,
            "{}: {ratio:.2} events/request exceeds the budget of {budget}",
            sys.scheme_name()
        );
        println!(
            "{:<22} {ratio:.2} events/request (budget {budget})",
            sys.scheme_name()
        );
    }
}

/// Corruption legitimately costs extra wake-ups (each retry re-enters the
/// walk), but the budget must still be O(retries), not O(cycle).
#[test]
fn lossy_event_budget_scales_with_retries_not_cycle_length() {
    let (ds, pool) = DatasetBuilder::new(320, 0xB0D7)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for (sys, budget) in budgeted_systems(&ds, &params) {
        let requests = request_mix(&ds, &pool, 200, 8 * sys.cycle_len());
        let mut engine = Engine::with_channel(
            sys.as_ref(),
            ChannelModel::iid(ErrorModel::new(0.15, 0xFA57)),
            RetryPolicy::bounded(2),
        );
        let done = engine.run_batch(&requests);
        let retries: u64 = done.iter().map(|r| u64::from(r.outcome.retries)).sum();
        let events = engine.stats().events as f64;
        let n = requests.len() as f64;
        // Every retry may cost a handful of extra events (re-align, re-scan
        // to the next decision point); everything else obeys the lossless
        // budget.
        let allowed = budget * n + 8.0 * retries as f64;
        assert!(
            events <= allowed,
            "{}: {events} events > {allowed} ({n} requests, {retries} retries)",
            sys.scheme_name()
        );
    }
}
