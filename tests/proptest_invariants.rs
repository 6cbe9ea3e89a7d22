//! Property-based invariants over randomized datasets, parameters and
//! tune-in times — the safety net under every scheme's layout arithmetic.

use bda::prelude::*;
use proptest::prelude::*;

/// Random dataset of 1–300 records with well-spread distinct keys.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..300, any::<u64>())
        .prop_map(|(n, seed)| DatasetBuilder::new(n, seed).build().expect("valid dataset"))
}

/// Random record/key geometry within the paper's Fig. 6 range.
fn arb_params() -> impl Strategy<Value = Params> {
    (5u32..=100).prop_map(|ratio| Params::with_record_key_ratio(ratio).expect("valid ratio"))
}

fn all_systems(ds: &Dataset, p: &Params) -> Vec<Box<dyn DynSystem>> {
    vec![
        Box::new(FlatScheme.build(ds, p).unwrap()),
        Box::new(OneMScheme::new().build(ds, p).unwrap()),
        Box::new(DistributedScheme::new().build(ds, p).unwrap()),
        Box::new(HashScheme::new().build(ds, p).unwrap()),
        Box::new(SimpleSignatureScheme::new().build(ds, p).unwrap()),
        Box::new(IntegratedSignatureScheme::new(5).build(ds, p).unwrap()),
        Box::new(MultiLevelSignatureScheme::new(5).build(ds, p).unwrap()),
        Box::new(HybridScheme::new().build(ds, p).unwrap()),
    ]
}

/// Pinned counterexample once minimized by proptest (from the since-retired
/// `proptest_invariants.proptest-regressions` file): a single-record dataset
/// probed for four absent keys at `t = 0` with a 5:1 record/key ratio made
/// `absent_keys_never_found` fail. Kept as a plain deterministic test so the
/// case runs on every `cargo test` regardless of the property runner.
#[test]
fn regression_single_record_absent_keys() {
    let ds = Dataset::new(vec![bda::core::Record::new(
        Key(16521629639822800165),
        vec![16521629639822800165, 10319722088908242066, 20, 118],
    )])
    .unwrap();
    let pool = [
        Key(14940551573328774178),
        Key(7330353808519802590),
        Key(15675389096631490580),
        Key(2742214171129066944),
    ];
    let params = Params {
        record_size: 500,
        key_size: 100,
        ptr_size: 4,
        header_size: 8,
    };
    for sys in all_systems(&ds, &params) {
        for key in pool {
            let out = sys.probe(key, 0);
            assert!(!out.found, "{} hallucinated {key}", sys.scheme_name());
            assert!(!out.aborted, "{} aborted on {key}", sys.scheme_name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every scheme retrieves every key it broadcasts; metrics are sane.
    #[test]
    fn present_keys_always_found(
        ds in arb_dataset(),
        params in arb_params(),
        tune_seed in any::<u64>(),
    ) {
        for sys in all_systems(&ds, &params) {
            let cycle = sys.cycle_len();
            // Three pseudo-random keys and alignments per system.
            for i in 0..3u64 {
                let idx = ((tune_seed.rotate_left(i as u32 * 11) >> 7) as usize) % ds.len();
                let key = ds.record(idx).key;
                let t = tune_seed.rotate_right(i as u32 * 13) % (4 * cycle);
                let out = sys.probe(key, t);
                prop_assert!(out.found, "{} missed {key} at t={t}", sys.scheme_name());
                prop_assert!(!out.aborted);
                prop_assert!(out.tuning <= out.access);
                prop_assert!(out.access <= 3 * cycle);
            }
        }
    }

    /// No scheme ever hallucinates a key that is not broadcast.
    #[test]
    fn absent_keys_never_found(
        (ds, pool) in (1usize..200, any::<u64>()).prop_map(|(n, seed)| {
            DatasetBuilder::new(n, seed).build_with_absent_pool(4).expect("dataset")
        }),
        params in arb_params(),
        t in any::<u64>(),
    ) {
        for sys in all_systems(&ds, &params) {
            let t = t % (8 * sys.cycle_len());
            for key in &pool {
                let out = sys.probe(*key, t);
                prop_assert!(!out.found, "{} hallucinated {key}", sys.scheme_name());
                prop_assert!(!out.aborted);
            }
        }
    }

    /// Outcomes are invariant under whole-cycle shifts of the tune-in.
    #[test]
    fn cycle_shift_invariance(
        ds in arb_dataset(),
        t in any::<u64>(),
        shift in 1u64..50,
    ) {
        let params = Params::paper();
        for sys in all_systems(&ds, &params) {
            let cycle = sys.cycle_len();
            let t = t % cycle;
            let key = ds.record(ds.len() / 2).key;
            let a = sys.probe(key, t);
            let b = sys.probe(key, t + shift * cycle);
            prop_assert_eq!(a, b, "{} shift variance", sys.scheme_name());
        }
    }

    /// Hashing layout identities: `N = Na + Nc` and every chain reachable.
    #[test]
    fn hashing_layout_identities(ds in arb_dataset(), load in 3u32..=10) {
        let params = Params::paper();
        let scheme = HashScheme::new().with_load_factor(f64::from(load) / 5.0);
        let sys = scheme.build(&ds, &params).unwrap();
        prop_assert_eq!(
            bda::core::DynSystem::num_buckets(&sys),
            sys.na() as usize + sys.num_collisions()
        );
        prop_assert_eq!(
            bda::core::DynSystem::num_buckets(&sys),
            ds.len() + sys.num_empty()
        );
    }

    /// Signatures never produce false negatives, whatever their geometry.
    #[test]
    fn signatures_have_no_false_negatives(
        ds in arb_dataset(),
        sig_bytes in 1u32..32,
        w in 1u32..8,
    ) {
        let sigp = SigParams { sig_bytes, bits_per_attr: w };
        for r in ds.records().iter().step_by(7) {
            let rec = sigp.record_signature(r.key, &r.attrs);
            prop_assert!(rec.matches(&sigp.query_signature(r.key)));
        }
        // End-to-end: even 1-byte signatures only cost false drops.
        let params = Params::paper();
        let sys = SimpleSignatureScheme::with_params(sigp).build(&ds, &params).unwrap();
        let key = ds.record(0).key;
        prop_assert!(DynSystem::probe(&sys, key, 123).found);
    }

    /// The B+-tree index is consistent for any dataset: search() finds
    /// exactly the keys that exist.
    #[test]
    fn btree_reference_search_is_exact(ds in arb_dataset(), fanout in 2usize..20) {
        let tree = bda::btree::IndexTree::build(&ds, fanout).unwrap();
        for (i, r) in ds.records().iter().enumerate().step_by(5) {
            prop_assert_eq!(tree.search(r.key), Some(i));
            prop_assert_eq!(tree.search(Key(r.key.value() ^ 1)), None);
        }
    }

    /// Lossy channels cost time, never correctness: present keys found,
    /// absent keys rejected, no aborts — at any loss rate up to 30 %.
    #[test]
    fn lossy_channels_preserve_correctness(
        (ds, pool) in (2usize..120, any::<u64>()).prop_map(|(n, seed)| {
            DatasetBuilder::new(n, seed).build_with_absent_pool(2).expect("dataset")
        }),
        loss in 0.0f64..0.30,
        err_seed in any::<u64>(),
        t in any::<u64>(),
    ) {
        let params = Params::paper();
        let channel = ChannelModel::iid(bda::core::ErrorModel::new(loss, err_seed));
        for sys in all_systems(&ds, &params) {
            let t = t % (4 * sys.cycle_len());
            let key = ds.record(ds.len() / 3).key;
            let hit = sys.probe_with_channel(key, t, channel, RetryPolicy::UNBOUNDED);
            prop_assert!(hit.found, "{} lost a key at loss {loss}", sys.scheme_name());
            prop_assert!(!hit.aborted);
            prop_assert!(hit.tuning <= hit.access);
            let miss = sys.probe_with_channel(pool[0], t, channel, RetryPolicy::UNBOUNDED);
            prop_assert!(!miss.found, "{} hallucinated", sys.scheme_name());
            prop_assert!(!miss.aborted, "{} gave up", sys.scheme_name());
        }
    }

    /// Walk-step accounting: the sum of listened intervals equals the
    /// reported tuning time, the last event ends at tune_in + access, and
    /// probes equals the number of Read steps.
    #[test]
    fn walk_steps_reconcile_with_outcome(
        ds in arb_dataset(),
        t in any::<u64>(),
        key_sel in any::<proptest::sample::Index>(),
    ) {
        use bda::core::WalkStep;
        let params = Params::paper();
        for sys in all_systems(&ds, &params) {
            let t = t % (2 * sys.cycle_len());
            let key = ds.record(key_sel.index(ds.len())).key;
            let mut run = sys.begin(key, t, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
            let mut listened = 0u64;
            let mut reads = 0u32;
            let mut last_end = t;
            let outcome = loop {
                match run.step() {
                    WalkStep::Read { from, until, .. } => {
                        prop_assert!(from >= last_end);
                        listened += until - from;
                        reads += 1;
                        last_end = until;
                    }
                    WalkStep::Doze { until } => {
                        prop_assert!(until >= last_end);
                        last_end = until;
                    }
                    WalkStep::Done(out) => break out,
                }
            };
            prop_assert_eq!(listened, outcome.tuning, "{}", sys.scheme_name());
            prop_assert_eq!(reads, outcome.probes, "{}", sys.scheme_name());
            prop_assert_eq!(last_end, t + outcome.access, "{}", sys.scheme_name());
        }
    }

    /// Hybrid attribute queries find a record for every present attribute
    /// value and reject absent ones, from arbitrary alignments.
    #[test]
    fn hybrid_attribute_queries_are_exact(
        ds in arb_dataset(),
        t in any::<u64>(),
        idx in any::<proptest::sample::Index>(),
    ) {
        let params = Params::paper();
        let sys = HybridScheme::new().build(&ds, &params).unwrap();
        let t = t % (4 * bda::core::DynSystem::cycle_len(&sys));
        let rec = ds.record(idx.index(ds.len()));
        for &attr in rec.attrs.iter() {
            let out = sys.probe_attr(attr, t);
            prop_assert!(out.found, "attribute {attr} not found");
            prop_assert!(!out.aborted);
        }
        // A value present in no record's attributes: u64 keys/attrs are
        // sparse, so a fresh random value is absent with overwhelming
        // probability; verify before asserting.
        let phantom = 0xDEAD_BEEF_0BAD_F00Du64 ^ t;
        let is_present = ds.records().iter().any(|r| {
            r.key.value() == phantom || r.attrs.contains(&phantom)
        });
        if !is_present {
            let out = sys.probe_attr(phantom, t);
            prop_assert!(!out.found);
            prop_assert!(!out.aborted);
        }
    }
}
