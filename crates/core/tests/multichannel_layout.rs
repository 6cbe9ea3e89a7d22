//! Property suite for multichannel group layouts (see
//! `bda_core::multichannel`).
//!
//! The four load-bearing properties of a channel group:
//!
//! 1. striping covers every record exactly once per major cycle — the
//!    union of the per-channel programs is the dataset, with no record
//!    duplicated, dropped, or reordered across the slice boundaries (and
//!    the indexed group's directory pointers all land on the bucket that
//!    actually carries the key);
//! 2. cross-channel routing is forward-only — a pointer is always
//!    resolved at or after the instant it was read, so the completion
//!    instant is monotone in the tune-in instant;
//! 3. switch-cost accounting is tick-exact — a query homed away from
//!    channel 0 pays exactly `switch_cost` ticks of access time (and one
//!    `ChannelSwitch` span), no more, no less, and tuning is untouched;
//! 4. `K = 1` is byte-identical to the flat single-channel program,
//!    buckets and outcomes included.

use bda_core::{
    ChannelModel, Dataset, DynSystem, FlatScheme, GroupConfig, GroupPayload, IndexedGroupScheme,
    Key, Params, Record, RetryPolicy, Scheme, StripedScheme, System, Ticks,
};
use bda_obs::Phase;
use proptest::prelude::*;

/// Key-sorted dataset with odd keys absent (key = 2·index).
fn dataset(n: usize) -> Dataset {
    Dataset::new((0..n as u64).map(|i| Record::keyed(i * 2)).collect()).unwrap()
}

fn striped(
    n: usize,
    channels: u32,
    switch_cost: Ticks,
) -> bda_core::StripedSystem<bda_core::FlatSystem> {
    let config = GroupConfig::new(channels, switch_cost).unwrap();
    StripedScheme::new(FlatScheme, config)
        .build(&dataset(n), &Params::paper())
        .unwrap()
}

fn indexed(n: usize, channels: u32, switch_cost: Ticks) -> bda_core::IndexedGroupSystem {
    let config = GroupConfig::new(channels, switch_cost).unwrap();
    IndexedGroupScheme::new(config)
        .unwrap()
        .build(&dataset(n), &Params::paper())
        .unwrap()
}

proptest! {
    /// Property 1 (striped): the per-channel programs partition the
    /// key-sorted dataset into contiguous slices — every record airs on
    /// exactly one channel, exactly once per that channel's cycle, in
    /// dataset order, and the routing directory holds each slice's first
    /// key.
    #[test]
    fn striping_covers_every_record_exactly_once(n in 1usize..200, k in 1u32..7) {
        let sys = striped(n, k, 97);
        prop_assert_eq!(sys.num_channels(), (k as usize).min(n));
        let mut aired: Vec<u64> = Vec::with_capacity(n);
        for g in 0..sys.num_channels() {
            let ch = sys.channel_system(g).channel();
            let keys: Vec<u64> = ch.buckets().iter().map(|b| b.payload.key.0).collect();
            prop_assert_eq!(
                sys.bounds()[g],
                keys[0],
                "directory bound must be the slice's first key (channel {})", g
            );
            // Every key of the slice routes back to its channel.
            for &key in &keys {
                prop_assert_eq!(sys.route(Key(key)), g);
            }
            aired.extend(keys);
        }
        let expect: Vec<u64> = (0..n as u64).map(|i| i * 2).collect();
        prop_assert_eq!(aired, expect, "stripes must cover the dataset exactly once, in order");
    }

    /// Property 1 (indexed): the data channels carry every record exactly
    /// once, and every directory entry's cross-channel pointer lands on
    /// the data bucket that actually airs that key.
    #[test]
    fn indexed_pointers_land_on_their_records(n in 5usize..150, k in 2u32..6) {
        let sys = indexed(n, k, 31);
        let bs = sys.bucket_size();
        let mut aired: Vec<u64> = Vec::new();
        for d in 0..sys.num_channels() - 1 {
            for b in sys.data_channel(d).buckets() {
                match &b.payload {
                    GroupPayload::Data { key } => aired.push(*key),
                    other => prop_assert!(false, "non-data payload on a data channel: {other:?}"),
                }
            }
        }
        aired.sort_unstable();
        let expect: Vec<u64> = (0..n as u64).map(|i| i * 2).collect();
        prop_assert_eq!(aired, expect, "data channels must cover the dataset exactly once");
        for i in 0..n {
            let key = Key(i as u64 * 2);
            let r = sys.bucket_ref(key).expect("present key must be indexed");
            prop_assert!(r.channel >= 1 && (r.channel as usize) < sys.num_channels());
            prop_assert_eq!(r.offset % bs, 0, "pointers address bucket starts");
            let ch = sys.data_channel(r.channel as usize - 1);
            prop_assert!(r.offset < ch.cycle_len(), "pointer offset must be cycle-relative");
            let slot = (r.offset / bs) as usize;
            prop_assert_eq!(&ch.bucket(slot).payload, &GroupPayload::Data { key: key.0 });
        }
        // Absent keys resolve to no pointer — the directory answers them.
        prop_assert_eq!(sys.bucket_ref(Key(1)), None);
    }

    /// Property 2: forward-only routing means a client that tunes in
    /// later can never finish earlier — the completion instant
    /// `tune_in + access` is non-decreasing in `tune_in`. A pointer
    /// resolved backward in time would violate this immediately.
    #[test]
    fn completion_is_monotone_in_tune_in(
        n in 1usize..120,
        k in 1u32..6,
        seed in any::<u64>(),
        t in 0u64..200_000,
        dt in 1u64..30_000,
    ) {
        let key = Key((seed % n as u64) * 2);
        let s = striped(n, k, 53);
        let (a, b) = (s.probe(key, t), s.probe(key, t + dt));
        prop_assert!(a.found && b.found);
        prop_assert!(
            t + a.access <= t + dt + b.access,
            "striped: tune-in {t}+{dt} finished at {} before {}",
            t + dt + b.access,
            t + a.access
        );
        // Indexed groups need at least one record per data channel.
        if n >= k as usize - 1 && k >= 2 {
            let s = indexed(n, k, 53);
            let (a, b) = (s.probe(key, t), s.probe(key, t + dt));
            prop_assert!(a.found && b.found);
            prop_assert!(
                t + a.access <= t + dt + b.access,
                "indexed: a later tune-in must not finish earlier"
            );
        }
    }

    /// Property 3 (striped): tick-exact switch accounting. A query homed
    /// on channel `g > 0` against a group with switch cost `sw` behaves
    /// exactly like the same query against the `sw = 0` group tuned in
    /// `sw` ticks later, plus `sw` ticks of access — and one
    /// `ChannelSwitch` span of exactly `(access = sw, tuning = 0)`.
    /// Home-channel queries are bit-identical to the `sw = 0` group.
    #[test]
    fn switch_cost_is_tick_exact(
        n in 2usize..150,
        k in 2u32..6,
        sw in 1u64..5_000,
        seed in any::<u64>(),
        t in 0u64..200_000,
    ) {
        let with = striped(n, k, sw);
        let without = striped(n, k, 0);
        let key = Key((seed % n as u64) * 2);
        let g = with.route(key);
        let (out, spans) =
            with.probe_recorded(key, t, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        let switch = spans.get(Phase::ChannelSwitch);
        if g == 0 {
            prop_assert_eq!(out, without.probe(key, t), "home channel must be switch-free");
            prop_assert_eq!((switch.access, switch.tuning, switch.count), (0, 0, 0));
        } else {
            let base = without.probe(key, t + sw);
            prop_assert_eq!(out.access, base.access + sw, "access must absorb exactly sw");
            prop_assert_eq!(out.tuning, base.tuning, "a retuning radio is deaf");
            prop_assert_eq!(
                (switch.access, switch.tuning, switch.count),
                (sw, 0, 1),
                "exactly one ChannelSwitch span of sw ticks"
            );
        }
    }

    /// Property 3 (indexed): a found key pays exactly one retune — the
    /// recorded `ChannelSwitch` span is `(sw, 0)` — while an absent key,
    /// answered from the channel-0 directory, never pays one.
    #[test]
    fn indexed_walks_pay_exactly_one_switch(
        n in 5usize..120,
        k in 2u32..6,
        sw in 1u64..5_000,
        seed in any::<u64>(),
        t in 0u64..200_000,
    ) {
        let sys = indexed(n, k, sw);
        let key = Key((seed % n as u64) * 2);
        let (out, spans) = sys.probe_recorded(key, t, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        prop_assert!(out.found);
        let switch = spans.get(Phase::ChannelSwitch);
        prop_assert_eq!((switch.access, switch.tuning, switch.count), (sw, 0, 1));
        let (absent, spans) =
            sys.probe_recorded(Key(key.0 + 1), t, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        prop_assert!(!absent.found);
        let switch = spans.get(Phase::ChannelSwitch);
        prop_assert_eq!((switch.access, switch.tuning, switch.count), (0, 0, 0));
    }

    /// Property 4: `K = 1` is the identity — the striped group's single
    /// channel is bit-identical to the plain flat program (buckets,
    /// outcomes and spans), and `Params::scaled(1)` dilates nothing.
    #[test]
    fn k1_is_byte_identical_to_the_flat_program(
        n in 1usize..200,
        t in 0u64..1u64 << 30,
        sw in 0u64..5_000,
    ) {
        let p = Params::paper();
        let ds = dataset(n);
        let base = FlatScheme.build(&ds, &p).unwrap();
        let group = StripedScheme::new(FlatScheme, GroupConfig::new(1, sw).unwrap())
            .build(&ds, &p)
            .unwrap();
        prop_assert_eq!(group.num_channels(), 1);
        prop_assert_eq!(base.channel().buckets(), group.channel_system(0).channel().buckets());
        // Every key routes to the lone home channel, so the switch cost
        // never applies regardless of its value.
        let key = Key(t % (n as u64 * 2 + 1));
        prop_assert_eq!(base.probe(key, t), group.probe(key, t));
        let (a, sa) = base.probe_recorded(key, t, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        let (b, sb) = group.probe_recorded(key, t, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        prop_assert_eq!(a, b);
        prop_assert_eq!(sa, sb);
    }
}
