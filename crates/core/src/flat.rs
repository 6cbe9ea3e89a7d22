//! Flat (plain) broadcast — the paper's baseline access method.
//!
//! Information is broadcast "without using any access method. Mobile
//! clients must traverse all buckets to find the requested data" (§4.2).
//! The expected access time and tuning time are therefore both roughly
//! half the broadcast cycle: flat broadcast has the *best* access time
//! (no index overhead inflates the cycle) and the *worst* tuning time
//! (the client never dozes).

use crate::bucket::{Bucket, BucketMeta};
use crate::channel::Channel;
use crate::coverage::Coverage;
use crate::error::Result;
use crate::key::Key;
use crate::machine::{Action, FastForward, ProtocolMachine, StaleResponse, Verdict};
use crate::params::Params;
use crate::record::Dataset;
use crate::scheme::{Scheme, System};
use crate::Ticks;

/// Payload of a flat-broadcast data bucket: one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatPayload {
    /// The record's primary key.
    pub key: Key,
    /// Position of the record in the dataset (diagnostics only — the
    /// protocol uses nothing but `key`).
    pub record_index: u32,
}

/// The flat broadcast scheme (called *plain broadcast* in Figs. 5–6).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatScheme;

/// A built flat-broadcast channel.
#[derive(Debug)]
pub struct FlatSystem {
    channel: Channel<FlatPayload>,
    /// Distinct records behind the cycle. Equal to the bucket count for the
    /// classic one-bucket-per-record layout; smaller for broadcast-disk
    /// repetition layouts (see [`crate::disks`]), where hot records occupy
    /// several buckets per cycle. Coverage-based termination is sized by
    /// records, not buckets.
    num_records: u32,
}

impl FlatSystem {
    /// Assemble a flat system from an explicit bucket layout — the
    /// broadcast-disk constructor's entry point. `num_records` is the
    /// number of *distinct* records in the cycle.
    pub(crate) fn from_parts(channel: Channel<FlatPayload>, num_records: u32) -> Self {
        FlatSystem {
            channel,
            num_records,
        }
    }
}

impl Scheme for FlatScheme {
    type System = FlatSystem;

    fn build(&self, dataset: &Dataset, params: &Params) -> Result<Self::System> {
        params.validate()?;
        let size = params.data_bucket_size();
        let buckets = dataset
            .records()
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Bucket::new(
                    size,
                    FlatPayload {
                        key: r.key,
                        record_index: i as u32,
                    },
                )
            })
            .collect();
        Ok(FlatSystem {
            channel: Channel::new(buckets)?,
            num_records: dataset.len() as u32,
        })
    }
}

impl System for FlatSystem {
    type Payload = FlatPayload;
    type Machine = FlatMachine;

    fn scheme_name(&self) -> &'static str {
        "flat"
    }

    fn channel(&self) -> &Channel<FlatPayload> {
        &self.channel
    }

    fn channel_mut(&mut self) -> &mut Channel<FlatPayload> {
        &mut self.channel
    }

    fn query(&self, key: Key) -> FlatMachine {
        FlatMachine {
            key,
            coverage: Coverage::new(self.num_records),
        }
    }
}

/// Client protocol for flat broadcast: listen to every bucket until the
/// requested key appears; after one full cycle of misses, conclude the
/// record is not broadcast.
#[derive(Debug, Clone)]
pub struct FlatMachine {
    key: Key,
    /// Records ruled out so far; absence is concluded at full coverage.
    /// (Cheap countdown semantics on a lossless channel; sound hole
    /// tracking on an error-prone one.)
    coverage: Coverage,
}

impl ProtocolMachine<FlatPayload> for FlatMachine {
    const FAST_FORWARD: bool = true;

    fn start(&mut self, _tune_in: Ticks) -> Action {
        self.coverage.clear();
        Action::ReadNext
    }

    /// A corrupted bucket might have been the target: it simply stays
    /// uncovered, and the scan continues until its next broadcast is read
    /// cleanly. This terminates with probability 1 at any loss rate < 1.
    fn on_corrupt(&mut self, _meta: BucketMeta) -> Action {
        Action::ReadNext
    }

    /// A changed program invalidates the coverage map: `record_index` and
    /// the record count are bound to the cycle the machine was built
    /// against. Respawning restarts the scan against the live program —
    /// coverage is then provably accumulated within one program version, so
    /// a not-found verdict is sound for that version's dataset.
    fn on_stale(&mut self, _meta: BucketMeta) -> StaleResponse {
        StaleResponse::Respawn
    }

    fn on_bucket(&mut self, payload: &FlatPayload, _meta: BucketMeta) -> Action {
        if payload.key == self.key {
            // Reading the bucket *is* the download: the bucket carries the
            // record.
            return Action::Finish(Verdict::found());
        }
        self.coverage.mark(payload.record_index);
        if self.coverage.is_full() {
            // Every record ruled out: the key is not being broadcast.
            Action::Finish(Verdict::not_found())
        } else {
            Action::ReadNext
        }
    }

    /// Bulk-consume the run of non-matching buckets ahead: each is a plain
    /// read-and-mark with no decision in it. Stop on the key's bucket, on
    /// the read that would complete coverage, on a corrupted transmission,
    /// or at the probe budget — the landing bucket is read slow-path.
    fn fast_forward(&mut self, ctx: &mut FastForward<'_, FlatPayload>) {
        while ctx.can_read() && !ctx.next_corrupt() {
            let p = *ctx.peek();
            if p.key == self.key || self.coverage.would_fill(p.record_index) {
                return;
            }
            self.coverage.mark(p.record_index);
            ctx.read(crate::BucketKind::Data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::scheme::DynSystem;

    fn system(n: u64) -> FlatSystem {
        let ds = Dataset::new((0..n).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        FlatScheme.build(&ds, &Params::paper()).unwrap()
    }

    #[test]
    fn every_key_is_found_from_every_alignment() {
        let sys = system(16);
        let dt = u64::from(Params::paper().data_bucket_size());
        for k in 0..16u64 {
            for t in [0, dt / 2, dt * 5 + 3, dt * 16 - 1] {
                let out = sys.probe(Key(k * 2), t);
                assert!(out.found, "key {k} from t={t}");
                assert!(!out.aborted);
                assert_eq!(out.tuning, out.access, "flat never dozes");
            }
        }
    }

    #[test]
    fn absent_key_scans_exactly_one_cycle() {
        let sys = system(16);
        let out = sys.probe(Key(1), 0);
        assert!(!out.found);
        assert!(!out.aborted);
        assert_eq!(out.probes, 16);
        assert_eq!(out.access, sys.channel().cycle_len());
    }

    #[test]
    fn average_access_is_about_half_a_cycle() {
        let sys = system(64);
        let cycle = sys.channel().cycle_len();
        let dt = u64::from(Params::paper().data_bucket_size());
        let mut total: u64 = 0;
        let mut count = 0u64;
        for k in 0..64u64 {
            for slot in 0..64u64 {
                let out = sys.probe(Key(k * 2), slot * dt);
                total += out.access;
                count += 1;
            }
        }
        let avg = total / count;
        // Expected ≈ cycle/2 (+ half a bucket of initial wait at aligned
        // tune-ins this grid doesn't produce). Allow 5 % tolerance.
        let expect = cycle / 2;
        let lo = expect - expect / 20;
        let hi = expect + expect / 10;
        assert!(avg >= lo && avg <= hi, "avg={avg} expect≈{expect}");
    }

    #[test]
    fn found_download_counts_in_tuning() {
        let sys = system(4);
        let dt = u64::from(Params::paper().data_bucket_size());
        // Tune in exactly at the bucket holding key 4 (index 2).
        let out = sys.probe(Key(4), 2 * dt);
        assert!(out.found);
        assert_eq!(out.probes, 1);
        assert_eq!(out.access, dt);
    }
}
