//! Client protocols for the hybrid broadcast.

use bda_btree::{BTreeMachine, BTreePayload, DataBucket};
use bda_core::{Action, BucketMeta, Coverage, Key, ProtocolMachine, StaleResponse, Ticks, Verdict};
use bda_signature::{QueryTarget, Signature};

use crate::payload::HybridPayload;

/// Key-lookup protocol: the distributed-indexing access protocol, running
/// over the hybrid channel.
///
/// Delegates to [`BTreeMachine`] by presenting each hybrid bucket in
/// B+-tree clothing: index buckets pass through, data buckets lose their
/// signature-navigation fields, and signature buckets (only ever seen as
/// the first complete bucket after tune-in) act as plain buckets carrying
/// the next-index-segment offset. Leaf index entries point directly at data
/// buckets, so a key client never spends tuning time on signatures.
#[derive(Debug, Clone)]
pub struct HybridKeyMachine {
    inner: BTreeMachine,
}

impl HybridKeyMachine {
    /// A query for `key` over a tree of `num_levels` levels.
    pub fn new(key: Key, num_levels: u32) -> Self {
        HybridKeyMachine {
            inner: BTreeMachine::new(key, num_levels),
        }
    }
}

impl ProtocolMachine<HybridPayload> for HybridKeyMachine {
    fn start(&mut self, tune_in: Ticks) -> Action {
        self.inner.start(tune_in)
    }

    /// The inner B+-tree descent holds pointers computed against the
    /// build-time layout; a version change invalidates them all.
    fn on_stale(&mut self, _meta: BucketMeta) -> StaleResponse {
        StaleResponse::Respawn
    }

    /// Index *and* signature buckets are navigation for a key client (it
    /// never inspects signatures, only rides past them); data buckets are
    /// data.
    fn bucket_kind(&self, payload: &HybridPayload) -> bda_core::BucketKind {
        match payload {
            HybridPayload::Data { .. } => bda_core::BucketKind::Data,
            _ => bda_core::BucketKind::Index,
        }
    }

    fn on_bucket(&mut self, payload: &HybridPayload, meta: BucketMeta) -> Action {
        match payload {
            HybridPayload::Index { node, .. } => self
                .inner
                .on_bucket(&BTreePayload::Index(node.clone()), meta),
            HybridPayload::Data {
                key,
                record_index,
                next_seg_delta,
                ..
            } => self.inner.on_bucket(
                &BTreePayload::Data(DataBucket {
                    key: *key,
                    record_index: *record_index,
                    next_seg_delta: *next_seg_delta,
                }),
                meta,
            ),
            HybridPayload::Sig { next_seg_delta, .. } => {
                // Only reachable as the tune-in alignment read: act as an
                // anonymous bucket carrying the next-segment offset. The
                // sentinel key can never equal a real query key because the
                // dataset's keys are < MAX by construction of the walk —
                // and the inner machine only compares keys in its Fetch
                // state, which never targets a signature bucket.
                self.inner.on_bucket(
                    &BTreePayload::Data(DataBucket {
                        key: Key::MAX,
                        record_index: u32::MAX,
                        next_seg_delta: *next_seg_delta,
                    }),
                    meta,
                )
            }
        }
    }
}

/// Attribute-query protocol: scan record signatures, doze over data buckets
/// unless the signature matches, and skip index segments via
/// next-signature pointers.
#[derive(Debug, Clone)]
pub struct HybridAttrMachine {
    target: QueryTarget,
    query: Signature,
    data_size: Ticks,
    false_drops: u32,
    /// Delta from the end of the current record's data bucket to the next
    /// signature (captured from the signature bucket).
    next_after: Ticks,
    checking_data: bool,
    /// Records ruled out so far; absence is concluded at full coverage.
    coverage: Coverage,
}

impl HybridAttrMachine {
    /// A query for any record carrying attribute `value`; `query` is the
    /// attribute's signature.
    pub fn new(target: QueryTarget, query: Signature, num_records: u32, data_size: Ticks) -> Self {
        HybridAttrMachine {
            target,
            query,
            data_size,
            false_drops: 0,
            next_after: 0,
            checking_data: false,
            coverage: Coverage::new(num_records),
        }
    }

    fn reset(&mut self) {
        self.coverage.clear();
        self.false_drops = 0;
        self.next_after = 0;
        self.checking_data = false;
    }
}

impl ProtocolMachine<HybridPayload> for HybridAttrMachine {
    fn start(&mut self, _tune_in: Ticks) -> Action {
        self.reset();
        Action::ReadNext
    }

    /// Signatures and index segments are navigation; record downloads
    /// (hits and false drops alike) are data reads.
    fn bucket_kind(&self, payload: &HybridPayload) -> bda_core::BucketKind {
        match payload {
            HybridPayload::Data { .. } => bda_core::BucketKind::Data,
            _ => bda_core::BucketKind::Index,
        }
    }

    fn on_bucket(&mut self, payload: &HybridPayload, meta: BucketMeta) -> Action {
        match payload {
            HybridPayload::Sig {
                sig,
                record_index,
                next_sig_after_data,
                ..
            } => {
                self.next_after = *next_sig_after_data;
                if sig.matches(&self.query) {
                    self.checking_data = true;
                    Action::ReadNext
                } else {
                    self.coverage.mark(*record_index);
                    if self.coverage.is_full() {
                        Action::Finish(Verdict::not_found().with_false_drops(self.false_drops))
                    } else {
                        // Skip this record's data bucket and any index
                        // segment behind it, straight to the next signature.
                        Action::DozeTo(meta.end.saturating_add(self.data_size + self.next_after))
                    }
                }
            }
            HybridPayload::Data {
                key,
                attrs,
                record_index,
                ..
            } => {
                if self.target.satisfied_by(*key, attrs) {
                    // (Alignment reads may legitimately land on the target.)
                    return Action::Finish(Verdict::found().with_false_drops(self.false_drops));
                }
                let was_checking = std::mem::take(&mut self.checking_data);
                if was_checking {
                    self.false_drops += 1;
                }
                self.coverage.mark(*record_index);
                if self.coverage.is_full() {
                    Action::Finish(Verdict::not_found().with_false_drops(self.false_drops))
                } else if was_checking {
                    Action::DozeTo(meta.end.saturating_add(self.next_after))
                } else {
                    // Alignment read: hop to the next signature bucket.
                    Action::DozeTo(meta.end.saturating_add(payload.next_sig_delta()))
                }
            }
            HybridPayload::Index { .. } => {
                // Alignment read after tune-in (or recovery): hop to the
                // next signature bucket.
                Action::DozeTo(meta.end.saturating_add(payload.next_sig_delta()))
            }
        }
    }

    fn on_corrupt(&mut self, _meta: BucketMeta) -> Action {
        // The corrupted record stays uncovered (re-examined next cycle);
        // realign on the next readable bucket.
        self.next_after = 0;
        self.checking_data = false;
        Action::ReadNext
    }

    /// Coverage indices and the signature frame geometry are bound to the
    /// build-time program; respawn restarts the attribute scan.
    fn on_stale(&mut self, _meta: BucketMeta) -> StaleResponse {
        StaleResponse::Respawn
    }
}

#[cfg(test)]
mod tests {
    //! Machine-level tests use hand-built payloads; end-to-end coverage
    //! lives in `scheme.rs` and the integration suite.

    use super::*;
    use bda_signature::SigParams;

    fn meta(end: Ticks) -> BucketMeta {
        BucketMeta {
            index: 0,
            start: end - 24,
            end,
            size: 24,
            version: 0,
        }
    }

    #[test]
    fn attr_machine_skips_nonmatching_records() {
        let sigp = SigParams::default();
        let query = sigp.attr_signature(42);
        let mut m = HybridAttrMachine::new(QueryTarget::Attribute(42), query, 10, 533);
        assert_eq!(m.start(0), Action::ReadNext);
        // Non-matching signature with 100 bytes of index segment after the
        // data bucket: doze data + 100.
        let sig = HybridPayload::Sig {
            sig: sigp.attr_signature(7),
            record_index: 0,
            next_seg_delta: 0,
            next_sig_after_data: 100,
        };
        assert_eq!(m.on_bucket(&sig, meta(24)), Action::DozeTo(24 + 533 + 100));
    }

    #[test]
    fn attr_machine_downloads_matches_and_counts_false_drops() {
        let sigp = SigParams::default();
        let query = sigp.attr_signature(42);
        let mut m = HybridAttrMachine::new(QueryTarget::Attribute(42), query.clone(), 10, 533);
        m.start(0);
        // Matching signature → read the data bucket.
        let mut rec_sig = sigp.attr_signature(1);
        rec_sig.superimpose(&query);
        let sig = HybridPayload::Sig {
            sig: rec_sig,
            record_index: 3,
            next_seg_delta: 0,
            next_sig_after_data: 0,
        };
        assert_eq!(m.on_bucket(&sig, meta(24)), Action::ReadNext);
        // Wrong record (false drop) → continue at next signature.
        let data = HybridPayload::Data {
            key: Key(1),
            record_index: 3,
            attrs: vec![1, 2].into(),
            next_seg_delta: 0,
            next_sig_delta: 0,
        };
        assert_eq!(m.on_bucket(&data, meta(600)), Action::DozeTo(600));
        // Right record → found with one false drop.
        let mut rec_sig = sigp.attr_signature(9);
        rec_sig.superimpose(&query);
        let sig = HybridPayload::Sig {
            sig: rec_sig,
            record_index: 5,
            next_seg_delta: 0,
            next_sig_after_data: 0,
        };
        assert_eq!(m.on_bucket(&sig, meta(700)), Action::ReadNext);
        let data = HybridPayload::Data {
            key: Key(9),
            record_index: 5,
            attrs: vec![42].into(),
            next_seg_delta: 0,
            next_sig_delta: 0,
        };
        assert_eq!(
            m.on_bucket(&data, meta(1300)),
            Action::Finish(Verdict::found().with_false_drops(1))
        );
    }

    #[test]
    fn alignment_reads_hop_to_next_signature() {
        let sigp = SigParams::default();
        let mut m =
            HybridAttrMachine::new(QueryTarget::Attribute(1), sigp.attr_signature(1), 5, 533);
        m.start(0);
        let idx = HybridPayload::Index {
            node: bda_btree::IndexBucket {
                level: 0,
                node: 0,
                min_key: Key(0),
                max_key: Key(10),
                segment_start: true,
                entries: vec![],
                control: vec![],
                next_seg_delta: 0,
            },
            next_sig_delta: 77,
        };
        assert_eq!(m.on_bucket(&idx, meta(24)), Action::DozeTo(24 + 77));
    }
}
