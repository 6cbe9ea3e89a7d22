//! The simple signature scheme (paper §2.3).
//!
//! Broadcast layout: `sig(0) data(0) sig(1) data(1) …` — "each broadcast of
//! a data bucket is preceded by a broadcast of the signature bucket, which
//! contains the signature of the data record". Clients sift through every
//! signature bucket, dozing over data buckets whose signature does not
//! match.

use std::sync::Arc;

use bda_core::{
    Action, Bucket, BucketMeta, Channel, Coverage, Dataset, DiskConfig, DiskLayout, FastForward,
    Key, Params, ProtocolMachine, Result, Scheme, StaleResponse, System, Ticks, Verdict,
};

use crate::sig::{SigParams, SigTable, Signature};

/// Bucket payload shared by all signature-based schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigPayload {
    /// A per-record signature bucket.
    RecordSig {
        /// The record's superimposed signature.
        sig: Signature,
        /// Position of the signed record (diagnostics).
        record_index: u32,
    },
    /// An integrated (frame) signature bucket summarizing `group_len`
    /// following records (integrated / multi-level schemes only).
    GroupSig {
        /// Superimposition of the frame's record signatures.
        sig: Signature,
        /// Position of the frame's first record.
        first_record: u32,
        /// Number of records in the frame.
        group_len: u32,
    },
    /// A data bucket.
    Data {
        /// The record's primary key.
        key: Key,
        /// Position of the record (diagnostics).
        record_index: u32,
        /// The record's attribute values — what a downloading client gets
        /// to inspect (needed to verify attribute-query matches).
        attrs: Box<[u64]>,
    },
}

/// What a signature query is looking for.
///
/// Signatures are content-based (one bit string per attribute value), so
/// besides primary-key lookups they support **attribute queries**: find a
/// record carrying a given attribute value — the multi-attribute filtering
/// use case of Lee & Lee and of "power conservative multi-attribute
/// queries" (the paper's reference \[4\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryTarget {
    /// Match the record with this primary key.
    Key(Key),
    /// Match the first record carrying this attribute value.
    Attribute(u64),
}

impl QueryTarget {
    /// Whether a downloaded record satisfies the query.
    pub fn satisfied_by(&self, key: Key, attrs: &[u64]) -> bool {
        match *self {
            QueryTarget::Key(k) => key == k,
            QueryTarget::Attribute(v) => key.value() == v || attrs.contains(&v),
        }
    }
}

/// The simple signature scheme.
///
/// ```
/// use bda_core::{Dataset, DynSystem, Params, Record, Scheme, System};
/// use bda_signature::SimpleSignatureScheme;
///
/// let dataset = Dataset::new(
///     (0..40).map(|i| Record::new(bda_core::Key(i), vec![i, i + 100])).collect(),
/// ).unwrap();
/// let system = SimpleSignatureScheme::new().build(&dataset, &Params::paper()).unwrap();
/// // Key lookup:
/// assert!(DynSystem::probe(&system, bda_core::Key(7), 5_000).found);
/// // Attribute query — signatures are content-based:
/// let m = system.attr_query(107);
/// let out = bda_core::machine::run_machine(System::channel(&system), m, 5_000);
/// assert!(out.found);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SimpleSignatureScheme {
    sig: SigParams,
}

impl SimpleSignatureScheme {
    /// Simple signature indexing with default signature parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the signature parameters (length / bits per attribute).
    pub fn with_params(sig: SigParams) -> Self {
        SimpleSignatureScheme { sig }
    }
}

/// A built simple-signature broadcast.
#[derive(Debug)]
pub struct SimpleSignatureSystem {
    channel: Channel<SigPayload>,
    sig: SigParams,
    num_records: u32,
    data_size: Ticks,
    /// Record signatures in record order, packed for fast-forward matching.
    table: Arc<SigTable>,
}

impl SimpleSignatureSystem {
    /// The signature parameters in use.
    pub fn sig_params(&self) -> SigParams {
        self.sig
    }

    /// On-air size of one signature bucket (`It`).
    pub fn sig_bucket_size(&self, params: &Params) -> u32 {
        params.header_size + self.sig.sig_bytes
    }
}

impl Scheme for SimpleSignatureScheme {
    type System = SimpleSignatureSystem;

    fn build(&self, dataset: &Dataset, params: &Params) -> Result<Self::System> {
        self.build_occurrences(dataset, params, (0..dataset.len() as u32).collect())
    }
}

impl SimpleSignatureScheme {
    /// Lay out one `(signature, data)` bucket pair per entry of
    /// `occurrences` (record indices, possibly repeated) — the shared
    /// backend of the classic once-per-record cycle and the broadcast-disk
    /// repetition layout. The sifting protocol is indifferent to
    /// repetition: coverage is keyed by `record_index` and marking is
    /// idempotent, and the [`SigTable`] keeps one row per *record*, so
    /// every occurrence of a record carries (and is matched against) the
    /// same signature.
    fn build_occurrences(
        &self,
        dataset: &Dataset,
        params: &Params,
        occurrences: Vec<u32>,
    ) -> Result<SimpleSignatureSystem> {
        params.validate()?;
        let sig_size = params.header_size + self.sig.sig_bytes;
        let data_size = params.data_bucket_size();
        let sigs: Vec<Signature> = dataset
            .records()
            .iter()
            .map(|r| self.sig.record_signature(r.key, &r.attrs))
            .collect();
        let mut buckets = Vec::with_capacity(2 * occurrences.len());
        for i in occurrences {
            let r = dataset.record(i as usize);
            buckets.push(Bucket::new(
                sig_size,
                SigPayload::RecordSig {
                    sig: sigs[i as usize].clone(),
                    record_index: i,
                },
            ));
            buckets.push(Bucket::new(
                data_size,
                SigPayload::Data {
                    key: r.key,
                    record_index: i,
                    attrs: r.attrs.clone(),
                },
            ));
        }
        Ok(SimpleSignatureSystem {
            channel: Channel::new(buckets)?,
            sig: self.sig,
            num_records: dataset.len() as u32,
            data_size: Ticks::from(data_size),
            table: Arc::new(SigTable::build(&sigs)),
        })
    }
}

/// Simple signature indexing over a broadcast-disk repetition schedule
/// (see `bda_core::disks`): hot records' `(signature, data)` pairs appear
/// several times per cycle, evenly spaced. At `D = 1` the built program is
/// bit-identical to [`SimpleSignatureScheme`]'s.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimpleSignatureDisksScheme {
    sig: SigParams,
    config: DiskConfig,
}

impl SimpleSignatureDisksScheme {
    /// Signature sifting stratified across `config` disks.
    pub fn new(config: DiskConfig) -> Self {
        SimpleSignatureDisksScheme {
            sig: SigParams::default(),
            config,
        }
    }

    /// Override the signature parameters (length / bits per attribute).
    pub fn with_params(sig: SigParams, config: DiskConfig) -> Self {
        SimpleSignatureDisksScheme { sig, config }
    }
}

impl Scheme for SimpleSignatureDisksScheme {
    type System = SimpleSignatureSystem;

    fn build(&self, dataset: &Dataset, params: &Params) -> Result<Self::System> {
        let layout = DiskLayout::new(dataset.len(), &self.config);
        SimpleSignatureScheme { sig: self.sig }.build_occurrences(
            dataset,
            params,
            layout.schedule().sequence().collect(),
        )
    }
}

impl System for SimpleSignatureSystem {
    type Payload = SigPayload;
    type Machine = SimpleSigMachine;

    fn scheme_name(&self) -> &'static str {
        "signature"
    }

    fn channel(&self) -> &Channel<SigPayload> {
        &self.channel
    }

    fn channel_mut(&mut self) -> &mut Channel<SigPayload> {
        &mut self.channel
    }

    fn query(&self, key: Key) -> SimpleSigMachine {
        self.machine(QueryTarget::Key(key), self.sig.query_signature(key))
    }
}

impl SimpleSignatureSystem {
    /// Start an **attribute query**: retrieve the first broadcast record
    /// carrying attribute value `value`. Run it with
    /// [`bda_core::machine::run_machine`] or [`bda_core::Walk`].
    pub fn attr_query(&self, value: u64) -> SimpleSigMachine {
        self.machine(
            QueryTarget::Attribute(value),
            self.sig.attr_signature(value),
        )
    }

    fn machine(&self, target: QueryTarget, query: Signature) -> SimpleSigMachine {
        SimpleSigMachine {
            target,
            query,
            data_size: self.data_size,
            false_drops: 0,
            checking_data: false,
            coverage: Coverage::new(self.num_records),
            table: Arc::clone(&self.table),
        }
    }
}

/// Client protocol for simple signature indexing (paper §2.3).
#[derive(Debug, Clone)]
pub struct SimpleSigMachine {
    target: QueryTarget,
    query: Signature,
    data_size: Ticks,
    false_drops: u32,
    checking_data: bool,
    /// Records ruled out so far; absence is concluded at full coverage
    /// (sound even when corrupted reads leave holes — see
    /// [`bda_core::Coverage`]).
    coverage: Coverage,
    /// The broadcast's record signatures, shared with the system; row `r`
    /// equals the signature in record `r`'s `RecordSig` bucket.
    table: Arc<SigTable>,
}

impl ProtocolMachine<SigPayload> for SimpleSigMachine {
    const FAST_FORWARD: bool = true;

    fn start(&mut self, _tune_in: Ticks) -> Action {
        self.coverage.clear();
        self.false_drops = 0;
        self.checking_data = false;
        Action::ReadNext
    }

    /// Signature buckets are the scheme's index structure; only record
    /// downloads (true hits *and* false drops) count as data reads.
    fn bucket_kind(&self, payload: &SigPayload) -> bda_core::BucketKind {
        match payload {
            SigPayload::Data { .. } => bda_core::BucketKind::Data,
            _ => bda_core::BucketKind::Index,
        }
    }

    /// A corrupted bucket may have been the target's signature or data: it
    /// stays uncovered and will be re-examined on a later cycle; realign on
    /// the next signature meanwhile.
    fn on_corrupt(&mut self, _meta: BucketMeta) -> Action {
        self.checking_data = false;
        Action::ReadNext
    }

    /// Coverage is indexed by build-bound `record_index`; a rebuilt
    /// program renumbers records, so the scan restarts from scratch.
    fn on_stale(&mut self, _meta: BucketMeta) -> StaleResponse {
        StaleResponse::Respawn
    }

    fn on_bucket(&mut self, payload: &SigPayload, meta: BucketMeta) -> Action {
        match payload {
            SigPayload::RecordSig { sig, record_index } => {
                debug_assert!(!self.checking_data, "signature where data expected");
                if sig.matches(&self.query) {
                    self.checking_data = true;
                    Action::ReadNext
                } else {
                    // A non-matching signature rules its record out.
                    self.coverage.mark(*record_index);
                    if self.coverage.is_full() {
                        Action::Finish(Verdict::not_found().with_false_drops(self.false_drops))
                    } else {
                        // Doze over the data bucket to the next signature.
                        Action::DozeTo(meta.end.saturating_add(self.data_size))
                    }
                }
            }
            SigPayload::Data {
                key,
                attrs,
                record_index,
            } => {
                let was_checking = std::mem::take(&mut self.checking_data);
                if self.target.satisfied_by(*key, attrs) {
                    // (An alignment read can legitimately land on the
                    // target — the record contents are right there.)
                    return Action::Finish(Verdict::found().with_false_drops(self.false_drops));
                }
                if was_checking {
                    // Matching signature, wrong record: a false drop.
                    self.false_drops += 1;
                }
                // Either way this record is now ruled out.
                self.coverage.mark(*record_index);
                if self.coverage.is_full() {
                    Action::Finish(Verdict::not_found().with_false_drops(self.false_drops))
                } else {
                    Action::ReadNext
                }
            }
            SigPayload::GroupSig { .. } => {
                debug_assert!(false, "group signatures do not appear in simple layout");
                Action::ReadNext
            }
        }
    }

    /// Bulk-consume the sift loop: non-matching record signatures are
    /// mark-and-doze pairs, and even a false drop (matching signature,
    /// wrong record) is a mechanical read-count-mark sequence. Stop only
    /// on a genuine decision point — the bucket that satisfies the query,
    /// the read that would complete coverage, a corrupted transmission, or
    /// the probe budget — and leave that bucket to the slow path.
    fn fast_forward(&mut self, ctx: &mut FastForward<'_, SigPayload>) {
        while ctx.can_read() && !ctx.next_corrupt() {
            match ctx.peek() {
                SigPayload::RecordSig { record_index, .. } if !self.checking_data => {
                    let r = *record_index;
                    let hit = self.table.matches(r as usize, &self.query);
                    if !hit && self.coverage.would_fill(r) {
                        return;
                    }
                    if hit {
                        self.checking_data = true;
                        ctx.read(bda_core::BucketKind::Index);
                    } else {
                        self.coverage.mark(r);
                        ctx.read(bda_core::BucketKind::Index);
                        ctx.doze_buckets(1);
                    }
                }
                SigPayload::Data {
                    key,
                    record_index,
                    attrs,
                } => {
                    let r = *record_index;
                    if self.target.satisfied_by(*key, attrs) || self.coverage.would_fill(r) {
                        return;
                    }
                    if std::mem::take(&mut self.checking_data) {
                        self.false_drops += 1;
                    }
                    self.coverage.mark(r);
                    ctx.read(bda_core::BucketKind::Data);
                }
                _ => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::DynSystem;
    use bda_core::Record;

    fn ds(n: u64) -> Dataset {
        Dataset::new(
            (0..n)
                .map(|i| Record::new(Key(i * 5), vec![i * 5, i + 1000, i % 13]))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn layout_alternates_sig_data() {
        let d = ds(10);
        let p = Params::paper();
        let sys = SimpleSignatureScheme::new().build(&d, &p).unwrap();
        let ch = sys.channel();
        assert_eq!(ch.num_buckets(), 20);
        for (i, b) in ch.buckets().iter().enumerate() {
            if i % 2 == 0 {
                assert!(matches!(b.payload, SigPayload::RecordSig { .. }));
                assert_eq!(b.size, sys.sig_bucket_size(&p));
            } else {
                assert!(matches!(b.payload, SigPayload::Data { .. }));
                assert_eq!(b.size, p.data_bucket_size());
            }
        }
    }

    #[test]
    fn every_key_found_from_every_alignment() {
        let d = ds(40);
        let p = Params::paper();
        let sys = SimpleSignatureScheme::new().build(&d, &p).unwrap();
        let cycle = sys.channel().cycle_len();
        for i in 0..40u64 {
            for s in 0..9u64 {
                let out = sys.probe(Key(i * 5), s * cycle / 9 + 13);
                assert!(out.found, "key {} slot {s}", i * 5);
                assert!(!out.aborted);
                assert!(out.tuning <= out.access);
            }
        }
    }

    #[test]
    fn absent_key_scans_all_signatures() {
        let d = ds(40);
        let p = Params::paper();
        let sys = SimpleSignatureScheme::new().build(&d, &p).unwrap();
        let out = sys.probe(Key(7), 0);
        assert!(!out.found);
        assert!(!out.aborted);
        // At least one probe per record signature.
        assert!(out.probes >= 40, "probes={}", out.probes);
    }

    #[test]
    fn tuning_is_much_smaller_than_access() {
        let d = ds(300);
        let p = Params::paper();
        let sys = SimpleSignatureScheme::new().build(&d, &p).unwrap();
        let cycle = sys.channel().cycle_len();
        let mut acc = 0u64;
        let mut tun = 0u64;
        for i in (0..300u64).step_by(7) {
            let out = sys.probe(Key(i * 5), i * 119 % cycle);
            assert!(out.found);
            acc += out.access;
            tun += out.tuning;
        }
        // Clients doze over data buckets: tuning ≪ access (data dominates
        // the cycle, It/Dt ≈ 24/533).
        assert!(tun * 5 < acc, "tuning {tun} vs access {acc}");
    }

    #[test]
    fn false_drops_are_counted_not_fatal() {
        // Tiny signatures collide hard; correctness must be unaffected.
        let d = ds(200);
        let p = Params::paper();
        let sys = SimpleSignatureScheme::with_params(SigParams {
            sig_bytes: 1,
            bits_per_attr: 2,
        })
        .build(&d, &p)
        .unwrap();
        let mut any_drop = false;
        for i in 0..200u64 {
            let out = sys.probe(Key(i * 5), 101);
            assert!(out.found);
            any_drop |= out.false_drops > 0;
        }
        assert!(any_drop, "1-byte signatures must produce false drops");
    }

    #[test]
    fn attribute_queries_find_matching_records() {
        use bda_core::machine::run_machine;
        // Records carry attribute i+1000 — query by it.
        let d = ds(60);
        let p = Params::paper();
        let sys = SimpleSignatureScheme::new().build(&d, &p).unwrap();
        for i in 0..60u64 {
            let m = sys.attr_query(i + 1000);
            let out = run_machine(sys.channel(), m, 31 * i);
            assert!(out.found, "attribute {} not found", i + 1000);
            assert!(!out.aborted);
        }
        // Shared attribute (i % 13): any of several records satisfies.
        let m = sys.attr_query(5);
        let out = run_machine(sys.channel(), m, 0);
        assert!(out.found);
    }

    #[test]
    fn attribute_queries_reject_absent_values() {
        use bda_core::machine::run_machine;
        let d = ds(60);
        let p = Params::paper();
        let sys = SimpleSignatureScheme::new().build(&d, &p).unwrap();
        for v in [999u64, 777_777, 42_424_242] {
            let m = sys.attr_query(v);
            let out = run_machine(sys.channel(), m, 17);
            assert!(!out.found, "phantom attribute {v}");
            assert!(!out.aborted);
            assert!(out.probes >= 60, "must scan every signature");
        }
    }

    #[test]
    fn query_target_semantics() {
        let t = QueryTarget::Key(Key(5));
        assert!(t.satisfied_by(Key(5), &[1, 2]));
        assert!(!t.satisfied_by(Key(6), &[5]));
        let t = QueryTarget::Attribute(7);
        assert!(t.satisfied_by(Key(0), &[3, 7]));
        assert!(t.satisfied_by(Key(7), &[]), "the key is attribute 0");
        assert!(!t.satisfied_by(Key(0), &[3, 4]));
    }

    #[test]
    fn access_time_close_to_flat_broadcast() {
        let d = ds(200);
        let p = Params::paper();
        let sys = SimpleSignatureScheme::new().build(&d, &p).unwrap();
        // Cycle = Nr · (It + Dt): only signature bytes of overhead.
        let it = u64::from(sys.sig_bucket_size(&p));
        let dt = u64::from(p.data_bucket_size());
        assert_eq!(sys.channel().cycle_len(), 200 * (it + dt));
        assert!(it * 10 < dt, "signatures are a small fraction of a record");
    }
}
