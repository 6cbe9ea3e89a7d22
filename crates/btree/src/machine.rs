//! The client access protocol shared by `(1,m)` and distributed indexing.
//!
//! Mirrors the paper's §2.1 protocol:
//!
//! ```text
//! tune into the broadcast channel
//! keep listening until the first complete bucket arrives
//! read the first complete bucket
//! go to the next index segment according to the offset value in the bucket
//! (1) read the index bucket
//!     … follow control index / local index, dozing between probes …
//!     read the time offset to the actual data record, doze, download
//! ```
//!
//! The machine has four states:
//!
//! * **Init** — just tuned in; the first complete bucket only supplies the
//!   offset to the next index segment (unless it happens to *be* a segment
//!   start, in which case it is used directly).
//! * **Orient** — reading an index bucket we navigated to laterally (a
//!   segment start or a control-index target). If the bucket's subtree does
//!   not cover the key, the control index redirects to the deepest ancestor
//!   that does; if no known range covers the key, the key is not broadcast.
//! * **Descend** — walking down the tree via local index entries. The
//!   descent invariant (the key is ≤ the chosen child's max and greater
//!   than the previous child's max) means a non-covering bucket here proves
//!   the key is absent.
//! * **Fetch** — dozing toward the data bucket; reading it completes the
//!   query.

use bda_core::{
    Action, BucketMeta, Key, ProtocolFault, ProtocolMachine, StaleResponse, Ticks, Verdict,
};

use crate::payload::{BTreePayload, IndexBucket};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Init,
    Orient,
    Descend,
    Fetch,
}

/// Client protocol machine for both B+-tree schemes.
#[derive(Debug, Clone)]
pub struct BTreeMachine {
    key: Key,
    num_levels: u32,
    state: State,
}

impl BTreeMachine {
    /// A query for `key` over a tree of `num_levels` index levels.
    pub fn new(key: Key, num_levels: u32) -> Self {
        BTreeMachine {
            key,
            num_levels,
            state: State::Init,
        }
    }

    fn visit_index(&mut self, ib: &IndexBucket, meta: BucketMeta, lateral: bool) -> Action {
        if ib.covers(self.key) {
            // covers(key) implies a child entry exists; a bucket violating
            // that is malformed and surfaces as a typed fault, not a panic.
            let entry = match ib.select_entry(self.key) {
                Some(e) => e,
                None => return Action::Fail(ProtocolFault::DanglingPointer),
            };
            if ib.level + 1 == self.num_levels {
                // Leaf index bucket: entries carry exact record keys.
                if entry.max_key == self.key {
                    self.state = State::Fetch;
                    Action::DozeTo(meta.end.saturating_add(entry.delta))
                } else {
                    Action::Finish(Verdict::not_found())
                }
            } else {
                self.state = State::Descend;
                Action::DozeTo(meta.end.saturating_add(entry.delta))
            }
        } else if lateral {
            // Wrong subtree: follow the control index to the deepest
            // ancestor covering the key (distributed indexing). An empty or
            // non-covering control index means no broadcast subtree contains
            // the key.
            match ib.select_control(self.key) {
                Some(c) => {
                    self.state = State::Orient;
                    Action::DozeTo(meta.end.saturating_add(c.delta))
                }
                None => Action::Finish(Verdict::not_found()),
            }
        } else {
            // Descent invariant violated ⇒ the key falls in a gap between
            // records: it is not broadcast.
            Action::Finish(Verdict::not_found())
        }
    }
}

impl ProtocolMachine<BTreePayload> for BTreeMachine {
    fn start(&mut self, _tune_in: Ticks) -> Action {
        self.state = State::Init;
        Action::ReadNext
    }

    fn bucket_kind(&self, payload: &BTreePayload) -> bda_core::BucketKind {
        match payload {
            BTreePayload::Index(_) => bda_core::BucketKind::Index,
            BTreePayload::Data(_) => bda_core::BucketKind::Data,
        }
    }

    fn on_bucket(&mut self, payload: &BTreePayload, meta: BucketMeta) -> Action {
        match self.state {
            State::Init => {
                if let BTreePayload::Index(ib) = payload {
                    if ib.segment_start {
                        // Lucky tune-in: we are already at a segment start.
                        return self.visit_index(ib, meta, true);
                    }
                }
                self.state = State::Orient;
                Action::DozeTo(meta.end.saturating_add(payload.next_seg_delta()))
            }
            State::Orient | State::Descend => match payload {
                BTreePayload::Index(ib) => {
                    let lateral = self.state == State::Orient;
                    self.visit_index(ib, meta, lateral)
                }
                BTreePayload::Data(_) => {
                    // An index pointer led to a data bucket: builder bug.
                    Action::Fail(ProtocolFault::IndexToData)
                }
            },
            State::Fetch => match payload {
                BTreePayload::Data(db) if db.key == self.key => Action::Finish(Verdict::found()),
                _ => Action::Fail(ProtocolFault::WrongDataBucket),
            },
        }
    }

    /// Every pointer the descent holds — segment offsets, child deltas,
    /// the final data delta — was computed against the build-time cycle
    /// layout. A version change re-shuffles all of them, so the only sound
    /// recovery is a fresh machine re-orienting via the new program's
    /// index segments.
    fn on_stale(&mut self, _meta: BucketMeta) -> StaleResponse {
        StaleResponse::Respawn
    }
}

#[cfg(test)]
mod tests {
    //! Unit tests drive the machine against hand-built payloads; end-to-end
    //! behaviour over real channels is covered in `one_m.rs`,
    //! `distributed.rs` and the integration suite.

    use super::*;
    use crate::payload::{ControlEntry, DataBucket, IndexEntry};

    fn meta(end: Ticks) -> BucketMeta {
        BucketMeta {
            index: 0,
            start: end - 10,
            end,
            size: 10,
            version: 0,
        }
    }

    fn leaf(keys: &[u64], segment_start: bool) -> BTreePayload {
        BTreePayload::Index(IndexBucket {
            level: 0,
            node: 0,
            min_key: Key(keys[0]),
            max_key: Key(*keys.last().unwrap()),
            segment_start,
            entries: keys
                .iter()
                .enumerate()
                .map(|(i, &k)| IndexEntry {
                    max_key: Key(k),
                    delta: 100 * i as Ticks,
                })
                .collect(),
            control: vec![],
            next_seg_delta: 777,
        })
    }

    #[test]
    fn init_uses_lucky_segment_start() {
        let mut m = BTreeMachine::new(Key(20), 1);
        assert_eq!(m.start(0), Action::ReadNext);
        // Tune straight into a segment-start leaf: descend immediately.
        let act = m.on_bucket(&leaf(&[10, 20, 30], true), meta(10));
        assert_eq!(act, Action::DozeTo(10 + 100));
        // Next bucket is the data bucket.
        let act = m.on_bucket(
            &BTreePayload::Data(DataBucket {
                key: Key(20),
                record_index: 1,
                next_seg_delta: 0,
            }),
            meta(110),
        );
        assert_eq!(act, Action::Finish(Verdict::found()));
    }

    #[test]
    fn init_dozes_to_next_segment_otherwise() {
        let mut m = BTreeMachine::new(Key(20), 1);
        m.start(0);
        let act = m.on_bucket(&leaf(&[10, 20, 30], false), meta(10));
        assert_eq!(act, Action::DozeTo(10 + 777));
    }

    #[test]
    fn init_data_bucket_supplies_next_segment() {
        let mut m = BTreeMachine::new(Key(20), 1);
        m.start(0);
        let act = m.on_bucket(
            &BTreePayload::Data(DataBucket {
                key: Key(99),
                record_index: 0,
                next_seg_delta: 555,
            }),
            meta(10),
        );
        assert_eq!(act, Action::DozeTo(10 + 555));
    }

    #[test]
    fn absent_key_detected_at_leaf() {
        let mut m = BTreeMachine::new(Key(25), 1);
        m.start(0);
        let act = m.on_bucket(&leaf(&[10, 20, 30], true), meta(10));
        assert_eq!(act, Action::Finish(Verdict::not_found()));
    }

    #[test]
    fn out_of_range_without_control_is_not_found() {
        let mut m = BTreeMachine::new(Key(500), 1);
        m.start(0);
        let act = m.on_bucket(&leaf(&[10, 20, 30], true), meta(10));
        assert_eq!(act, Action::Finish(Verdict::not_found()));
    }

    #[test]
    fn malformed_buckets_fail_typed_not_panic() {
        // An index bucket that claims to cover the key but has no entries.
        let hollow = BTreePayload::Index(IndexBucket {
            level: 0,
            node: 0,
            min_key: Key(0),
            max_key: Key(100),
            segment_start: true,
            entries: vec![],
            control: vec![],
            next_seg_delta: 0,
        });
        let mut m = BTreeMachine::new(Key(20), 1);
        m.start(0);
        assert_eq!(
            m.on_bucket(&hollow, meta(10)),
            Action::Fail(ProtocolFault::DanglingPointer)
        );

        // A data pointer that resolves to the wrong data bucket.
        let mut m = BTreeMachine::new(Key(20), 1);
        m.start(0);
        assert_eq!(
            m.on_bucket(&leaf(&[10, 20, 30], true), meta(10)),
            Action::DozeTo(10 + 100)
        );
        let act = m.on_bucket(
            &BTreePayload::Data(DataBucket {
                key: Key(999),
                record_index: 0,
                next_seg_delta: 0,
            }),
            meta(110),
        );
        assert_eq!(act, Action::Fail(ProtocolFault::WrongDataBucket));
    }

    #[test]
    fn control_climb_targets_deepest_cover() {
        // A non-root bucket covering 100..200, with control entries for the
        // root (0..1000) and a mid ancestor (50..400).
        let bucket = BTreePayload::Index(IndexBucket {
            level: 2,
            node: 5,
            min_key: Key(100),
            max_key: Key(200),
            segment_start: true,
            entries: vec![IndexEntry {
                max_key: Key(200),
                delta: 0,
            }],
            control: vec![
                ControlEntry {
                    min_key: Key(0),
                    max_key: Key(1000),
                    delta: 9000,
                },
                ControlEntry {
                    min_key: Key(50),
                    max_key: Key(400),
                    delta: 300,
                },
            ],
            next_seg_delta: 0,
        });
        // Key 350: mid ancestor covers → jump 300.
        let mut m = BTreeMachine::new(Key(350), 3);
        m.start(0);
        assert_eq!(m.on_bucket(&bucket, meta(10)), Action::DozeTo(10 + 300));
        // Key 900: only root covers → jump 9000.
        let mut m = BTreeMachine::new(Key(900), 3);
        m.start(0);
        assert_eq!(m.on_bucket(&bucket, meta(10)), Action::DozeTo(10 + 9000));
        // Key 5000: nothing covers → not broadcast.
        let mut m = BTreeMachine::new(Key(5000), 3);
        m.start(0);
        assert_eq!(
            m.on_bucket(&bucket, meta(10)),
            Action::Finish(Verdict::not_found())
        );
    }
}
