//! The span sink walkers are generic over, and its two stock impls.
//!
//! Observability that is *sometimes* on must cost nothing when it is off.
//! Dynamic dispatch (`&dyn Recorder`) or an `Option<..>` check per step
//! would tax the hottest loop in the repo — the walker's `step()` — for
//! every caller, instrumented or not. Instead the walkers take a type
//! parameter `R: Recorder` defaulting to [`NoopRecorder`], and guard every
//! instrumentation site with `if R::ENABLED { .. }`. `ENABLED` is an
//! associated `const`, so for the no-op case the branch — and the phase
//! classification feeding it — folds away at compile time and the
//! instrumented walker is the same machine code as the uninstrumented one.

use crate::phase::Phase;

/// A sink for per-step walk spans.
///
/// Implementations with `ENABLED = false` promise their [`Recorder::span`]
/// is a no-op; walkers skip the call (and the phase attribution feeding
/// it) entirely.
pub trait Recorder {
    /// Whether this recorder observes anything. Instrumentation sites are
    /// compiled out when `false`.
    const ENABLED: bool;

    /// One walk step: `phase` consumed `access` bytes of access time, of
    /// which `tuning` bytes were listened to (`tuning == access` for
    /// reads, `tuning == 0` for dozes).
    fn span(&mut self, phase: Phase, access: u64, tuning: u64);

    /// `n` walk steps of the same phase, recorded in bulk: together they
    /// consumed `access` bytes of access time and `tuning` bytes of
    /// tuning time. Used by the analytical fast-forward path, which
    /// accounts a whole run of skipped buckets in one call; recording
    /// `span_n` must be indistinguishable from recording the `n`
    /// constituent spans one by one (same totals, count advanced by `n`).
    fn span_n(&mut self, phase: Phase, n: u64, access: u64, tuning: u64);

    /// The per-phase totals recorded so far, for recorders that keep them.
    /// The default — a recorder that keeps nothing — returns `None`.
    fn spans(&self) -> Option<&PhaseSpans> {
        None
    }
}

/// The default recorder: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn span(&mut self, _phase: Phase, _access: u64, _tuning: u64) {}

    #[inline(always)]
    fn span_n(&mut self, _phase: Phase, _n: u64, _access: u64, _tuning: u64) {}
}

/// A mutable borrow records into the referent, so callers can keep
/// ownership of an accumulating recorder across many walks.
impl<R: Recorder> Recorder for &mut R {
    const ENABLED: bool = R::ENABLED;

    #[inline(always)]
    fn span(&mut self, phase: Phase, access: u64, tuning: u64) {
        (**self).span(phase, access, tuning);
    }

    #[inline(always)]
    fn span_n(&mut self, phase: Phase, n: u64, access: u64, tuning: u64) {
        (**self).span_n(phase, n, access, tuning);
    }

    fn spans(&self) -> Option<&PhaseSpans> {
        (**self).spans()
    }
}

/// Accumulated byte totals for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Access-time bytes attributed to this phase.
    pub access: u64,
    /// Tuning-time bytes attributed to this phase (≤ `access`).
    pub tuning: u64,
    /// Steps attributed to this phase.
    pub count: u64,
}

impl PhaseTotal {
    fn add(&mut self, access: u64, tuning: u64) {
        self.access += access;
        self.tuning += tuning;
        self.count += 1;
    }

    fn add_n(&mut self, n: u64, access: u64, tuning: u64) {
        self.access += access;
        self.tuning += tuning;
        self.count += n;
    }

    fn merge(&mut self, other: &PhaseTotal) {
        self.access += other.access;
        self.tuning += other.tuning;
        self.count += other.count;
    }
}

/// Per-phase span totals — the walk-level decomposition of the paper's
/// two metrics. Exact by construction: [`PhaseSpans::total_access`] equals
/// the walk's access time and [`PhaseSpans::total_tuning`] its tuning
/// time, because every step records its byte deltas as they are paid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSpans {
    totals: [PhaseTotal; Phase::COUNT],
}

impl PhaseSpans {
    /// All-zero spans.
    pub fn new() -> Self {
        PhaseSpans::default()
    }

    /// The accumulated totals for `phase`.
    pub fn get(&self, phase: Phase) -> PhaseTotal {
        self.totals[phase.index()]
    }

    /// Attribute one step to `phase`.
    pub fn add(&mut self, phase: Phase, access: u64, tuning: u64) {
        self.totals[phase.index()].add(access, tuning);
    }

    /// Attribute `n` steps to `phase` in bulk — exactly equivalent to `n`
    /// [`PhaseSpans::add`] calls whose access/tuning deltas sum to
    /// `access`/`tuning` (the fast-forward path's aggregate accounting).
    pub fn add_n(&mut self, phase: Phase, n: u64, access: u64, tuning: u64) {
        self.totals[phase.index()].add_n(n, access, tuning);
    }

    /// Fold another walk's (or another worker's) spans into this one.
    /// Associative and commutative, like every merge in this crate.
    pub fn merge(&mut self, other: &PhaseSpans) {
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            a.merge(b);
        }
    }

    /// Sum of per-phase access bytes — equals the walk's access time.
    pub fn total_access(&self) -> u64 {
        self.totals.iter().map(|t| t.access).sum()
    }

    /// Sum of per-phase tuning bytes — equals the walk's tuning time.
    pub fn total_tuning(&self) -> u64 {
        self.totals.iter().map(|t| t.tuning).sum()
    }

    /// `(phase, totals)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, PhaseTotal)> + '_ {
        Phase::ALL.iter().map(|&p| (p, self.get(p)))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.totals.iter().all(|t| t.count == 0)
    }
}

/// The accumulating recorder: folds every span into a [`PhaseSpans`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanRecorder {
    /// The per-phase totals recorded so far.
    pub spans: PhaseSpans,
}

impl SpanRecorder {
    /// A fresh, all-zero recorder.
    pub fn new() -> Self {
        SpanRecorder::default()
    }
}

impl Recorder for SpanRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn span(&mut self, phase: Phase, access: u64, tuning: u64) {
        self.spans.add(phase, access, tuning);
    }

    #[inline]
    fn span_n(&mut self, phase: Phase, n: u64, access: u64, tuning: u64) {
        self.spans.add_n(phase, n, access, tuning);
    }

    fn spans(&self) -> Option<&PhaseSpans> {
        Some(&self.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_and_total() {
        let mut r = SpanRecorder::new();
        r.span(Phase::InitialProbe, 10, 10);
        r.span(Phase::Doze, 90, 0);
        r.span(Phase::DataRead, 50, 50);
        assert_eq!(r.spans.total_access(), 150);
        assert_eq!(r.spans.total_tuning(), 60);
        assert_eq!(r.spans.get(Phase::Doze).count, 1);
        assert_eq!(r.spans.get(Phase::Retry).count, 0);
        assert!(!r.spans.is_empty());
    }

    #[test]
    fn borrowed_recorder_records_into_referent() {
        let mut r = SpanRecorder::new();
        fn record_step<R: Recorder>(mut sink: R) {
            sink.span(Phase::Retry, 5, 5);
        }
        record_step(&mut r);
        assert_eq!(r.spans.get(Phase::Retry).count, 1);
        // Enablement propagates through the borrow; the no-op stays off.
        const _: () = assert!(<&mut SpanRecorder as Recorder>::ENABLED);
        const _: () = assert!(!NoopRecorder::ENABLED);
    }

    #[test]
    fn bulk_spans_equal_their_constituents() {
        // span_n(phase, n, Σaccess, Σtuning) ≡ the n individual spans.
        let mut one_by_one = SpanRecorder::new();
        for _ in 0..5 {
            one_by_one.span(Phase::IndexTraversal, 24, 24);
            one_by_one.span(Phase::Doze, 533, 0);
        }
        let mut bulk = SpanRecorder::new();
        bulk.span_n(Phase::IndexTraversal, 5, 5 * 24, 5 * 24);
        bulk.span_n(Phase::Doze, 5, 5 * 533, 0);
        assert_eq!(one_by_one.spans, bulk.spans);
        // Zero-count bulk spans are no-ops in every field.
        bulk.span_n(Phase::Retry, 0, 0, 0);
        assert_eq!(one_by_one.spans, bulk.spans);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = PhaseSpans::new();
        a.add(Phase::Doze, 100, 0);
        let mut b = PhaseSpans::new();
        b.add(Phase::Doze, 20, 0);
        b.add(Phase::DataRead, 30, 30);
        a.merge(&b);
        assert_eq!(a.get(Phase::Doze).access, 120);
        assert_eq!(a.get(Phase::Doze).count, 2);
        assert_eq!(a.get(Phase::DataRead).tuning, 30);
        assert_eq!(a.total_access(), 150);
    }
}
