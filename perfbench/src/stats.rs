//! Small statistics: medians, quartile spreads, exact percentiles, the
//! outcome digest, and interleaved (ABAB) paired timing.

use std::time::Instant;

/// Median of `xs` (mean of the middle two for even lengths; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method (what Python's
/// `statistics.quantiles(xs, n=4)` returns); both are the sole value for
/// a single sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let at = |p: f64| {
                let m = (n + 1) as f64 * p;
                let j = (m.floor() as usize).clamp(1, n - 1);
                let delta = m - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (at(0.25), at(0.75))
        }
    }
}

/// Geometric mean of positive values (0 if any is not positive).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Nearest-rank `q`-quantile of an ascending slice (0 if empty): the
/// smallest sample with at least `q·n` samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// FNV-1a over a stream of 64-bit words — the tick-domain outcome digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

/// Seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// The outcome of an interleaved A/B timing: the median of the per-pair
/// ratios `a / b`, their quartiles, and the median of `a` — the base the
/// ratio is taken against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    pub ratio: f64,
    pub q1: f64,
    pub q3: f64,
    pub base_a_s: f64,
    pub pairs: usize,
}

/// Time `a` and `b` alternately — one warm-up of each, then `pairs`
/// pairs in ABAB order — and report the ratio `a / b` per pair. Each
/// closure returns the seconds it measured.
pub fn paired(pairs: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Paired {
    a();
    b();
    let mut ratios = Vec::with_capacity(pairs);
    let mut base = Vec::with_capacity(pairs);
    for _ in 0..pairs.max(1) {
        let ta = a();
        let tb = b();
        ratios.push(ta / tb.max(1e-12));
        base.push(ta);
    }
    let (q1, q3) = quartiles(&ratios);
    Paired {
        ratio: median(&ratios),
        q1,
        q3,
        base_a_s: median(&base),
        pairs: ratios.len(),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&xs, 0.5), 500);
        assert_eq!(percentile(&xs, 0.999), 999);
        assert_eq!(percentile(&[7], 0.999), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn paired_alternates_and_reports_ratio() {
        let mut order = Vec::new();
        let order_cell = std::cell::RefCell::new(&mut order);
        let p = paired(
            3,
            || {
                order_cell.borrow_mut().push('A');
                2.0
            },
            || {
                order_cell.borrow_mut().push('B');
                1.0
            },
        );
        assert_eq!(order.iter().collect::<String>(), "ABABABAB");
        assert_eq!(p.ratio, 2.0);
        assert_eq!(p.base_a_s, 2.0);
        assert_eq!(p.pairs, 3);
    }
}
