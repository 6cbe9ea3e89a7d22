//! The benchmark's metric registry and the result line it prints.
//!
//! Every metric either run can emit is declared here once, with its unit
//! and direction; `BENCHMARK.json` lists the same names (a test keeps the
//! two in step). A run fills a [`Metrics`] map and [`Metrics::to_json`]
//! refuses to render one that misses a declared name or holds a value
//! that is not a finite number.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a larger value of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The five schemes of the paper, as `(display name, metric stem)`. Every
/// workload runs them, so per-scheme metrics use exactly this set.
pub const PAPER_STEMS: [(&str, &str); 5] = [
    ("flat", "flat"),
    ("(1,m)", "one_m"),
    ("distributed", "distributed"),
    ("hashing", "hashing"),
    ("signature", "signature"),
];

/// Filesystem- and metric-safe stem of a scheme's display name:
/// `(1,m)` → `one_m`, `integrated-signature` → `integrated_signature`.
pub fn stem(scheme: &str) -> String {
    if scheme == "(1,m)" {
        return "one_m".into();
    }
    scheme
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The layers whose self time the traced run reports (`self_s.<layer>`),
/// named after the repository's modules; `bench` is the benchmark's own
/// output checking.
pub const LAYERS: [&str; 11] = [
    "datagen",
    "schemes",
    "server",
    "core",
    "simulator",
    "sweep",
    "engine",
    "sharded",
    "obs",
    "analytical",
    "bench",
];

/// The walk phases whose share of tuning time the traced run reports.
pub const PHASES: [&str; 7] = [
    "initial_probe",
    "index_traversal",
    "doze",
    "data_read",
    "retry",
    "stale_recovery",
    "channel_switch",
];

/// Metrics of the untraced run: what a user of the testbed sees.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("requests_per_s", "req/s", Higher),
        def("requests_per_s_geomean", "req/s", Higher),
        def("setup_s", "s", Lower),
        def("peak_rss_mb", "MiB", Lower),
        def("access_ticks_p50", "ticks", Lower),
        def("access_ticks_p999", "ticks", Lower),
        def("tuning_ticks_p50", "ticks", Lower),
        def("tuning_ticks_p999", "ticks", Lower),
    ]
}

/// Metrics of the traced run, one group per layer.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut v = vec![
        def("datagen.dataset_s", "s", Lower),
        def("datagen.requests_s", "s", Lower),
        def("schemes.build_s", "s", Lower),
        def("schemes.cycle_buckets", "count", Lower),
        def("server.build_s", "s", Lower),
        def("server.epochs", "count", Lower),
        def("server.stale_restarts_per_request", "ratio", Lower),
    ];
    let per_scheme = |v: &mut Vec<MetricDef>, prefix: &str, unit, better| {
        for (_, s) in PAPER_STEMS {
            v.push(def(format!("{prefix}.{s}"), unit, better));
        }
    };
    per_scheme(&mut v, "core.probe_ns", "ns", Lower);
    per_scheme(&mut v, "simulator.run_s", "s", Lower);
    per_scheme(&mut v, "simulator.rounds", "count", Lower);
    v.push(def("simulator.requests", "count", Lower));
    v.push(def("sweep.worker_busy_share", "ratio", Higher));
    per_scheme(&mut v, "engine.ns_per_request", "ns", Lower);
    per_scheme(&mut v, "engine.events_per_request", "count", Lower);
    v.push(def("engine.ns_per_event", "ns", Lower));
    v.push(def("engine.requests_per_wake_batch", "count", Higher));
    v.push(def("engine.peak_in_flight", "count", Lower));
    per_scheme(&mut v, "engine.ff_speedup", "ratio", Higher);
    per_scheme(&mut v, "engine.ff_event_ratio", "ratio", Higher);
    v.push(def("channel.corrupt_read_share", "ratio", Lower));
    v.push(def("channel.retries_per_request", "count", Lower));
    v.push(def("sharded.speedup", "ratio", Higher));
    v.push(def("sharded.shard_s_max", "s", Lower));
    v.push(def("sharded.merge_s", "s", Lower));
    v.push(def("sharded.load_ratio", "ratio", Lower));
    for p in PHASES {
        v.push(def(format!("phase.{p}.tuning_share"), "ratio", Lower));
    }
    v.push(def("obs.overhead", "ratio", Lower));
    per_scheme(&mut v, "analytical.at_error", "ratio", Lower);
    per_scheme(&mut v, "analytical.tt_error", "ratio", Lower);
    v.push(def("analytical.at_model_error", "ratio", Lower));
    for l in LAYERS {
        v.push(def(format!("self_s.{l}"), "s", Lower));
    }
    v.push(def("unattributed_s", "s", Lower));
    v.push(def("trace.coverage", "ratio", Higher));
    v.push(def("trace.overhead", "ratio", Lower));
    v
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The values one run measured, keyed by declared metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// Render `{"name": {"value": v, "unit": u}, …}` in declaration order,
    /// or name the first declared metric that is missing or not finite.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, d) in defs.iter().enumerate() {
            if !valid_name(&d.name) {
                return Err(format!("metric name {:?} is not [A-Za-z0-9_.-]+", d.name));
            }
            let v = self
                .get(&d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not a finite number: {v}", d.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                // `{}` prints every digit a finite f64 has, as JSON allows.
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&d.name), "illegal metric name {}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate metric {}", d.name);
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn stems_are_filesystem_safe() {
        assert_eq!(stem("(1,m)"), "one_m");
        assert_eq!(stem("integrated-signature"), "integrated_signature");
        for (name, s) in PAPER_STEMS {
            assert_eq!(stem(name), s);
        }
    }

    #[test]
    fn rendering_refuses_missing_and_non_finite_values() {
        let defs = vec![def("a", "s", Better::Lower), def("b", "s", Better::Lower)];
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert!(m.to_json(&defs).unwrap_err().contains('b'));
        m.set("b", f64::NAN);
        assert!(m.to_json(&defs).is_err());
        m.set("b", 2.0);
        assert_eq!(
            m.to_json(&defs).unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}"
        );
    }
}
