//! The repository benchmark: three workloads of the broadcast testbed,
//! timed end to end, and a traced run that splits the time by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-sweep|crowd-burst|churn-storm> --seed N --seconds S --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare A.json B.json
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`; the
//! untraced run (`--trace 0`) reports the end-to-end metrics, the traced
//! run (`--trace 1`) the per-layer ones. The lines before it give the host
//! manifest and every metric with its unit and direction, and the full
//! result (manifest, metrics, spreads) is also saved under
//! `perfbench/out/`, where `compare` reads it.

mod manifest;
mod metrics;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use manifest::Manifest;
use metrics::{end_to_end, per_layer, stem, MetricDef, Metrics, LAYERS, PAPER_STEMS};
use stats::{geomean, median, quartiles};
use trace::{SpanRec, Tracer};
use workloads::{rep, RepOut, Scale, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <paper-sweep|crowd-burst|churn-storm> --seed N --seconds S --trace <0|1>\n       perfbench compare A.json B.json"
    );
    std::process::exit(2);
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| (1..=600).contains(&s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// What a run reports besides its metrics.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Extra lines for the saved result: spreads, bases, sample counts.
    notes: Vec<(String, String)>,
    /// The traced run's spans, written out once at the end.
    tracer: Option<Tracer>,
}

/// Reps until `seconds` have passed, at least two, so the digests of two
/// reps can be compared.
fn untraced(args: &Args, scale: &Scale) -> Outcome {
    let off = Tracer::new(false);
    let start = Instant::now();
    let mut reps: Vec<RepOut> = Vec::new();
    // Stop before a rep that would overrun the budget, once two have run.
    let budget = args.seconds as f64;
    // Peak memory of one rep: later reps only add allocator churn.
    let mut peak_rss = None;
    while reps.len() < 2 || {
        let spent = start.elapsed().as_secs_f64();
        spent + spent / reps.len() as f64 <= budget
    } {
        reps.push(rep(
            args.workload,
            scale,
            args.seed,
            &off.root("workload.rep", ""),
            false,
            scale.engine_repeats,
        ));
        peak_rss = peak_rss.or_else(stats::peak_rss_mib);
    }
    let mut problems = unique(reps.iter().flat_map(|r| r.problems.iter().cloned()));
    if reps.iter().any(|r| r.digest != reps[0].digest) {
        problems.push("outcome digest differs between reps of one seed".into());
    }
    let rps: Vec<f64> = reps
        .iter()
        .map(|r| r.requests() as f64 / r.timed_s())
        .collect();
    // Each scheme's batch time is the median of its timed batches over
    // all reps; the workload's time is their sum.
    let scheme_secs: Vec<(u64, f64)> = (0..reps[0].runs.len())
        .map(|i| {
            let secs: Vec<f64> = reps
                .iter()
                .flat_map(|r| r.runs[i].samples.iter().copied())
                .collect();
            (reps[0].runs[i].requests, median(&secs))
        })
        .collect();
    let total_requests: u64 = scheme_secs.iter().map(|(n, _)| n).sum();
    let total_secs: f64 = scheme_secs.iter().map(|(_, s)| s).sum();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut m = Metrics::default();
    m.set("requests_per_s", total_requests as f64 / total_secs);
    m.set(
        "requests_per_s_geomean",
        geomean(
            &scheme_secs
                .iter()
                .map(|&(n, s)| n as f64 / s)
                .collect::<Vec<_>>(),
        ),
    );
    m.set("setup_s", median(&setup));
    m.set("peak_rss_mb", peak_rss.unwrap_or(0.0));
    let first = &mut reps[0];
    let samples = first.ticks.len();
    let (a50, t50) = first.ticks.quantile(0.5);
    let (a999, t999) = first.ticks.quantile(0.999);
    m.set("access_ticks_p50", a50 as f64);
    m.set("access_ticks_p999", a999 as f64);
    m.set("tuning_ticks_p50", t50 as f64);
    m.set("tuning_ticks_p999", t999 as f64);
    let spread = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        format!(
            "median {:.6} q1 {q1:.6} q3 {q3:.6} n {}",
            median(xs),
            xs.len()
        )
    };
    let mut notes = vec![
        ("reps".to_string(), reps.len().to_string()),
        ("requests_per_rep".into(), reps[0].requests().to_string()),
        (
            "engine_events_per_rep".into(),
            reps[0].counters.get("engine.events").to_string(),
        ),
        ("tick_samples".into(), samples.to_string()),
        (
            "failed_share".into(),
            format!(
                "{}",
                reps[0].failed as f64 / reps[0].attempted.max(1) as f64
            ),
        ),
        ("digest".into(), format!("{:016x}", reps[0].digest)),
        ("requests_per_s.spread".into(), spread(&rps)),
        (
            "requests_per_s.by_rep".into(),
            rps.iter()
                .map(|r| format!("{r:.0}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("setup_s.spread".into(), spread(&setup)),
    ];
    for s in &reps[0].runs {
        let per: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.runs.iter().find(|x| x.scheme == s.scheme))
            .flat_map(|x| x.samples.iter().map(|secs| x.requests as f64 / secs))
            .collect();
        notes.push((format!("requests_per_s.{}", stem(s.scheme)), spread(&per)));
    }
    Outcome {
        metrics: m,
        attempted: reps[0].attempted,
        failed: reps[0].failed,
        problems,
        notes,
        tracer: None,
    }
}

/// `problems` with repeats removed, in first-seen order.
fn unique(problems: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for p in problems {
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

/// Σ duration in seconds of spans called `name` (on scheme `scope`, if
/// given).
fn span_s(spans: &[SpanRec], name: &str, scope: Option<&str>) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && scope.is_none_or(|sc| s.scope == sc))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum()
}

/// Pairs of an untraced and a traced rep, in alternating order, until
/// half the budget is spent (at least two pairs); then the layer probes,
/// traced, on the last pair's tracer. Both reps of a pair run paper-sweep's
/// cells on the same mirror pool, so their ratio is the cost of the spans.
fn traced(args: &Args, scale: &Scale) -> Outcome {
    let start = Instant::now();
    let mut ratios = Vec::new();
    let mut kept: Option<(Tracer, RepOut)> = None;
    let mut problems = Vec::new();
    let mut digests = Vec::new();
    let run = |tracer: &Tracer| {
        rep(
            args.workload,
            scale,
            args.seed,
            &tracer.root("workload.rep", args.workload.name()),
            true,
            1,
        )
    };
    while ratios.len() < 2 || start.elapsed().as_secs_f64() < args.seconds as f64 / 2.0 {
        // Alternate which variant goes first, so warm-up favours neither.
        let tracer = Tracer::new(true);
        let (plain, out) = if ratios.len() % 2 == 0 {
            let plain = run(&Tracer::new(false));
            (plain, run(&tracer))
        } else {
            let out = run(&tracer);
            (run(&Tracer::new(false)), out)
        };
        ratios.push(out.timed_s() / plain.timed_s());
        digests.push(plain.digest);
        digests.push(out.digest);
        problems.extend(plain.problems);
        problems.extend(out.problems.iter().cloned());
        kept = Some((tracer, out));
    }
    let (tracer, out) = kept.expect("at least one traced rep ran");
    if digests.iter().any(|&d| d != digests[0]) {
        problems.push("outcome digest differs between traced and untraced reps".into());
    }
    let mut counters = out.counters.clone();
    let probes = {
        let root = tracer.root("workload.suite", args.workload.name());
        suite::run(
            args.workload,
            scale,
            args.seed,
            &root,
            &out.cells,
            &mut counters,
            &mut problems,
        )
    };
    let spans = tracer.spans();
    let attribution = tracer.attribute();
    let mut m = Metrics::default();
    let c = |k: &str| counters.get(k);
    m.set("datagen.dataset_s", span_s(&spans, "datagen.dataset", None));
    m.set(
        "datagen.requests_s",
        span_s(&spans, "datagen.requests", None),
    );
    m.set("schemes.build_s", span_s(&spans, "schemes.build", None));
    m.set("schemes.cycle_buckets", c("schemes.cycle_buckets"));
    m.set("server.build_s", span_s(&spans, "server.build", None));
    m.set("server.epochs", c("server.epochs"));
    m.set(
        "server.stale_restarts_per_request",
        c("server.stale_restarts") / c("engine.requests").max(1.0),
    );
    for (name, s) in PAPER_STEMS {
        m.set(
            format!("core.probe_ns.{s}"),
            span_s(&spans, "core.probe", Some(name)) * 1e9
                / c(&format!("core.requests.{s}")).max(1.0),
        );
        m.set(
            format!("simulator.run_s.{s}"),
            span_s(&spans, "simulator.run", Some(name)),
        );
        m.set(
            format!("simulator.rounds.{s}"),
            c(&format!("simulator.rounds.{s}")),
        );
        let requests = c(&format!("engine.requests.{s}")).max(1.0);
        m.set(
            format!("engine.ns_per_request.{s}"),
            span_s(&spans, "engine.run_batch", Some(name)) * 1e9 / requests,
        );
        m.set(
            format!("engine.events_per_request.{s}"),
            c(&format!("engine.events.{s}")) / requests,
        );
    }
    m.set("simulator.requests", c("simulator.requests"));
    m.set(
        "sweep.worker_busy_share",
        span_s(&spans, "sweep.cell", None) / c("sweep.worker_s").max(1e-12),
    );
    m.set(
        "engine.ns_per_event",
        span_s(&spans, "engine.run_batch", None) * 1e9 / c("engine.events").max(1.0),
    );
    m.set(
        "engine.requests_per_wake_batch",
        c("engine.events") / c("engine.wake_batches").max(1.0),
    );
    m.set("engine.peak_in_flight", c("engine.peak_in_flight"));
    let mut notes = Vec::new();
    for (name, p, events) in &probes.ff {
        let s = stem(name);
        m.set(format!("engine.ff_speedup.{s}"), p.ratio);
        m.set(format!("engine.ff_event_ratio.{s}"), *events);
        notes.push((format!("engine.ff_speedup.{s}"), paired_note(p, "ff-off s")));
    }
    m.set(
        "channel.corrupt_read_share",
        c("channel.corrupt_reads") / c("channel.reads").max(1.0),
    );
    m.set(
        "channel.retries_per_request",
        c("channel.retries") / c("engine.requests").max(1.0),
    );
    let sharded = probes.sharded.expect("sharded pair ran");
    m.set("sharded.speedup", sharded.ratio);
    m.set("sharded.shard_s_max", probes.shard_s_max);
    m.set("sharded.merge_s", probes.merge_s);
    m.set("sharded.load_ratio", probes.load_ratio);
    notes.push(("sharded.speedup".into(), paired_note(&sharded, "1-shard s")));
    for (phase, share) in &probes.phase_shares {
        m.set(format!("phase.{phase}.tuning_share"), *share);
    }
    let obs = probes.obs.expect("observation pair ran");
    m.set("obs.overhead", obs.ratio);
    notes.push(("obs.overhead".into(), paired_note(&obs, "observed s")));
    for (name, at, tt) in &probes.model_errors {
        let s = stem(name);
        m.set(format!("analytical.at_error.{s}"), *at);
        m.set(format!("analytical.tt_error.{s}"), *tt);
    }
    m.set("analytical.at_model_error", probes.at_model_error);
    for layer in LAYERS {
        m.set(
            format!("self_s.{layer}"),
            attribution.by_layer.get(layer).copied().unwrap_or(0.0),
        );
    }
    for (layer, s) in &attribution.by_layer {
        if !LAYERS.contains(&layer.as_str()) {
            problems.push(format!(
                "span layer {layer} is not a declared layer ({s} s)"
            ));
        }
    }
    m.set("unattributed_s", attribution.unattributed_s);
    m.set("trace.coverage", attribution.coverage());
    m.set("trace.overhead", median(&ratios));
    if attribution.coverage() < 0.95 {
        problems.push(format!(
            "layer self times cover only {:.3} of the traced wall time",
            attribution.coverage()
        ));
    }
    let (q1, q3) = quartiles(&ratios);
    notes.push((
        "trace.overhead".into(),
        format!(
            "traced/untraced timed s, median {} q1 {q1} q3 {q3} pairs {}",
            median(&ratios),
            ratios.len()
        ),
    ));
    Outcome {
        metrics: m,
        attempted: out.attempted,
        failed: out.failed,
        problems: unique(problems),
        notes,
        tracer: Some(tracer),
    }
}

fn paired_note(p: &stats::Paired, base: &str) -> String {
    format!(
        "median {} q1 {} q3 {} pairs {} base ({base}, median) {}",
        p.ratio, p.q1, p.q3, p.pairs, p.base_a_s
    )
}

fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = argv.skip(1).collect();
        let [a, b] = files.as_slice() else { usage() };
        let read = |p: &str| {
            std::fs::read_to_string(p).unwrap_or_else(|e| {
                eprintln!("cannot read {p}: {e}");
                std::process::exit(1);
            })
        };
        match manifest::compare(&read(a), &read(b)) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = parse_args(argv);
    let manifest = Manifest::collect(args.workload.name(), args.seed, args.seconds, args.trace);
    let scale = Scale::full();
    let mut outcome = if args.trace {
        traced(&args, &scale)
    } else {
        untraced(&args, &scale)
    };
    if let Some(tracer) = &outcome.tracer {
        let path = out_dir().join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match tracer.write_chrome_trace(&path, args.workload.name()) {
            Ok(()) => outcome
                .notes
                .push(("trace_file".into(), path.display().to_string())),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    let defs: Vec<MetricDef> = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    let metrics_json = outcome.metrics.to_json(&defs).unwrap_or_else(|e| {
        eprintln!("benchmark bug: {e}");
        std::process::exit(1);
    });
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;

    println!("manifest {}", manifest.to_json());
    for d in &defs {
        let v = outcome.metrics.get(&d.name).unwrap_or(f64::NAN);
        println!(
            "{:<42} {v:>18.6} {:<6} ({} is better)",
            d.name,
            d.unit,
            d.better.as_str()
        );
    }
    for (k, v) in &outcome.notes {
        println!("note {k}: {v}");
    }
    let notes_json: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", manifest::escape(k), manifest::escape(v)))
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        outcome.attempted, outcome.failed
    );
    let saved = format!(
        "{{\"manifest\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}, \"notes\": {{{}}}}}\n",
        manifest.to_json(),
        outcome.attempted,
        outcome.failed,
        notes_json.join(", ")
    );
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, saved)) {
        eprintln!("could not save {}: {e}", path.display());
    }
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names a `BENCHMARK.json` array lists, read without a JSON
    /// dependency through the `bda-obs` parser.
    fn listed(key: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = bda_obs::export::parse_json(&text).expect("BENCHMARK.json parses");
        let Some(bda_obs::export::Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} array")
        };
        items
            .iter()
            .map(|i| match i.get("name") {
                Some(bda_obs::export::Json::Str(s)) => s.clone(),
                _ => panic!("a {key} entry has no name"),
            })
            .collect()
    }

    fn names(defs: Vec<MetricDef>) -> Vec<String> {
        defs.into_iter().map(|d| d.name).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_declared_metrics_and_workloads() {
        assert_eq!(listed("end_to_end"), names(end_to_end()));
        assert_eq!(listed("per_layer"), names(per_layer()));
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(listed("workloads"), workloads);
    }

    #[test]
    fn every_workload_emits_every_listed_metric_in_both_runs() {
        let scale = Scale::tiny();
        for w in Workload::ALL {
            let args = Args {
                workload: w,
                seed: 5,
                seconds: 1,
                trace: false,
            };
            let plain = untraced(&args, &scale);
            plain
                .metrics
                .to_json(&end_to_end())
                .expect("end-to-end metrics");
            assert!(
                plain.problems.is_empty(),
                "{}: {:?}",
                w.name(),
                plain.problems
            );
            for name in listed("end_to_end") {
                assert!(
                    plain.metrics.get(&name).is_some_and(|v| v > 0.0),
                    "{}: {name}",
                    w.name()
                );
            }
            let args = Args {
                trace: true,
                ..args
            };
            let layered = traced(&args, &scale);
            layered
                .metrics
                .to_json(&per_layer())
                .expect("per-layer metrics");
            assert!(
                layered.problems.is_empty(),
                "{}: {:?}",
                w.name(),
                layered.problems
            );
            for name in listed("per_layer") {
                assert!(layered.metrics.get(&name).is_some(), "{}: {name}", w.name());
            }
            for name in plain.metrics.names().chain(layered.metrics.names()) {
                assert!(metrics::valid_name(name), "{name}");
            }
        }
    }

    #[test]
    fn problems_of_every_rep_are_kept_once() {
        let seen = unique(["a", "b", "a", "c", "b"].map(String::from));
        assert_eq!(seen, ["a", "b", "c"]);
    }

    #[test]
    fn parse_args_requires_every_flag() {
        let a = parse_args(
            [
                "--workload",
                "crowd-burst",
                "--seed",
                "3",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]
            .into_iter()
            .map(String::from),
        );
        assert_eq!(a.workload, Workload::CrowdBurst);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
    }
}
