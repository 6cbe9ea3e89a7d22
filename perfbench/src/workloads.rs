//! The three workloads and the repetition each run times.
//!
//! A repetition ("rep") sets up from scratch — datasets, broadcast
//! programs or servers, engine warm-up — and then runs its fixed batch of
//! simulated requests, timed. Everything a rep produces in the tick
//! domain (outcomes, digest, percentiles) is a pure function of the seed,
//! so every rep of a run must agree exactly; host times are what vary.
//!
//! Each call into the program is wrapped in a span of the given tracer;
//! with a disabled tracer the spans cost nothing.

use std::collections::BTreeMap;

use bda_bench::{run_cells, CellSpec, Cli, SchemeKind};
use bda_core::{
    ChannelModel, Dataset, DynSystem, ErrorModel, GroupConfig, Key, Params, RetryPolicy, Ticks,
};
use bda_datagen::{Arrivals, DatasetBuilder, Popularity, Prng, QueryWorkload};
use bda_obs::Histogram;
use bda_sim::{CompletedRequest, Engine, EngineStats, SimConfig, SimReport, Simulator, UpdateSpec};

use crate::metrics::stem;
use crate::stats::{median, percentile, timed, Digest};
use crate::trace::Span;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    CrowdBurst,
    ChurnStorm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::CrowdBurst,
        Workload::ChurnStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::CrowdBurst => "crowd-burst",
            Workload::ChurnStorm => "churn-storm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`] keeps
/// the same shape at a size the unit tests can afford.
#[derive(Debug, Clone)]
pub struct Scale {
    /// paper-sweep: record counts of the sweep's datasets.
    pub sweep_sizes: Vec<usize>,
    /// crowd-burst: records and concurrent clients per scheme.
    pub crowd_records: usize,
    pub crowd_clients: usize,
    /// churn-storm: records and clients per scheme.
    pub churn_records: usize,
    pub churn_clients: usize,
    /// Traced run: requests per scheme in the side probes (direct walker,
    /// fast-forward, sharding, observation).
    pub probe_requests: usize,
    /// Traced run: measured pairs per interleaved A/B ratio.
    pub pairs: usize,
    /// Untraced run: timed batches per scheme after each engine warm-up,
    /// so most of a rep is measurement rather than set-up.
    pub engine_repeats: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            sweep_sizes: bda_bench::experiments::fig4::SIZES.to_vec(),
            crowd_records: 1_000,
            crowd_clients: 100_000,
            churn_records: 1_000,
            churn_clients: 10_000,
            probe_requests: 1_000,
            pairs: 3,
            engine_repeats: 3,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale {
            sweep_sizes: vec![300, 500],
            crowd_records: 200,
            crowd_clients: 2_000,
            churn_records: 200,
            churn_clients: 400,
            probe_requests: 100,
            pairs: 1,
            engine_repeats: 2,
        }
    }
}

/// churn-storm: channels per striped group.
pub const CHURN_CHANNELS: u32 = 4;
/// churn-storm: retune cost between channels, in ticks (the golden
/// corpus's multichannel switch cost).
pub const CHURN_SWITCH: Ticks = 256;
/// churn-storm: i.i.d. probability that a bucket transmission is corrupt.
pub const CHURN_LOSS: f64 = 0.05;
/// churn-storm: share of records inserted, deleted or touched per cycle.
pub const CHURN_RATE: f64 = 0.10;
/// churn-storm: cycle boundaries at which the servers apply updates.
pub const CHURN_HORIZON: u32 = 8;
/// churn-storm: tune-ins are spread uniformly over this many cycles.
pub const CHURN_TUNE_IN_CYCLES: u64 = 4;
/// churn-storm: Zipf skew of the queried keys.
pub const CHURN_THETA: f64 = 1.2;
/// crowd-burst: every client tunes in within this many ticks.
pub const CROWD_WINDOW: u64 = 16;

/// Seed of every workload's broadcast program — its dataset and, for
/// churn-storm, its update stream and channel faults. The program and its
/// channel are a fixed fixture; `--seed` draws what clients do to them:
/// request keys and tune-in times. (Seeding the program too made a few
/// hot keys' fate under churn swing the tick percentiles by 10 % between
/// seeds. Seeding the faults made one seed do 37 % more engine events
/// than another: every client waiting for a hot key shares the fate of
/// its few airings, so a single corrupt airing sends hundreds of them
/// round another cycle.)
pub const PROGRAM_SEED: u64 = 0x0EDB_2002;

/// Host times and size of one scheme's timed batch.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    pub scheme: &'static str,
    /// Requests in one batch.
    pub requests: u64,
    /// Host seconds of each timed run of the batch.
    pub samples: Vec<f64>,
}

impl SchemeRun {
    /// The batch's time in this rep: the median of its samples.
    pub fn secs(&self) -> f64 {
        median(&self.samples)
    }
}

/// Access and tuning time of every completed request: exact samples
/// from the engine workloads, log-bucketed histograms (≤ 3 % relative
/// error, still exact per seed) from the simulator's reports.
#[derive(Debug, Clone)]
pub enum TickSamples {
    Exact {
        access: Vec<u64>,
        tuning: Vec<u64>,
    },
    Hist {
        access: Histogram,
        tuning: Histogram,
    },
}

impl TickSamples {
    /// `(access, tuning)` at quantile `q`.
    pub fn quantile(&mut self, q: f64) -> (u64, u64) {
        match self {
            TickSamples::Exact { access, tuning } => {
                access.sort_unstable();
                tuning.sort_unstable();
                (percentile(access, q), percentile(tuning, q))
            }
            TickSamples::Hist { access, tuning } => (access.quantile(q), tuning.quantile(q)),
        }
    }

    pub fn len(&self) -> u64 {
        match self {
            TickSamples::Exact { access, .. } => access.len() as u64,
            TickSamples::Hist { access, .. } => access.len(),
        }
    }
}

/// Everything one rep produced.
#[derive(Debug, Clone)]
pub struct RepOut {
    pub setup_s: f64,
    pub runs: Vec<SchemeRun>,
    pub ticks: TickSamples,
    pub digest: u64,
    pub attempted: u64,
    /// Abandoned + aborted + wrong answers.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    /// Layer counters gathered at the same call boundaries as the spans.
    pub counters: Counters,
    /// paper-sweep: every cell's report with its record count.
    pub cells: Vec<(usize, SimReport)>,
}

impl RepOut {
    pub fn timed_s(&self) -> f64 {
        self.runs.iter().map(SchemeRun::secs).sum()
    }

    pub fn requests(&self) -> u64 {
        self.runs.iter().map(|r| r.requests).sum()
    }
}

/// Named layer counters (`engine.events.flat`, `simulator.requests`, …).
#[derive(Debug, Clone, Default)]
pub struct Counters(pub BTreeMap<String, f64>);

impl Counters {
    pub fn add(&mut self, name: impl Into<String>, v: f64) {
        *self.0.entry(name.into()).or_default() += v;
    }

    pub fn max(&mut self, name: impl Into<String>, v: f64) {
        let e = self.0.entry(name.into()).or_default();
        *e = e.max(v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Run one rep of `w`. `mirror_sweep` runs paper-sweep's cells on
/// [`sweep_cells`]' mirror pool rather than `run_cells`, so a traced rep
/// and its untraced twin run the same code. `repeats` is how many times
/// the engine workloads time each scheme's batch after its warm-up.
pub fn rep(
    w: Workload,
    scale: &Scale,
    seed: u64,
    root: &Span,
    mirror_sweep: bool,
    repeats: usize,
) -> RepOut {
    match w {
        Workload::PaperSweep => paper_sweep(scale, seed, root, mirror_sweep),
        Workload::CrowdBurst | Workload::ChurnStorm => {
            engine_workload(w, scale, seed, root, repeats)
        }
    }
}

// ---------------------------------------------------------------- inputs

/// The sweep's simulation settings: the experiment binaries' `--quick`
/// confidence and accuracy target, direct walker, exponential arrivals.
pub fn sweep_config(seed: u64) -> SimConfig {
    Cli {
        quick: true,
        seed,
        engine: false,
        update_pct: 0,
        quiet: true,
    }
    .sim_config()
}

/// The dataset of `records` records a workload draws from `seed`.
pub fn dataset(records: usize, seed: u64, span: &Span) -> Dataset {
    let _s = span.child("datagen.dataset", &records.to_string());
    DatasetBuilder::new(records, seed)
        .build()
        .expect("dataset sizes are positive")
}

/// crowd-burst requests: uniform present keys, all tuning in within
/// [`CROWD_WINDOW`] ticks.
pub fn crowd_requests(ds: &Dataset, n: usize, seed: u64) -> Vec<(Ticks, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    let mut rng = Prng::new(seed ^ 0xC20D_B025);
    (0..n)
        .map(|i| {
            let key = keys[rng.below(keys.len() as u64) as usize];
            ((i as u64) % CROWD_WINDOW, key)
        })
        .collect()
}

/// churn-storm draws: a Zipf(θ) key and a tune-in phase in `[0, 1)` of
/// the tune-in span, which each scheme scales by its own cycle length.
pub fn churn_draws(ds: &Dataset, n: usize, seed: u64) -> Vec<(f64, Key)> {
    let mut keys = QueryWorkload::new(
        ds,
        Vec::new(),
        1.0,
        Popularity::Zipf(CHURN_THETA),
        seed ^ 0x21FF,
    );
    let mut rng = Prng::new(seed ^ 0xC4_0125);
    (0..n).map(|_| (rng.f64(), keys.next_key())).collect()
}

/// Scale churn draws to arrivals over `CHURN_TUNE_IN_CYCLES` cycles.
pub fn churn_requests(draws: &[(f64, Key)], cycle_len: Ticks) -> Vec<(Ticks, Key)> {
    let span = (cycle_len * CHURN_TUNE_IN_CYCLES) as f64;
    draws
        .iter()
        .map(|&(phase, key)| ((phase * span) as Ticks, key))
        .collect()
}

/// churn-storm's channel and recovery policy.
pub fn churn_channel() -> (ChannelModel, RetryPolicy) {
    (
        ChannelModel::iid(ErrorModel::new(CHURN_LOSS, PROGRAM_SEED ^ 0x1055)),
        RetryPolicy::UNBOUNDED,
    )
}

/// churn-storm's per-cycle update stream, part of the fixed program.
pub fn churn_spec() -> UpdateSpec {
    UpdateSpec {
        rate: CHURN_RATE,
        seed: PROGRAM_SEED ^ 0x0DD,
        horizon_cycles: CHURN_HORIZON,
    }
}

pub fn churn_group() -> GroupConfig {
    GroupConfig::new(CHURN_CHANNELS, CHURN_SWITCH).expect("a valid group shape")
}

/// Build one scheme's broadcast program for workload `w` over `ds`: a
/// frozen single-channel program, or churn-storm's versioned group.
pub fn build_system(
    w: Workload,
    kind: SchemeKind,
    ds: &Dataset,
    span: &Span,
) -> Box<dyn DynSystem> {
    let params = Params::paper();
    if w == Workload::ChurnStorm {
        let _s = span.child("server.build", kind.name());
        kind.build_multichannel_versioned(ds, &params, churn_group(), churn_spec())
            .expect("versioned group builds")
    } else {
        let _s = span.child("schemes.build", kind.name());
        kind.build(ds, &params).expect("paper parameters are valid")
    }
}

// ---------------------------------------------------------------- checks

/// Fold a scheme's completed requests into the outcome digest.
pub fn digest_completed(d: &mut Digest, scheme: &str, done: &[CompletedRequest]) {
    d.text(scheme);
    for r in done {
        let o = &r.outcome;
        d.word(r.arrival);
        d.word(r.key.0);
        d.word(o.access);
        d.word(o.tuning);
        d.word(u64::from(o.found) | (u64::from(o.abandoned) << 1));
    }
}

/// Fold a simulator report into the outcome digest.
pub fn digest_report(d: &mut Digest, r: &SimReport) {
    d.text(r.scheme);
    for v in [
        r.rounds as u64,
        r.requests,
        r.found,
        r.not_found,
        r.abandoned,
        r.aborted,
        r.false_drops,
        r.retries,
    ] {
        d.word(v);
    }
    for h in [&r.access_hist, &r.tuning_hist] {
        d.word(h.len());
        d.word(h.sum() as u64);
        d.word((h.sum() >> 64) as u64);
        d.word(h.min());
        d.word(h.max());
        for q in [0.5, 0.9, 0.99, 0.999] {
            d.word(h.quantile(q));
        }
    }
}

/// Check one scheme's engine outcomes; returns how many failed. On a
/// frozen program (`truth = Some`) a present key must be found and an
/// absent one must not be.
pub fn check_completed(
    scheme: &str,
    done: &[CompletedRequest],
    truth: Option<&Dataset>,
    problems: &mut Vec<String>,
) -> u64 {
    let mut aborted = 0u64;
    let mut abandoned = 0u64;
    let mut wrong = 0u64;
    for r in done {
        let o = &r.outcome;
        if o.aborted {
            aborted += 1;
        } else if o.abandoned {
            abandoned += 1;
        } else if truth.is_some_and(|ds| ds.contains(r.key) != o.found) {
            wrong += 1;
        }
    }
    if aborted > 0 {
        problems.push(format!("{scheme}: {aborted} requests aborted"));
    }
    if wrong > 0 {
        problems.push(format!("{scheme}: {wrong} wrong answers"));
    }
    aborted + abandoned + wrong
}

/// Replay a deterministic sample of the batch through the direct walker:
/// the engine must have produced exactly the walker's outcome.
fn spot_check_walker(
    scheme: &str,
    sys: &dyn DynSystem,
    done: &[CompletedRequest],
    channel: ChannelModel,
    policy: RetryPolicy,
    problems: &mut Vec<String>,
) {
    let stride = (done.len() / 64).max(1);
    for r in done.iter().step_by(stride) {
        let walked = sys.probe_with_channel(r.key, r.arrival, channel, policy);
        if walked != r.outcome {
            problems.push(format!(
                "{scheme}: engine and direct walker disagree at arrival {} key {}",
                r.arrival, r.key.0
            ));
            return;
        }
    }
}

/// A rep's checks on a simulator report: nothing aborted or abandoned,
/// every (present) key found. Returns how many requests failed.
fn check_report(r: &SimReport, problems: &mut Vec<String>) -> u64 {
    let wrong = r.requests - r.found - r.abandoned - r.aborted;
    if r.aborted > 0 {
        problems.push(format!("{}: {} requests aborted", r.scheme, r.aborted));
    }
    if wrong > 0 {
        problems.push(format!("{}: {wrong} present keys not found", r.scheme));
    }
    r.aborted + r.abandoned + wrong
}

// ---------------------------------------------------------------- engine

/// One scheme's engine batch: a warm-up run (set-up, it fills the slot
/// arena) and `repeats` timed runs, each of which must repeat the warm-up
/// exactly. `done` and `stats` are the first timed run's.
pub struct EnginePass {
    pub warm_s: f64,
    pub samples: Vec<f64>,
    pub done: Vec<CompletedRequest>,
    pub stats: EngineStats,
}

#[allow(clippy::too_many_arguments)]
pub fn engine_pass(
    span: &Span,
    scheme: &str,
    sys: &dyn DynSystem,
    requests: &[(Ticks, Key)],
    channel: ChannelModel,
    policy: RetryPolicy,
    repeats: usize,
    problems: &mut Vec<String>,
) -> EnginePass {
    let mut engine = Engine::with_channel(sys, channel, policy);
    let (warm_s, warm) = timed(|| {
        let _s = span.child("engine.warmup", scheme);
        engine.run_batch(requests)
    });
    let before = engine.stats();
    let mut samples = Vec::with_capacity(repeats);
    let mut first = None;
    for i in 0..repeats.max(1) {
        let (secs, done) = timed(|| {
            let _s = span.child("engine.run_batch", scheme);
            engine.run_batch(requests)
        });
        samples.push(secs);
        if done != warm {
            problems.push(format!("{scheme}: warm-up and timed batch {i} disagree"));
        }
        if first.is_none() {
            first = Some((done, engine.stats()));
        }
    }
    let (done, after) = first.expect("one timed batch ran");
    {
        // Freeing a full slot arena takes measurable time.
        let _s = span.child("engine.drop", scheme);
        drop(engine);
    }
    EnginePass {
        warm_s,
        samples,
        done,
        stats: EngineStats {
            events: after.events - before.events,
            wake_batches: after.wake_batches - before.wake_batches,
            peak_in_flight: after.peak_in_flight,
            completed: after.completed - before.completed,
            corrupt_reads: after.corrupt_reads - before.corrupt_reads,
            abandoned: after.abandoned - before.abandoned,
            stale_restarts: after.stale_restarts - before.stale_restarts,
            version_skews: after.version_skews - before.version_skews,
        },
    }
}

/// Fold one engine pass into the layer counters.
pub fn count_engine(c: &mut Counters, scheme: &str, p: &EnginePass) {
    let s = stem(scheme);
    c.add(format!("engine.requests.{s}"), p.done.len() as f64);
    c.add(format!("engine.events.{s}"), p.stats.events as f64);
    c.add("engine.requests", p.done.len() as f64);
    c.add("engine.events", p.stats.events as f64);
    c.add("engine.wake_batches", p.stats.wake_batches as f64);
    c.max("engine.peak_in_flight", p.stats.peak_in_flight as f64);
    c.add("channel.corrupt_reads", p.stats.corrupt_reads as f64);
    c.add("server.stale_restarts", p.stats.stale_restarts as f64);
    for r in &p.done {
        c.add("channel.reads", f64::from(r.outcome.probes));
        c.add("channel.retries", f64::from(r.outcome.retries));
    }
}

/// crowd-burst and churn-storm: every scheme's batch through one engine.
fn engine_workload(w: Workload, scale: &Scale, seed: u64, root: &Span, repeats: usize) -> RepOut {
    let (records, clients) = match w {
        Workload::CrowdBurst => (scale.crowd_records, scale.crowd_clients),
        _ => (scale.churn_records, scale.churn_clients),
    };
    let (channel, policy) = match w {
        Workload::ChurnStorm => churn_channel(),
        _ => (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
    };
    let mut problems = Vec::new();
    let mut counters = Counters::default();
    let (mut setup_s, (ds, crowd, draws)) = timed(|| {
        let ds = dataset(records, PROGRAM_SEED, root);
        let _s = root.child("datagen.requests", w.name());
        let (crowd, draws) = match w {
            Workload::CrowdBurst => (crowd_requests(&ds, clients, seed), Vec::new()),
            _ => (Vec::new(), churn_draws(&ds, clients, seed)),
        };
        (ds, crowd, draws)
    });
    let truth = (w == Workload::CrowdBurst).then_some(&ds);
    let mut runs = Vec::new();
    let mut digest = Digest::default();
    let (mut access, mut tuning) = (Vec::new(), Vec::new());
    let mut failed = 0;
    for kind in SchemeKind::ALL {
        let (build_s, sys) = timed(|| build_system(w, kind, &ds, root));
        let owned;
        let requests = if w == Workload::CrowdBurst {
            &crowd
        } else {
            owned = churn_requests(&draws, sys.cycle_len());
            &owned
        };
        let pass = engine_pass(
            root,
            kind.name(),
            sys.as_ref(),
            requests,
            channel,
            policy,
            repeats,
            &mut problems,
        );
        setup_s += build_s + pass.warm_s;
        runs.push(SchemeRun {
            scheme: kind.name(),
            requests: pass.done.len() as u64,
            samples: pass.samples.clone(),
        });
        let _check = root.child("bench.check", kind.name());
        count_engine(&mut counters, kind.name(), &pass);
        failed += check_completed(kind.name(), &pass.done, truth, &mut problems);
        spot_check_walker(
            kind.name(),
            sys.as_ref(),
            &pass.done,
            channel,
            policy,
            &mut problems,
        );
        digest_completed(&mut digest, kind.name(), &pass.done);
        access.extend(pass.done.iter().map(|r| r.outcome.access));
        tuning.extend(pass.done.iter().map(|r| r.outcome.tuning));
        drop(pass);
        drop(_check);
        // Freeing a program (churn-storm: a versioned group) takes time too.
        let owner = if w == Workload::ChurnStorm {
            "server.drop"
        } else {
            "schemes.drop"
        };
        let _s = root.child(owner, kind.name());
        drop(sys);
    }
    let attempted = access.len() as u64;
    RepOut {
        setup_s,
        runs,
        ticks: TickSamples::Exact { access, tuning },
        digest: digest.0,
        attempted,
        failed,
        problems,
        counters,
        cells: Vec::new(),
    }
}

// ---------------------------------------------------------------- sweep

/// The per-cell seed `bda_bench::sweep` gives a cell's request stream
/// (the base seed mixed with an FNV-1a hash of the scheme name), so the
/// traced cells below draw the streams `run_cells` would.
fn cell_seed(base: u64, scheme: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in scheme.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    base ^ h
}

/// The worker threads `run_cells` starts for `cells` cells.
pub fn sweep_workers(cells: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cells.max(1))
}

/// Run sweep cells on [`sweep_workers`] workers. Without `mirror`, this is
/// `run_cells` itself; with it, the same cell steps (scheme build, request
/// workload, `Simulator::run`) run on a mirror of its worker pool, each
/// step in its own span, so cell and worker times show when `span` is
/// recording.
pub fn sweep_cells(specs: &[CellSpec<'_>], span: &Span, mirror: bool) -> Vec<SimReport> {
    if !mirror {
        return run_cells(specs).unwrap_or_else(|e| panic!("sweep cell failed: {e}"));
    }
    let scope = specs.first().map_or("", |s| s.kind.name());
    let run = span.child("sweep.run_cells", scope);
    let workers = sweep_workers(specs.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<SimReport>>> =
        specs.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for lane in 1..=workers as u64 {
            let (run, next, slots) = (&run, &next, &slots);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let name = spec.kind.name();
                let cell = run.child_on(lane, "sweep.cell", name);
                let system = {
                    let _s = cell.child("schemes.build", name);
                    spec.kind
                        .build(spec.dataset, &spec.params)
                        .expect("paper parameters are valid")
                };
                let workload = {
                    let _s = cell.child("datagen.requests", name);
                    QueryWorkload::new(
                        spec.dataset,
                        spec.absent_pool.to_vec(),
                        spec.availability,
                        Popularity::Uniform,
                        cell_seed(spec.config.seed, name),
                    )
                };
                let report = {
                    let _s = cell.child("simulator.run", name);
                    Simulator::new(system.as_ref(), workload, spec.config).run()
                };
                *slots[i].lock().expect("cell slot lock poisoned") = Some(report);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("cell slot lock poisoned")
                .expect("every cell ran")
        })
        .collect()
}

/// Fold a scheme's sweep reports into the layer counters.
pub fn count_reports(c: &mut Counters, reports: &[SimReport]) {
    for r in reports {
        let s = stem(r.scheme);
        c.add(format!("simulator.rounds.{s}"), r.rounds as f64);
        c.add("simulator.requests", r.requests as f64);
    }
}

fn paper_sweep(scale: &Scale, seed: u64, root: &Span, mirror: bool) -> RepOut {
    let params = Params::paper();
    let config = sweep_config(seed);
    let (setup_s, datasets) = timed(|| {
        scale
            .sweep_sizes
            .iter()
            .map(|&nr| dataset(nr, PROGRAM_SEED ^ nr as u64, root))
            .collect::<Vec<_>>()
    });
    let mut problems = Vec::new();
    let mut counters = Counters::default();
    let mut runs = Vec::new();
    let mut digest = Digest::default();
    let (mut access, mut tuning) = (Histogram::new(), Histogram::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut cells = Vec::new();
    for kind in SchemeKind::PAPER {
        let specs: Vec<CellSpec> = datasets
            .iter()
            .map(|ds| CellSpec {
                kind,
                dataset: ds,
                absent_pool: &[],
                params,
                availability: 1.0,
                config,
            })
            .collect();
        let (secs, reports) = timed(|| sweep_cells(&specs, root, mirror));
        counters.add("sweep.worker_s", sweep_workers(specs.len()) as f64 * secs);
        let requests: u64 = reports.iter().map(|r| r.requests).sum();
        runs.push(SchemeRun {
            scheme: kind.name(),
            requests,
            samples: vec![secs],
        });
        let _check = root.child("bench.check", kind.name());
        count_reports(&mut counters, &reports);
        for r in &reports {
            failed += check_report(r, &mut problems);
            attempted += r.requests;
            digest_report(&mut digest, r);
            access.merge(&r.access_hist);
            tuning.merge(&r.tuning_hist);
        }
        cells.extend(scale.sweep_sizes.iter().copied().zip(reports));
    }
    RepOut {
        setup_s,
        runs,
        ticks: TickSamples::Hist { access, tuning },
        digest: digest.0,
        attempted,
        failed,
        problems,
        counters,
        cells,
    }
}

/// paper-sweep's arrivals and keys at the simulator's own settings, for
/// the traced run's engine and walker probes.
pub fn sweep_requests(ds: &Dataset, n: usize, seed: u64) -> Vec<(Ticks, Key)> {
    let config = sweep_config(seed);
    let mut arrivals = Arrivals::new(config.mean_interarrival, seed);
    let mut keys = QueryWorkload::uniform(ds, seed ^ 0x5EE9);
    (0..n)
        .map(|_| (arrivals.next_arrival(), keys.next_key()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        let t = Tracer::new(false);
        let root = t.root("workload.rep", "");
        let ds = dataset(200, 7, &root);
        assert_eq!(crowd_requests(&ds, 500, 7), crowd_requests(&ds, 500, 7));
        assert_ne!(crowd_requests(&ds, 500, 7), crowd_requests(&ds, 500, 8));
        assert_eq!(churn_draws(&ds, 500, 7), churn_draws(&ds, 500, 7));
        assert_ne!(churn_draws(&ds, 500, 7), churn_draws(&ds, 500, 8));
        assert_eq!(sweep_requests(&ds, 500, 7), sweep_requests(&ds, 500, 7));
        assert_ne!(sweep_requests(&ds, 500, 7), sweep_requests(&ds, 500, 8));
        let other = dataset(200, 8, &root);
        assert_ne!(
            ds.keys().collect::<Vec<_>>(),
            other.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn crowd_tunes_in_within_the_window() {
        let t = Tracer::new(false);
        let ds = dataset(100, 1, &t.root("workload.rep", ""));
        let reqs = crowd_requests(&ds, 1000, 1);
        assert!(reqs
            .iter()
            .all(|&(t, k)| t < CROWD_WINDOW && ds.contains(k)));
    }

    #[test]
    fn cell_seed_mirrors_the_sweep() {
        // Same hash `bda_bench::sweep` pins: distinct per full name.
        assert_ne!(cell_seed(42, "flat"), cell_seed(42, "(1,m)"));
        assert_eq!(cell_seed(0, ""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn traced_sweep_cells_match_run_cells() {
        let t = Tracer::new(true);
        let root = t.root("workload.rep", "");
        let ds = dataset(300, 3, &root);
        let specs: Vec<CellSpec> = SchemeKind::PAPER
            .iter()
            .map(|&kind| CellSpec {
                kind,
                dataset: &ds,
                absent_pool: &[],
                params: Params::paper(),
                availability: 1.0,
                config: sweep_config(3),
            })
            .collect();
        let plain = sweep_cells(&specs, &root, false);
        let traced = sweep_cells(&specs, &root, true);
        let digest = |rs: &[SimReport]| {
            let mut d = Digest::default();
            rs.iter().for_each(|r| digest_report(&mut d, r));
            d
        };
        assert_eq!(digest(&plain), digest(&traced));
    }

    #[test]
    fn every_workload_repeats_its_digest_and_passes_its_checks() {
        let scale = Scale::tiny();
        for w in Workload::ALL {
            let t = Tracer::new(false);
            let root = t.root("workload.rep", w.name());
            let a = rep(w, &scale, 11, &root, false, scale.engine_repeats);
            let b = rep(w, &scale, 11, &root, true, 1);
            let c = rep(w, &scale, 12, &root, false, 1);
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert_ne!(a.digest, c.digest, "{}", w.name());
            assert!(a.problems.is_empty(), "{}: {:?}", w.name(), a.problems);
            assert_eq!(a.failed, 0, "{}", w.name());
            assert!(a.attempted > 0 && a.ticks.len() == a.attempted);
            let timed = match w {
                Workload::PaperSweep => 1,
                _ => scale.engine_repeats,
            };
            assert!(
                a.runs.iter().all(|r| r.samples.len() == timed),
                "{}",
                w.name()
            );
        }
    }
}
