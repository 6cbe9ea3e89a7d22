//! The traced run's layer probes: every layer the table in the README
//! names, measured on the workload's own dataset and requests by calling
//! its public functions — the direct walker, the engine with fast-forward
//! on and off, the sharded engine at one and two shards, the engine with
//! observation on and off, the versioned server, the simulator through
//! the sweep's cells, and the analytical closed forms.
//!
//! Paired variants alternate ABAB after a warm-up ([`crate::stats::paired`])
//! and report the median ratio with its quartiles and base.

use bda_analytical as model;
use bda_bench::{CellSpec, SchemeKind};
use bda_core::{ChannelModel, Dataset, DynSystem, FlatScheme, Key, Params, RetryPolicy, Ticks};
use bda_obs::{MetricsHub, Phase};
use bda_signature::SigParams;
use bda_sim::{
    CompletedRequest, Engine, ShardedEngine, SimReport, StripedVersionedServer, UpdateSpec,
    VersionedServer,
};

use crate::metrics::stem;
use crate::stats::{paired, timed, Digest, Paired};
use crate::trace::Span;
use crate::workloads::{
    build_system, check_completed, churn_channel, churn_draws, churn_group, churn_requests,
    churn_spec, count_engine, count_reports, crowd_requests, dataset, digest_completed,
    engine_pass, sweep_cells, sweep_config, sweep_requests, sweep_workers, Counters, Scale,
    Workload, PROGRAM_SEED,
};

/// What the probes measured beyond the shared counters.
#[derive(Debug, Default)]
pub struct SuiteOut {
    /// Per paper scheme: fast-forward off/on time ratio and event ratio.
    pub ff: Vec<(&'static str, Paired, f64)>,
    /// One shard over two shards, all paper schemes per variant.
    pub sharded: Option<Paired>,
    /// Σ over schemes of the slowest shard's seconds (two shards).
    pub shard_s_max: f64,
    /// Σ over schemes of the scatter-merge seconds (two shards).
    pub merge_s: f64,
    /// Slowest over mean shard seconds, summed over schemes.
    pub load_ratio: f64,
    /// Observed over plain engine time, all paper schemes per variant.
    pub obs: Option<Paired>,
    /// Share of tuning time per walk phase, from the observed runs.
    pub phase_shares: Vec<(&'static str, f64)>,
    /// Per paper scheme: mean |measured − model| / model of At and Tt.
    pub model_errors: Vec<(&'static str, f64, f64)>,
    /// Mean At error over every modelled cell.
    pub at_model_error: f64,
}

/// One probed scheme: its name, its program over the workload's dataset,
/// and the requests it is probed with.
type Probe = (&'static str, Box<dyn DynSystem>, Vec<(Ticks, Key)>);

/// The workload's channel and recovery policy.
fn channel_of(w: Workload) -> (ChannelModel, RetryPolicy) {
    match w {
        Workload::ChurnStorm => churn_channel(),
        _ => (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
    }
}

/// Run every probe for workload `w` under `root`. `cells` are the sweep
/// reports of paper-sweep's traced rep (empty for the other workloads,
/// which run a one-size sweep over their own dataset here).
pub fn run(
    w: Workload,
    scale: &Scale,
    seed: u64,
    root: &Span,
    cells: &[(usize, SimReport)],
    counters: &mut Counters,
    problems: &mut Vec<String>,
) -> SuiteOut {
    let (channel, policy) = channel_of(w);
    let records = match w {
        Workload::PaperSweep => scale.sweep_sizes[0],
        Workload::CrowdBurst => scale.crowd_records,
        Workload::ChurnStorm => scale.churn_records,
    };
    let ds_seed = if w == Workload::PaperSweep {
        PROGRAM_SEED ^ records as u64
    } else {
        PROGRAM_SEED
    };
    let ds = dataset(records, ds_seed, root);
    let n = scale.probe_requests;
    let draws = (w == Workload::ChurnStorm).then(|| {
        let _s = root.child("datagen.requests", w.name());
        churn_draws(&ds, n, seed)
    });
    let common = {
        let _s = root.child("datagen.requests", w.name());
        match w {
            Workload::PaperSweep => sweep_requests(&ds, n, seed),
            Workload::CrowdBurst => crowd_requests(&ds, n, seed),
            Workload::ChurnStorm => Vec::new(),
        }
    };
    let systems: Vec<Probe> = SchemeKind::PAPER
        .iter()
        .map(|&kind| {
            let sys = build_system(w, kind, &ds, root);
            counters.add("schemes.cycle_buckets", sys.num_buckets() as f64);
            let reqs = match &draws {
                Some(d) => churn_requests(d, sys.cycle_len()),
                None => common.clone(),
            };
            (kind.name(), sys, reqs)
        })
        .collect();
    let truth = (w != Workload::ChurnStorm).then_some(&ds);

    // paper-sweep's own path never reaches the engine; measure it here.
    if w == Workload::PaperSweep {
        for (name, sys, reqs) in &systems {
            let pass = engine_pass(root, name, sys.as_ref(), reqs, channel, policy, 1, problems);
            count_engine(counters, name, &pass);
            check_completed(name, &pass.done, truth, problems);
        }
    }

    for (name, sys, reqs) in &systems {
        let _s = root.child("core.probe", name);
        for &(t, key) in reqs {
            let out = if channel.is_lossless() {
                sys.probe(key, t)
            } else {
                sys.probe_with_channel(key, t, channel, policy)
            };
            std::hint::black_box(out);
        }
        counters.add(format!("core.requests.{}", stem(name)), reqs.len() as f64);
    }

    let mut out = SuiteOut {
        ff: systems
            .iter()
            .map(|(name, sys, reqs)| {
                let (p, events) = ff_pair(
                    root,
                    name,
                    sys.as_ref(),
                    reqs,
                    channel,
                    policy,
                    scale,
                    problems,
                );
                (*name, p, events)
            })
            .collect(),
        ..SuiteOut::default()
    };
    sharded_pair(root, &systems, channel, policy, scale, problems, &mut out);
    obs_pair(root, &systems, channel, policy, scale, &mut out);
    server_probe(w, &ds, root, counters);

    let sweep_cells_here: Vec<(usize, SimReport)>;
    let modelled = if w == Workload::PaperSweep {
        cells
    } else {
        let specs: Vec<CellSpec> = SchemeKind::PAPER
            .iter()
            .map(|&kind| CellSpec {
                kind,
                dataset: &ds,
                absent_pool: &[],
                params: Params::paper(),
                availability: 1.0,
                config: sweep_config(seed),
            })
            .collect();
        let (secs, reports) = timed(|| sweep_cells(&specs, root, true));
        counters.add("sweep.worker_s", sweep_workers(specs.len()) as f64 * secs);
        count_reports(counters, &reports);
        sweep_cells_here = reports.into_iter().map(|r| (records, r)).collect();
        &sweep_cells_here
    };
    analytical(root, modelled, &mut out);
    out
}

/// Run a batch on `engine` inside a span; seconds and outcomes.
fn run_batch(
    span: &Span,
    label: &str,
    scheme: &str,
    engine: &mut Engine,
    reqs: &[(Ticks, Key)],
) -> (f64, Vec<CompletedRequest>) {
    let _s = span.child(label, scheme);
    timed(|| engine.run_batch(reqs))
}

#[allow(clippy::too_many_arguments)]
fn ff_pair(
    root: &Span,
    name: &str,
    sys: &dyn DynSystem,
    reqs: &[(Ticks, Key)],
    channel: ChannelModel,
    policy: RetryPolicy,
    scale: &Scale,
    problems: &mut Vec<String>,
) -> (Paired, f64) {
    let mut off = Engine::with_channel(sys, channel, policy);
    off.set_fast_forward(false);
    let mut on = Engine::with_channel(sys, channel, policy);
    let (mut off_done, mut on_done) = (Vec::new(), Vec::new());
    let p = paired(
        scale.pairs,
        || {
            let (s, d) = run_batch(root, "engine.ff_off", name, &mut off, reqs);
            off_done = d;
            s
        },
        || {
            let (s, d) = run_batch(root, "engine.ff_on", name, &mut on, reqs);
            on_done = d;
            s
        },
    );
    if off_done != on_done {
        problems.push(format!("{name}: fast-forward changed an outcome"));
    }
    // Both engines ran the same batches, so their totals compare directly.
    let events = off.stats().events as f64 / (on.stats().events as f64).max(1.0);
    (p, events)
}

fn sharded_pair(
    root: &Span,
    systems: &[Probe],
    channel: ChannelModel,
    policy: RetryPolicy,
    scale: &Scale,
    problems: &mut Vec<String>,
    out: &mut SuiteOut,
) {
    let make = |shards| -> Vec<ShardedEngine> {
        systems
            .iter()
            .map(|(_, sys, _)| ShardedEngine::with_channel(sys.as_ref(), shards, channel, policy))
            .collect()
    };
    let (mut one, mut two) = (make(1), make(2));
    let (mut one_digest, mut two_digest) = (Digest::default(), Digest::default());
    let run_all = |engines: &mut Vec<ShardedEngine>, label: &str, digest: &mut Digest| {
        let mut secs = 0.0;
        *digest = Digest::default();
        for (e, (name, _, reqs)) in engines.iter_mut().zip(systems) {
            let _s = root.child(label, name);
            let (s, done) = timed(|| e.run_batch(reqs));
            secs += s;
            digest_completed(digest, name, &done);
        }
        secs
    };
    let p = paired(
        scale.pairs,
        || run_all(&mut one, "sharded.one_shard", &mut one_digest),
        || run_all(&mut two, "sharded.two_shards", &mut two_digest),
    );
    if one_digest != two_digest {
        problems.push("sharded merge differs from the single shard".into());
    }
    let (mut max_sum, mut mean_sum) = (0.0, 0.0);
    for e in &two {
        let secs: Vec<f64> = e.last_runs().iter().map(|r| r.elapsed_sec).collect();
        let max = secs.iter().copied().fold(0.0, f64::max);
        max_sum += max;
        mean_sum += secs.iter().sum::<f64>() / secs.len().max(1) as f64;
        out.merge_s += e.last_merge_sec();
    }
    out.shard_s_max = max_sum;
    out.load_ratio = max_sum / mean_sum.max(1e-12);
    out.sharded = Some(p);
}

fn obs_pair(
    root: &Span,
    systems: &[Probe],
    channel: ChannelModel,
    policy: RetryPolicy,
    scale: &Scale,
    out: &mut SuiteOut,
) {
    let make = |observe: bool| -> Vec<Engine> {
        systems
            .iter()
            .map(|(_, sys, _)| {
                let mut e = Engine::with_channel(sys.as_ref(), channel, policy);
                if observe {
                    e.enable_metrics();
                }
                e
            })
            .collect()
    };
    let (mut observed, mut plain) = (make(true), make(false));
    let run_all = |engines: &mut Vec<Engine>, label: &str| {
        engines
            .iter_mut()
            .zip(systems)
            .map(|(e, (name, _, reqs))| run_batch(root, label, name, e, reqs).0)
            .sum::<f64>()
    };
    out.obs = Some(paired(
        scale.pairs,
        || run_all(&mut observed, "obs.observed"),
        || run_all(&mut plain, "obs.plain"),
    ));
    let hub = MetricsHub::merged(observed.iter_mut().filter_map(|e| e.take_metrics()))
        .unwrap_or_default();
    let total = hub.spans.total_tuning().max(1) as f64;
    out.phase_shares = Phase::ALL
        .iter()
        .map(|&ph| (ph.name(), hub.spans.get(ph).tuning as f64 / total))
        .collect();
}

/// The server layer: the versioned server behind the workload's
/// programs — churn-storm's striped group, or the frozen (single-epoch)
/// server a static workload's program amounts to.
fn server_probe(w: Workload, ds: &Dataset, root: &Span, counters: &mut Counters) {
    let params = Params::paper();
    let _s = root.child("server.build", "flat");
    let epochs = if w == Workload::ChurnStorm {
        let group =
            StripedVersionedServer::build(&FlatScheme, ds, &params, churn_group(), churn_spec())
                .expect("versioned group builds");
        (0..group.num_channels())
            .map(|g| group.channel_server(g).num_epochs())
            .sum::<usize>()
    } else {
        VersionedServer::build(&FlatScheme, ds, &params, UpdateSpec::FROZEN)
            .expect("frozen server builds")
            .num_epochs()
    };
    counters.add("server.epochs", epochs as f64);
}

/// Closed-form At/Tt for a paper scheme at `nr` records.
fn closed_form(scheme: &str, nr: usize) -> Option<model::Model> {
    let p = Params::paper();
    Some(match scheme {
        "flat" => model::flat(&p, nr),
        "(1,m)" => model::one_m(&p, nr, None),
        "distributed" => model::distributed(&p, nr, None),
        "hashing" => model::hash_poisson(&p, nr, 1.0),
        // Datagen records carry 4 attributes, the key among them.
        "signature" => model::signature(&p, &SigParams::default(), 4, nr),
        _ => return None,
    })
}

fn analytical(root: &Span, cells: &[(usize, SimReport)], out: &mut SuiteOut) {
    let _s = root.child("analytical.model", "");
    let mut all = Vec::new();
    for (name, _) in crate::metrics::PAPER_STEMS {
        let (mut at, mut tt, mut n) = (0.0, 0.0, 0.0);
        for (nr, r) in cells.iter().filter(|(_, r)| r.scheme == name) {
            let Some(m) = closed_form(name, *nr) else {
                continue;
            };
            let e = (r.mean_access() - m.access).abs() / m.access;
            at += e;
            tt += (r.mean_tuning() - m.tuning).abs() / m.tuning;
            n += 1.0;
            all.push(e);
        }
        let n = f64::max(n, 1.0);
        out.model_errors.push((name, at / n, tt / n));
    }
    out.at_model_error = all.iter().sum::<f64>() / all.len().max(1) as f64;
}
