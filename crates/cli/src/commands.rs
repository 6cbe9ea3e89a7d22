//! The four `bda-cli` commands.

use bda_btree::{DistributedScheme, OneMScheme};
use bda_core::{
    Dataset, DiskConfig, DiskScheme, DynSystem, FlatDisksScheme, GroupConfig, Key, Params, Scheme,
    StripedScheme, System,
};
use bda_datagen::{DatasetBuilder, Popularity, QueryWorkload};
use bda_hash::HashScheme;
use bda_hybrid::HybridScheme;
use bda_obs::{export, MetricsHub, TraceBuilder};
use bda_signature::{
    IntegratedSignatureScheme, MultiLevelSignatureScheme, SimpleSignatureDisksScheme,
    SimpleSignatureScheme,
};
use bda_sim::{SimConfig, Simulator, StripedVersionedServer, UpdateSpec, VersionedServer};

use crate::args::Options;
use crate::trace::{describe, trace_query_channel, Trace};

const SCHEMES: [&str; 8] = [
    "flat",
    "one-m",
    "distributed",
    "hashing",
    "signature",
    "integrated-signature",
    "multilevel-signature",
    "hybrid",
];

/// The schemes with a broadcast-disk (stratified) construction.
const DISK_SCHEMES: [&str; 4] = ["flat", "signature", "hashing", "distributed"];

/// Trace sampling for `--timeline-out`: XOR'd into `--seed` to pick which
/// requests get replayed span timelines (see [`bda_obs::sample_indices`]),
/// and how many per scheme.
const TRACE_SAMPLE_SEED: u64 = 0x7ACE;
const TRACE_SAMPLE_K: usize = 8;

fn params(o: &Options) -> Result<Params, String> {
    Params::with_record_key_ratio(o.ratio).map_err(|e| e.to_string())
}

fn dataset(o: &Options) -> Result<(Dataset, Vec<Key>), String> {
    DatasetBuilder::new(o.records, o.seed)
        .build_with_absent_pool(o.records)
        .map_err(|e| e.to_string())
}

/// Build the stratified (broadcast-disk) variant of a scheme, or explain
/// which schemes support stratification.
fn build_disks(
    name: &str,
    ds: &Dataset,
    p: &Params,
    d: DiskConfig,
) -> Result<Box<dyn DynSystem>, String> {
    let sys: Box<dyn DynSystem> = match name {
        "flat" => Box::new(
            FlatDisksScheme::new(d)
                .build(ds, p)
                .map_err(|e| e.to_string())?,
        ),
        "signature" => Box::new(
            SimpleSignatureDisksScheme::new(d)
                .build(ds, p)
                .map_err(|e| e.to_string())?,
        ),
        "hashing" => Box::new(
            DiskScheme::new(HashScheme::new(), d)
                .build(ds, p)
                .map_err(|e| e.to_string())?,
        ),
        "distributed" => Box::new(
            DiskScheme::new(DistributedScheme::new(), d)
                .build(ds, p)
                .map_err(|e| e.to_string())?,
        ),
        other => {
            return Err(format!(
                "scheme {other:?} has no broadcast-disk construction (try: {})",
                DISK_SCHEMES.join(", ")
            ))
        }
    };
    Ok(sys)
}

/// Build the striped multichannel variant of a scheme: the dataset is
/// split into `config.channels` contiguous slices, each broadcast as a
/// self-contained inner program on its own channel at equal aggregate
/// bandwidth, with the routing directory on channel 0.
fn build_striped(
    name: &str,
    ds: &Dataset,
    p: &Params,
    config: GroupConfig,
) -> Result<Box<dyn DynSystem>, String> {
    fn s<Sch: Scheme>(
        scheme: Sch,
        ds: &Dataset,
        p: &Params,
        config: GroupConfig,
    ) -> Result<Box<dyn DynSystem>, String>
    where
        Sch::System: 'static,
        <Sch::System as System>::Machine: 'static,
    {
        Ok(Box::new(
            StripedScheme::new(scheme, config)
                .build(ds, p)
                .map_err(|e| e.to_string())?,
        ))
    }
    match name {
        "flat" => s(bda_core::FlatScheme, ds, p, config),
        "one-m" | "(1,m)" => s(OneMScheme::new(), ds, p, config),
        "distributed" => s(DistributedScheme::new(), ds, p, config),
        "hashing" => s(HashScheme::new(), ds, p, config),
        "signature" => s(SimpleSignatureScheme::new(), ds, p, config),
        "integrated-signature" => s(IntegratedSignatureScheme::default(), ds, p, config),
        "multilevel-signature" => s(MultiLevelSignatureScheme::default(), ds, p, config),
        "hybrid" => s(HybridScheme::new(), ds, p, config),
        other => Err(format!(
            "unknown scheme {other:?} (try: {})",
            SCHEMES.join(", ")
        )),
    }
}

fn build_dyn(
    name: &str,
    ds: &Dataset,
    p: &Params,
    disks: Option<DiskConfig>,
    group: Option<GroupConfig>,
) -> Result<Box<dyn DynSystem>, String> {
    if let Some(g) = group {
        return build_striped(name, ds, p, g);
    }
    if let Some(d) = disks {
        return build_disks(name, ds, p, d);
    }
    let sys: Box<dyn DynSystem> = match name {
        "flat" => Box::new(
            bda_core::FlatScheme
                .build(ds, p)
                .map_err(|e| e.to_string())?,
        ),
        "one-m" | "(1,m)" => Box::new(OneMScheme::new().build(ds, p).map_err(|e| e.to_string())?),
        "distributed" => Box::new(
            DistributedScheme::new()
                .build(ds, p)
                .map_err(|e| e.to_string())?,
        ),
        "hashing" => Box::new(HashScheme::new().build(ds, p).map_err(|e| e.to_string())?),
        "signature" => Box::new(
            SimpleSignatureScheme::new()
                .build(ds, p)
                .map_err(|e| e.to_string())?,
        ),
        "integrated-signature" => Box::new(
            IntegratedSignatureScheme::default()
                .build(ds, p)
                .map_err(|e| e.to_string())?,
        ),
        "multilevel-signature" => Box::new(
            MultiLevelSignatureScheme::default()
                .build(ds, p)
                .map_err(|e| e.to_string())?,
        ),
        "hybrid" => Box::new(
            HybridScheme::new()
                .build(ds, p)
                .map_err(|e| e.to_string())?,
        ),
        other => {
            return Err(format!(
                "unknown scheme {other:?} (try: {})",
                SCHEMES.join(", ")
            ))
        }
    };
    Ok(sys)
}

/// Build a dynamic broadcast server for `name`: the scheme's program is
/// rebuilt (with a bumped cycle version) after every cycle the update
/// stream changes the dataset.
fn build_versioned(
    name: &str,
    ds: &Dataset,
    p: &Params,
    spec: UpdateSpec,
    disks: Option<DiskConfig>,
    group: Option<GroupConfig>,
) -> Result<Box<dyn DynSystem>, String> {
    fn vs<Sch: Scheme>(
        scheme: Sch,
        ds: &Dataset,
        p: &Params,
        config: GroupConfig,
        spec: UpdateSpec,
    ) -> Result<Box<dyn DynSystem>, String>
    where
        Sch::System: 'static,
        <Sch::System as System>::Machine: 'static,
    {
        Ok(Box::new(
            StripedVersionedServer::build(&scheme, ds, p, config, spec)
                .map_err(|e| e.to_string())?,
        ))
    }
    if let Some(g) = group {
        // A churning multichannel group: one versioned server per
        // channel, churn streams decorrelated per channel.
        return match name {
            "flat" => vs(bda_core::FlatScheme, ds, p, g, spec),
            "one-m" | "(1,m)" => vs(OneMScheme::new(), ds, p, g, spec),
            "distributed" => vs(DistributedScheme::new(), ds, p, g, spec),
            "hashing" => vs(HashScheme::new(), ds, p, g, spec),
            "signature" => vs(SimpleSignatureScheme::new(), ds, p, g, spec),
            "integrated-signature" => vs(IntegratedSignatureScheme::default(), ds, p, g, spec),
            "multilevel-signature" => vs(MultiLevelSignatureScheme::default(), ds, p, g, spec),
            "hybrid" => vs(HybridScheme::new(), ds, p, g, spec),
            other => Err(format!(
                "unknown scheme {other:?} (try: {})",
                SCHEMES.join(", ")
            )),
        };
    }
    fn v<Sch: Scheme>(
        scheme: Sch,
        ds: &Dataset,
        p: &Params,
        spec: UpdateSpec,
    ) -> Result<Box<dyn DynSystem>, String>
    where
        Sch::System: 'static,
        <Sch::System as System>::Machine: 'static,
    {
        Ok(Box::new(
            VersionedServer::build(&scheme, ds, p, spec).map_err(|e| e.to_string())?,
        ))
    }
    if let Some(d) = disks {
        return match name {
            "flat" => v(FlatDisksScheme::new(d), ds, p, spec),
            "signature" => v(SimpleSignatureDisksScheme::new(d), ds, p, spec),
            "hashing" => v(DiskScheme::new(HashScheme::new(), d), ds, p, spec),
            "distributed" => v(DiskScheme::new(DistributedScheme::new(), d), ds, p, spec),
            other => Err(format!(
                "scheme {other:?} has no broadcast-disk construction (try: {})",
                DISK_SCHEMES.join(", ")
            )),
        };
    }
    match name {
        "flat" => v(bda_core::FlatScheme, ds, p, spec),
        "one-m" | "(1,m)" => v(OneMScheme::new(), ds, p, spec),
        "distributed" => v(DistributedScheme::new(), ds, p, spec),
        "hashing" => v(HashScheme::new(), ds, p, spec),
        "signature" => v(SimpleSignatureScheme::new(), ds, p, spec),
        "integrated-signature" => v(IntegratedSignatureScheme::default(), ds, p, spec),
        "multilevel-signature" => v(MultiLevelSignatureScheme::default(), ds, p, spec),
        "hybrid" => v(HybridScheme::new(), ds, p, spec),
        other => Err(format!(
            "unknown scheme {other:?} (try: {})",
            SCHEMES.join(", ")
        )),
    }
}

/// Frozen system or dynamic server, per the `--update-rate` flag.
fn build_system(
    o: &Options,
    name: &str,
    ds: &Dataset,
    p: &Params,
) -> Result<Box<dyn DynSystem>, String> {
    match o.update_spec() {
        Some(spec) => build_versioned(name, ds, p, spec, o.disk_config(), o.group_config()),
        None => build_dyn(name, ds, p, o.disk_config(), o.group_config()),
    }
}

/// `bda-cli inspect` — layout statistics for one scheme.
pub fn inspect(o: &Options) -> Result<(), String> {
    let p = params(o)?;
    let (ds, _) = dataset(o)?;
    let sys = build_dyn(&o.scheme, &ds, &p, o.disk_config(), o.group_config())?;
    let cycle = sys.cycle_len();
    let buckets = sys.num_buckets();
    let data_bytes = ds.len() as u64 * u64::from(p.data_bucket_size());
    println!("scheme            : {}", sys.scheme_name());
    println!("records           : {}", ds.len());
    println!(
        "record/key ratio  : {} ({}B / {}B)",
        p.record_key_ratio(),
        p.record_size,
        p.key_size
    );
    println!("buckets per cycle : {buckets}");
    println!("cycle length      : {cycle} bytes");
    println!(
        "index overhead    : {:.2}% ({} bytes beyond raw data)",
        100.0 * (cycle.saturating_sub(data_bytes)) as f64 / cycle as f64,
        cycle.saturating_sub(data_bytes),
    );

    if let Some(g) = o.group_config() {
        println!(
            "channels          : {} (per-channel bytes air {}× slower — equal aggregate bandwidth)",
            g.channels, g.channels
        );
        println!("switch cost       : {} bytes per retune", g.switch_cost);
        // The typed per-scheme stats below describe the single-channel
        // build; skip them for a channel group.
        return Ok(());
    }
    if let Some(d) = o.disk_config() {
        let layout = bda_core::DiskLayout::new(ds.len(), &d);
        println!(
            "broadcast disks   : {} requested, {} effective",
            d.disks(),
            layout.effective_disks()
        );
        println!(
            "minor cycles      : {}",
            layout.schedule().num_minor_cycles()
        );
        println!(
            "occurrences/cycle : {} ({} records, hot ones repeated)",
            layout.schedule().num_occurrences(),
            ds.len()
        );
        // The typed per-scheme stats below describe the unstratified
        // build; skip them for a stratified program.
        return Ok(());
    }
    // Scheme-specific details where the typed system exposes them.
    match o.scheme.as_str() {
        "distributed" => {
            let sys = DistributedScheme::new()
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            println!("tree levels (k)   : {}", sys.num_levels());
            println!("replicated levels : {} (optimal)", sys.r());
            println!("index segments    : {}", sys.num_segments());
        }
        "one-m" | "(1,m)" => {
            let sys = OneMScheme::new()
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            println!("tree levels (k)   : {}", sys.num_levels());
            println!("data segments (m) : {} (optimal)", sys.m());
            println!("index buckets/copy: {}", sys.index_buckets_per_copy());
        }
        "hashing" => {
            let sys = HashScheme::new()
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            println!("allocated (Na)    : {}", sys.na());
            println!("collisions (Nc)   : {}", sys.num_collisions());
            println!("empty slots       : {}", sys.num_empty());
        }
        _ => {}
    }
    Ok(())
}

/// The channel-fault fragment of a report header: i.i.d. loss, burst
/// parameters, and outage windows, whichever the flags selected.
fn fault_note(o: &Options) -> String {
    let mut note = String::new();
    if let Some((p, q, lg, lb)) = o.burst {
        note.push_str(&format!(" · burst loss {p}%→bad/{q}%→good ({lg}%/{lb}%)"));
    } else if o.loss > 0.0 {
        note.push_str(&format!(" · {}% bucket loss", o.loss));
    }
    if let Some((rate, len)) = o.outage {
        note.push_str(&format!(" · {rate}% outage in {len}B windows"));
    }
    note
}

/// `bda-cli trace` — bucket-by-bucket timeline of one query.
pub fn trace(o: &Options) -> Result<(), String> {
    if o.group_config().is_some() {
        return Err(
            "trace renders a single broadcast channel — drop --channels \
             (inspect, compare and simulate support channel groups)"
                .into(),
        );
    }
    let p = params(o)?;
    let (ds, _) = dataset(o)?;
    let key = match (o.key, o.key_index) {
        (Some(k), _) => Key(k),
        (None, Some(i)) => {
            ds.records()
                .get(i)
                .ok_or_else(|| format!("--key-index {i} out of range (0..{})", ds.len()))?
                .key
        }
        (None, None) => ds.record(ds.len() / 2).key,
    };
    let faults = o.channel_model();
    let policy = o.retry_policy();
    if !o.json && !o.perfetto {
        println!(
            "# {} · {} records · query {} · tune-in {}{}{}\n",
            o.scheme,
            ds.len(),
            key,
            o.tune_in,
            fault_note(o),
            match o.retry {
                Some(n) => format!(" · give up after {n} retries"),
                None => String::new(),
            }
        );
    }
    if let Some(d) = o.disk_config() {
        let t: Trace = match o.scheme.as_str() {
            "flat" => {
                let sys = FlatDisksScheme::new(d)
                    .build(&ds, &p)
                    .map_err(|e| e.to_string())?;
                trace_query_channel(&sys, key, o.tune_in, faults, policy, describe::flat)
            }
            "signature" => {
                let sys = SimpleSignatureDisksScheme::new(d)
                    .build(&ds, &p)
                    .map_err(|e| e.to_string())?;
                trace_query_channel(&sys, key, o.tune_in, faults, policy, describe::sig)
            }
            "hashing" => {
                let sys = DiskScheme::new(HashScheme::new(), d)
                    .build(&ds, &p)
                    .map_err(|e| e.to_string())?;
                trace_query_channel(&sys, key, o.tune_in, faults, policy, describe::hash)
            }
            "distributed" => {
                let sys = DiskScheme::new(DistributedScheme::new(), d)
                    .build(&ds, &p)
                    .map_err(|e| e.to_string())?;
                trace_query_channel(&sys, key, o.tune_in, faults, policy, describe::btree)
            }
            other => {
                return Err(format!(
                    "scheme {other:?} has no broadcast-disk construction (try: {})",
                    DISK_SCHEMES.join(", ")
                ))
            }
        };
        return finish_trace(o, t, key);
    }
    let t: Trace = match o.scheme.as_str() {
        "flat" => {
            let sys = bda_core::FlatScheme
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            trace_query_channel(&sys, key, o.tune_in, faults, policy, describe::flat)
        }
        "one-m" | "(1,m)" => {
            let sys = OneMScheme::new()
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            trace_query_channel(&sys, key, o.tune_in, faults, policy, describe::btree)
        }
        "distributed" => {
            let sys = DistributedScheme::new()
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            trace_query_channel(&sys, key, o.tune_in, faults, policy, describe::btree)
        }
        "hashing" => {
            let sys = HashScheme::new()
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            trace_query_channel(&sys, key, o.tune_in, faults, policy, describe::hash)
        }
        "signature" => {
            let sys = SimpleSignatureScheme::new()
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            trace_query_channel(&sys, key, o.tune_in, faults, policy, describe::sig)
        }
        "integrated-signature" => {
            let sys = IntegratedSignatureScheme::default()
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            trace_query_channel(&sys, key, o.tune_in, faults, policy, describe::sig)
        }
        "multilevel-signature" => {
            let sys = MultiLevelSignatureScheme::default()
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            trace_query_channel(&sys, key, o.tune_in, faults, policy, describe::sig)
        }
        "hybrid" => {
            let sys = HybridScheme::new()
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            trace_query_channel(&sys, key, o.tune_in, faults, policy, describe::hybrid)
        }
        other => {
            return Err(format!(
                "unknown scheme {other:?} (try: {})",
                SCHEMES.join(", ")
            ))
        }
    };
    finish_trace(o, t, key)
}

/// Render a finished trace (shared by the flat-cycle and broadcast-disk
/// paths) and surface protocol aborts as errors.
fn finish_trace(o: &Options, t: Trace, key: Key) -> Result<(), String> {
    if o.perfetto {
        // The same observed walk as `--json`, rendered as a
        // `bda-obs/trace/v1` Perfetto document: one enclosing query span
        // and one nested span per protocol step (phase-named, with its
        // byte deltas and corruption cause as args).
        let mut trace = TraceBuilder::new();
        trace.process_name(1, &o.scheme);
        trace.thread_name(1, 0, &format!("query key {}", key.0));
        trace.span(
            1,
            0,
            "query",
            o.tune_in,
            t.outcome.access,
            &[
                ("key", key.0),
                ("tuning", t.outcome.tuning),
                ("retries", u64::from(t.outcome.retries)),
                ("found", u64::from(t.outcome.found)),
            ],
        );
        for e in &t.events {
            trace.span(
                1,
                0,
                e.phase.name(),
                e.t - e.access,
                e.access,
                &[
                    ("tuning", e.tuning),
                    ("corrupt", u64::from(e.corrupt)),
                    ("outage", u64::from(e.outage)),
                ],
            );
        }
        let doc = trace.finish();
        debug_assert!(bda_obs::validate_trace(&doc).is_ok());
        println!("{doc}");
    } else if o.json {
        // One machine-readable document: every event (no elision), the
        // per-phase span totals, and the outcome.
        print!("{}", t.to_json(&o.scheme, key, o.tune_in));
    } else {
        // Long scans are elided in the middle to keep traces readable.
        const HEAD: usize = 30;
        const TAIL: usize = 10;
        if t.lines.len() <= HEAD + TAIL + 1 {
            for l in &t.lines {
                println!("{l}");
            }
        } else {
            for l in &t.lines[..HEAD] {
                println!("{l}");
            }
            println!("… {} steps elided …", t.lines.len() - HEAD - TAIL);
            for l in &t.lines[t.lines.len() - TAIL..] {
                println!("{l}");
            }
        }
    }
    if t.outcome.aborted {
        return Err("protocol aborted — this is a bug, please report the flags used".into());
    }
    Ok(())
}

/// `bda-cli compare` — quick side-by-side simulation of every scheme.
pub fn compare(o: &Options) -> Result<(), String> {
    let p = params(o)?;
    let (ds, pool) = dataset(o)?;
    let availability = o.availability / 100.0;
    let dynamic = o.update_spec().is_some();
    println!(
        "# {} records · {:.0}% availability · ratio {}{}{}{}\n",
        ds.len(),
        o.availability,
        o.ratio,
        fault_note(o),
        if dynamic {
            format!(" · {}% updates/cycle", o.update_rate)
        } else {
            String::new()
        },
        if o.disks > 1 {
            format!(" · {} broadcast disks", o.disks)
        } else if o.channels > 1 {
            format!(" · {} channels (switch {}B)", o.channels, o.switch_cost)
        } else {
            String::new()
        }
    );
    print!(
        "{:<22} {:>12} {:>12} {:>9} {:>8} {:>7}",
        "scheme", "access(B)", "tuning(B)", "requests", "retry/q", "found%"
    );
    println!("{}", if dynamic { "  restart/q" } else { "" });
    let mut hubs: Vec<(&str, MetricsHub)> = Vec::new();
    // One Perfetto document for the whole comparison: one process lane
    // per scheme, appended as each simulation finishes.
    let mut trace = o.timeline_out.as_ref().map(|_| TraceBuilder::new());
    // Under stratification only the disk-capable schemes compete.
    let schemes: &[&str] = if o.disks > 1 { &DISK_SCHEMES } else { &SCHEMES };
    for (i, &name) in schemes.iter().enumerate() {
        let sys = build_system(o, name, &ds, &p)?;
        let workload = QueryWorkload::new(
            &ds,
            pool.clone(),
            availability,
            Popularity::Uniform,
            o.seed ^ 0x17,
        );
        let mut cfg = SimConfig::quick();
        cfg.event_driven = false;
        cfg.channel = o.channel_model();
        cfg.retry = o.retry_policy();
        cfg.updates = o.update_spec();
        if o.timeline_out.is_some() {
            cfg.window = Some(sys.cycle_len());
        }
        let mut sim = Simulator::new(sys.as_ref(), workload, cfg);
        let r = if let Some(trace) = trace.as_mut() {
            let (r, hub, requests) = sim.run_observed_logged();
            let series = hub
                .windows
                .as_ref()
                .expect("timeline runs collect a windowed series");
            bda_sim::append_scheme_timeline(
                trace,
                i as u64 + 1,
                name,
                sys.as_ref(),
                &requests,
                o.channel_model(),
                o.retry_policy(),
                &[series],
                o.seed ^ TRACE_SAMPLE_SEED,
                TRACE_SAMPLE_K,
            );
            if o.metrics_out.is_some() {
                hubs.push((name, hub));
            }
            r
        } else if o.metrics_out.is_some() {
            let (r, hub) = sim.run_observed();
            hubs.push((name, hub));
            r
        } else {
            sim.run()
        };
        print!(
            "{:<22} {:>12.0} {:>12.0} {:>9} {:>8.3} {:>6.1}%",
            r.scheme,
            r.mean_access(),
            r.mean_tuning(),
            r.requests,
            r.mean_retries(),
            100.0 * r.found as f64 / r.requests as f64,
        );
        if dynamic {
            print!("  {:>9.4}", r.restart_rate());
        }
        println!();
    }
    if let Some(path) = &o.metrics_out {
        let labelled: Vec<(&str, &MetricsHub)> = hubs.iter().map(|(s, h)| (*s, h)).collect();
        std::fs::write(path, export::to_prometheus(&labelled))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "\nwrote Prometheus metrics for {} schemes to {path}",
            hubs.len()
        );
    }
    if let (Some(path), Some(trace)) = (&o.timeline_out, trace) {
        let doc = trace.finish();
        debug_assert!(bda_obs::validate_trace(&doc).is_ok());
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "\nwrote Perfetto timeline for {} schemes to {path} (open in ui.perfetto.dev)",
            schemes.len()
        );
    }
    Ok(())
}

/// `bda-cli simulate` — full testbed run for one scheme.
pub fn simulate(o: &Options) -> Result<(), String> {
    let p = params(o)?;
    let (ds, pool) = dataset(o)?;
    let sys = build_system(o, &o.scheme, &ds, &p)?;
    let workload = QueryWorkload::new(
        &ds,
        pool,
        o.availability / 100.0,
        Popularity::Uniform,
        o.seed ^ 0x17,
    );
    let mut cfg = SimConfig::paper();
    cfg.accuracy = o.accuracy;
    cfg.channel = o.channel_model();
    cfg.retry = o.retry_policy();
    cfg.updates = o.update_spec();
    cfg.shards = o.shards;
    if o.timeline_out.is_some() {
        // One window per broadcast cycle keeps the counter lanes legible.
        cfg.window = Some(sys.cycle_len());
    }
    let mut sim = Simulator::new(sys.as_ref(), workload, cfg);
    let (r, hub, requests) = if o.timeline_out.is_some() {
        let (r, hub, requests) = sim.run_observed_logged();
        (r, Some(hub), requests)
    } else if o.metrics_out.is_some() {
        let (r, hub) = sim.run_observed();
        (r, Some(hub), Vec::new())
    } else {
        (sim.run(), None, Vec::new())
    };
    println!("scheme        : {}", r.scheme);
    println!(
        "requests      : {} ({} rounds{})",
        r.requests,
        r.rounds,
        if r.converged { "" } else { ", NOT converged" }
    );
    println!(
        "access time   : {:.0} ± {:.0} bytes (99% CI)",
        r.access.mean, r.access.ci_half_width
    );
    println!(
        "tuning time   : {:.0} ± {:.0} bytes (99% CI)",
        r.tuning.mean, r.tuning.ci_half_width
    );
    println!("found         : {} / {}", r.found, r.requests);
    println!("false drops   : {}", r.false_drops);
    if o.loss > 0.0 || o.burst.is_some() || o.outage.is_some() {
        println!(
            "corrupt reads : {} ({:.3} retries/query)",
            r.retries,
            r.mean_retries()
        );
        println!(
            "abandoned     : {} ({:.2}% of requests)",
            r.abandoned,
            100.0 * r.abandonment_rate()
        );
    }
    if o.update_rate > 0.0 {
        println!(
            "version skews : {} ({:.4} stale restarts/query)",
            r.version_skews,
            r.restart_rate()
        );
        println!("stale restarts: {}", r.stale_restarts);
    }
    println!("cycle length  : {} bytes", r.cycle_len);
    if o.channels > 1 {
        println!(
            "channels      : {} at equal aggregate bandwidth ({} bytes/retune)",
            o.channels, o.switch_cost
        );
    }
    if o.shards > 1 {
        println!(
            "shards        : {} (deterministic merge — identical to 1)",
            o.shards
        );
    }
    if let (Some(path), Some(hub)) = (&o.metrics_out, &hub) {
        let doc = if path.ends_with(".prom") {
            export::to_prometheus(&[(r.scheme, hub)])
        } else {
            let doc = export::to_json(r.scheme, hub);
            debug_assert!(export::validate(&doc).is_ok());
            doc
        };
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("metrics       : wrote {path}");
    }
    if let (Some(path), Some(hub)) = (&o.timeline_out, &hub) {
        let series = hub
            .windows
            .as_ref()
            .expect("timeline runs collect a windowed series");
        let doc = bda_sim::perfetto_trace(
            r.scheme,
            sys.as_ref(),
            &requests,
            o.channel_model(),
            o.retry_policy(),
            &[series],
            o.seed ^ TRACE_SAMPLE_SEED,
            TRACE_SAMPLE_K,
        );
        debug_assert!(bda_obs::validate_trace(&doc).is_ok());
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("timeline      : wrote {path} (open in ui.perfetto.dev)");
    }
    Ok(())
}
