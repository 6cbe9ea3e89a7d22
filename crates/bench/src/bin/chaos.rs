//! Chaos soak harness: randomized bursty-channel fault grids against
//! every execution driver, asserting bit-identical agreement per cell.
//!
//! Each cell draws a random scheme, dataset size, channel (i.i.d. or
//! Gilbert–Elliott burst loss, with or without scheduled outage windows),
//! retry policy (bounded/unbounded, exponential back-off, seeded jitter),
//! optional program churn and — on roughly a third of the cells — a
//! multichannel striping group (2–4 channels, randomized tune-switch
//! cost), then runs the same request batch through:
//!
//! * the slab engine with analytical fast-forward **on**,
//! * the slab engine with fast-forward **off** (bucket-by-bucket),
//! * the naive reference heap (the oracle),
//! * the sharded engine at 1 shard and at `#cores` shards,
//! * the isolated direct walker (spot-checked per request).
//!
//! Corruption is a pure function of (bucket instant, seed), so all six
//! executions must agree outcome-for-outcome; any divergence prints a
//! copy-pasteable reproducer (`chaos --cell <seed>` plus the fully
//! decoded channel/outage/policy/churn/group configuration) and
//! per-window context — both drivers' completions folded into windowed
//! time series (one window per broadcast cycle), with the first window
//! whose outcome counters disagree shown side by side — and exits
//! non-zero. `--quick` runs a small grid for CI smoke; the default soak
//! is ~8× larger.
//!
//! Flags: `--quick`, `--seed N`, `--cells N`, `--cell SEED`, `--quiet`.

use bda_bench::SchemeKind;
use bda_core::{
    BurstModel, ChannelModel, DynSystem, ErrorModel, GroupConfig, Key, LossModel, OutageSchedule,
    RetryPolicy, Ticks,
};
use bda_datagen::DatasetBuilder;
use bda_obs::{Completion, MetricsHub, TimeSeries, WindowSpec};
use bda_sim::engine::reference::run_requests_reference;
use bda_sim::{CompletedRequest, Engine, ShardedEngine, UpdateSpec};

/// SplitMix64 — the harness's own deterministic parameter stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// One randomized grid cell, fully determined by its seed.
#[derive(Debug)]
struct Cell {
    seed: u64,
    kind: SchemeKind,
    records: usize,
    requests: usize,
    channel: ChannelModel,
    policy: RetryPolicy,
    /// Percent of records churned per cycle (0 = frozen program).
    churn_pct: u32,
    /// Multichannel striping (`None` = the classic single channel).
    group: Option<GroupConfig>,
}

impl Cell {
    /// Everything needed to rerun this exact cell by hand: a
    /// copy-pasteable invocation (the cell is a pure function of its
    /// seed) followed by the fully decoded configuration — every channel,
    /// outage, policy, churn and channel-group parameter spelled out, so
    /// nothing (in particular a degenerate burst or an implicit outage
    /// schedule) has to be reverse-engineered from the seed.
    fn reproducer(&self) -> String {
        let loss = match &self.channel.loss {
            LossModel::Iid(m) => {
                format!("loss=iid p={:.6} seed=0x{:X}", m.loss_prob, m.seed)
            }
            LossModel::Burst(b) => format!(
                "loss=burst g2b={:.6} b2g={:.6} loss_good={:.6} loss_bad={:.6} seed=0x{:X}",
                b.p_good_to_bad, b.p_bad_to_good, b.loss_good, b.loss_bad, b.seed
            ),
        };
        let o = &self.channel.outages;
        let outages = if self.channel.has_outages() {
            format!(
                "outages every={} len={} seed=0x{:X}",
                o.every, o.len, o.seed
            )
        } else {
            "outages=none".to_string()
        };
        let p = &self.policy;
        let policy = format!(
            "policy retries={:?} backoff={} cap={} jitter={:?} give_up={:?}",
            p.max_retries, p.backoff_cycles, p.backoff_cap_cycles, p.jitter_seed, p.give_up_after
        );
        let group = match &self.group {
            Some(g) => format!("channels={} switch_cost={}", g.channels, g.switch_cost),
            None => "channels=1".to_string(),
        };
        format!(
            "cargo run -p bda-bench --bin chaos -- --cell 0x{:X}\n  \
             # scheme={} records={} requests={} churn={}%\n  \
             # {loss}\n  # {outages}\n  # {policy}\n  # {group}",
            self.seed,
            self.kind.name(),
            self.records,
            self.requests,
            self.churn_pct,
        )
    }
}

/// Draw one cell from the parameter stream.
fn draw_cell(seed: u64) -> Cell {
    let mut rng = Rng(seed);
    let kind = SchemeKind::ALL[rng.below(SchemeKind::ALL.len() as u64) as usize];
    let records = 32 + rng.below(64) as usize;
    let requests = 32 + rng.below(48) as usize;

    // Loss process: i.i.d. ~25%, burst ~75% (the point of the soak).
    let loss = if rng.chance(0.25) {
        ChannelModel::iid(ErrorModel::new(0.02 + 0.28 * rng.unit(), rng.next()))
    } else {
        ChannelModel::burst(BurstModel::new(
            0.01 + 0.2 * rng.unit(), // good→bad
            0.05 + 0.5 * rng.unit(), // bad→good
            0.05 * rng.unit(),       // loss in good state
            0.5 + 0.5 * rng.unit(),  // loss in bad state
            rng.next(),
        ))
    };
    // Outage windows on roughly half the cells, 2–15% of air time.
    let channel = if rng.chance(0.5) {
        let len = 100 + rng.below(400);
        let rate = 0.02 + 0.13 * rng.unit();
        let every = ((len as f64 / rate) as Ticks).max(len);
        loss.with_outages(OutageSchedule::new(every, len, rng.next()))
    } else {
        loss
    };

    // Retry policy: always bounded enough that dead air cannot spin a
    // cell forever, with the resynchronization knobs mixed in.
    let mut policy = RetryPolicy::bounded(8 + rng.below(40) as u32);
    if rng.chance(0.7) {
        policy = policy.with_backoff_cap(1 << rng.below(5));
    }
    if rng.chance(0.6) {
        policy = policy.with_jitter(rng.next());
    }
    let churn_pct = if rng.chance(0.4) {
        5 + rng.below(21) as u32
    } else {
        0
    };
    // Stripe roughly a third of the cells over a channel group, so the
    // soak also differentiates the cross-channel routing, the per-channel
    // fault-seed remix and the tune-switch accounting.
    let group = if rng.chance(0.35) {
        let channels = 2 + rng.below(3) as u32;
        Some(GroupConfig::new(channels, rng.below(600)).expect("2..=4 channels is valid"))
    } else {
        None
    };
    Cell {
        seed,
        kind,
        records,
        requests,
        channel,
        policy,
        churn_pct,
        group,
    }
}

/// Deterministic request mix for a cell: unsorted arrivals with
/// collisions, present and absent keys interleaved.
fn request_mix(ds: &bda_core::Dataset, pool: &[Key], n: usize, rng: &mut Rng) -> Vec<(Ticks, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    (0..n)
        .map(|i| {
            let t = rng.below(12_000);
            let key = if i % 5 == 0 {
                pool[i % pool.len()]
            } else {
                keys[rng.below(keys.len() as u64) as usize]
            };
            (t, key)
        })
        .collect()
}

/// Fold one driver's completion list into a windowed [`TimeSeries`] (one
/// window per broadcast cycle), so a divergence can be located in time.
fn completion_series(completed: &[CompletedRequest], width: Ticks) -> TimeSeries {
    let mut hub = MetricsHub::default();
    hub.enable_windows(WindowSpec::new(width));
    for r in completed {
        hub.complete_at(
            &Completion {
                end_tick: r.arrival + r.outcome.access,
                access: r.outcome.access,
                tuning: r.outcome.tuning,
                retries: r.outcome.retries,
                stale_restarts: r.outcome.stale_restarts,
                version_skews: r.outcome.version_skews,
                found: r.outcome.found,
                abandoned: r.outcome.abandoned,
            },
            None,
        );
    }
    hub.windows.expect("windows were just enabled")
}

/// Attribute a divergence in time: window both drivers' completions and
/// describe the first broadcast cycle whose outcome counters disagree,
/// with both drivers' counters side by side.
fn divergence_context(
    a_label: &str,
    a: &[CompletedRequest],
    b_label: &str,
    b: &[CompletedRequest],
    width: Ticks,
) -> String {
    let (sa, sb) = (completion_series(a, width), completion_series(b, width));
    let ids: std::collections::BTreeSet<u64> = sa
        .windows()
        .map(|(id, _)| id)
        .chain(sb.windows().map(|(id, _)| id))
        .collect();
    let fmt = |label: &str, s: &TimeSeries, id: u64| {
        let [completions, found, abandoned, corrupt_reads, stale_restarts, version_skews, access_ticks, tuning_ticks] =
            s.window(id)
                .map(|w| w.outcome_counters())
                .unwrap_or_default();
        format!(
            "  {label:<22} completions={completions} found={found} abandoned={abandoned} \
             corrupt_reads={corrupt_reads} stale_restarts={stale_restarts} \
             version_skews={version_skews} access={access_ticks} tuning={tuning_ticks}"
        )
    };
    for id in ids {
        let wa = sa
            .window(id)
            .map(|w| w.outcome_counters())
            .unwrap_or_default();
        let wb = sb
            .window(id)
            .map(|w| w.outcome_counters())
            .unwrap_or_default();
        if wa != wb {
            return format!(
                "first divergent window {id} [ticks {}..{}):\n{}\n{}",
                id * width,
                (id + 1) * width,
                fmt(a_label, &sa, id),
                fmt(b_label, &sb, id),
            );
        }
    }
    // Outcomes differed but every windowed counter agrees — the
    // disagreement is in a field the counters do not project (e.g.
    // probes or false drops).
    "no window's outcome counters differ (divergence is outside the counter projection)".into()
}

/// Run one cell through every driver; on divergence, return the failing
/// comparison's label.
fn run_cell(cell: &Cell) -> Result<CellStats, String> {
    let (ds, pool) = DatasetBuilder::new(cell.records, cell.seed ^ 0xD5)
        .build_with_absent_pool(8)
        .map_err(|e| e.to_string())?;
    let params = bda_core::Params::paper();
    let spec = UpdateSpec {
        rate: f64::from(cell.churn_pct) / 100.0,
        seed: cell.seed ^ 0x0DD,
        horizon_cycles: 16,
    };
    let sys: Box<dyn DynSystem> = match (cell.group, cell.churn_pct > 0) {
        (Some(config), true) => cell
            .kind
            .build_multichannel_versioned(&ds, &params, config, spec)
            .map_err(|e| e.to_string())?,
        (Some(config), false) => cell
            .kind
            .build_multichannel(&ds, &params, config, None)
            .map_err(|e| e.to_string())?,
        (None, true) => cell
            .kind
            .build_versioned(&ds, &params, spec)
            .map_err(|e| e.to_string())?,
        (None, false) => cell.kind.build(&ds, &params).map_err(|e| e.to_string())?,
    };
    let requests = request_mix(&ds, &pool, cell.requests, &mut Rng(cell.seed ^ 0x9E9));

    let run_engine = |ff: bool| -> Vec<CompletedRequest> {
        let mut e = Engine::with_channel(sys.as_ref(), cell.channel, cell.policy);
        e.set_fast_forward(ff);
        e.run_batch(&requests)
    };
    let width = sys.cycle_len();
    let fast = run_engine(true);
    let slow = run_engine(false);
    if fast != slow {
        return Err(format!(
            "fast-forward engine ≠ bucket-by-bucket engine\n{}",
            divergence_context("fast-forward", &fast, "bucket-by-bucket", &slow, width)
        ));
    }
    let oracle = run_requests_reference(sys.as_ref(), &requests, cell.channel, cell.policy);
    if fast != oracle {
        return Err(format!(
            "slab engine ≠ reference oracle\n{}",
            divergence_context("slab engine", &fast, "reference oracle", &oracle, width)
        ));
    }
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    for shards in [1, cores] {
        let sharded = ShardedEngine::with_channel(sys.as_ref(), shards, cell.channel, cell.policy)
            .run_batch(&requests);
        if fast != sharded {
            return Err(format!(
                "slab engine ≠ sharded engine at {shards} shards\n{}",
                divergence_context("slab engine", &fast, "sharded engine", &sharded, width)
            ));
        }
    }
    let mut stats = CellStats::default();
    for (i, r) in fast.iter().enumerate() {
        // Spot-check the isolated walker on a deterministic subsample.
        if i % 7 == 0 {
            let direct = sys.probe_with_channel(r.key, r.arrival, cell.channel, cell.policy);
            if r.outcome != direct {
                return Err(format!("engine ≠ direct walker at request {i}"));
            }
        }
        if r.outcome.aborted {
            return Err(format!(
                "protocol aborted at request {i} — never acceptable"
            ));
        }
        stats.retries += u64::from(r.outcome.retries);
        stats.abandoned += u64::from(r.outcome.abandoned);
        stats.stale_restarts += u64::from(r.outcome.stale_restarts);
    }
    Ok(stats)
}

#[derive(Default)]
struct CellStats {
    retries: u64,
    abandoned: u64,
    stale_restarts: u64,
}

/// Parse an integer that may carry a `0x` prefix (cell seeds are printed
/// in hex by the reproducer).
fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() {
    let mut quick = false;
    let mut quiet = false;
    let mut seed = 0xC4A0_5000u64;
    let mut cells: Option<usize> = None;
    let mut one_cell: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--quiet" => quiet = true,
            "--seed" => {
                seed = args
                    .next()
                    .as_deref()
                    .and_then(parse_u64)
                    .unwrap_or_else(|| {
                        eprintln!("--seed requires an integer");
                        std::process::exit(2);
                    });
            }
            "--cells" => {
                cells = Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--cells requires an integer");
                    std::process::exit(2);
                }));
            }
            "--cell" => {
                one_cell = Some(
                    args.next()
                        .as_deref()
                        .and_then(parse_u64)
                        .unwrap_or_else(|| {
                            eprintln!("--cell requires a cell seed (decimal or 0x-hex)");
                            std::process::exit(2);
                        }),
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "chaos — randomized burst/outage/churn differential soak\n\
                     flags: --quick    small CI grid (16 cells)\n       \
                     --cells N  explicit cell count\n       \
                     --seed N   grid seed\n       \
                     --cell S   rerun exactly one cell from its printed seed\n       \
                     --quiet    no per-cell narration"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    // `--cell` replays one cell from a reproducer line, alone: decode it,
    // narrate the full configuration, and exit with the cell's verdict.
    if let Some(cell_seed) = one_cell {
        let cell = draw_cell(cell_seed);
        eprintln!("{}", cell.reproducer());
        match run_cell(&cell) {
            Ok(stats) => {
                println!(
                    "cell 0x{cell_seed:X} ok: all drivers agreed; {} retries, {} abandoned, {} stale restarts",
                    stats.retries, stats.abandoned, stats.stale_restarts
                );
                return;
            }
            Err(why) => {
                eprintln!("DIVERGENCE: {why}");
                std::process::exit(1);
            }
        }
    }
    let n = cells.unwrap_or(if quick { 16 } else { 128 });
    let mut totals = CellStats::default();
    let mut burst_cells = 0usize;
    let mut outage_cells = 0usize;
    let mut churn_cells = 0usize;
    let mut multi_cells = 0usize;
    for i in 0..n {
        let cell = draw_cell(
            seed.wrapping_add(i as u64)
                .wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        if !matches!(cell.channel.loss, bda_core::LossModel::Iid(_)) {
            burst_cells += 1;
        }
        if cell.channel.has_outages() {
            outage_cells += 1;
        }
        if cell.churn_pct > 0 {
            churn_cells += 1;
        }
        if cell.group.is_some() {
            multi_cells += 1;
        }
        match run_cell(&cell) {
            Ok(stats) => {
                if !quiet {
                    eprintln!(
                        "cell {:>3}/{n} ok: {} records={} requests={} retries={} abandoned={} stale={}",
                        i + 1,
                        cell.kind.name(),
                        cell.records,
                        cell.requests,
                        stats.retries,
                        stats.abandoned,
                        stats.stale_restarts,
                    );
                }
                totals.retries += stats.retries;
                totals.abandoned += stats.abandoned;
                totals.stale_restarts += stats.stale_restarts;
            }
            Err(why) => {
                eprintln!("DIVERGENCE: {why}");
                eprintln!("reproduce with:\n{}", cell.reproducer());
                std::process::exit(1);
            }
        }
    }
    // The soak must actually exercise the fault machinery — a grid that
    // never corrupts a read proves nothing.
    if totals.retries == 0 {
        eprintln!("grid produced zero corrupted reads — parameters degenerate");
        std::process::exit(1);
    }
    println!(
        "chaos ok: {n} cells ({burst_cells} burst, {outage_cells} outage, {churn_cells} churn, \
         {multi_cells} multichannel) agreed across all drivers; {} retries, {} abandoned, \
         {} stale restarts",
        totals.retries, totals.abandoned, totals.stale_restarts
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::AccessOutcome;

    fn req(arrival: Ticks, access: Ticks, found: bool) -> CompletedRequest {
        CompletedRequest {
            arrival,
            key: Key(1),
            outcome: AccessOutcome {
                found,
                access,
                tuning: access / 2,
                probes: 1,
                false_drops: 0,
                retries: 0,
                abandoned: !found,
                aborted: false,
                stale_restarts: 0,
                version_skews: 0,
            },
        }
    }

    #[test]
    fn reproducer_decodes_the_full_cell_config() {
        // Scan seeds until the draw covers every decoded section at least
        // once: burst loss, outage schedule, churn and a channel group.
        let mut saw = (false, false, false, false);
        for s in 0..256u64 {
            let cell = draw_cell(s);
            let repro = cell.reproducer();
            assert!(
                repro.starts_with(&format!(
                    "cargo run -p bda-bench --bin chaos -- --cell 0x{s:X}\n"
                )),
                "{repro}"
            );
            assert!(repro.contains("loss="), "{repro}");
            assert!(
                repro.contains("outages every=") || repro.contains("outages=none"),
                "{repro}"
            );
            assert!(repro.contains("policy retries="), "{repro}");
            assert!(repro.contains("channels="), "{repro}");
            match &cell.channel.loss {
                LossModel::Iid(_) => assert!(repro.contains("loss=iid p="), "{repro}"),
                LossModel::Burst(b) => {
                    saw.0 = true;
                    assert!(
                        repro.contains(&format!("loss_bad={:.6}", b.loss_bad)),
                        "{repro}"
                    );
                }
            }
            if cell.channel.has_outages() {
                saw.1 = true;
                assert!(
                    repro.contains(&format!("len={}", cell.channel.outages.len)),
                    "{repro}"
                );
            }
            if cell.churn_pct > 0 {
                saw.2 = true;
                assert!(
                    repro.contains(&format!("churn={}%", cell.churn_pct)),
                    "{repro}"
                );
            }
            if let Some(g) = cell.group {
                saw.3 = true;
                assert!(
                    repro.contains(&format!(
                        "channels={} switch_cost={}",
                        g.channels, g.switch_cost
                    )),
                    "{repro}"
                );
            }
        }
        assert_eq!(
            saw,
            (true, true, true, true),
            "256 seeds must cover burst, outage, churn and multichannel cells"
        );
    }

    #[test]
    fn cell_seed_parses_in_both_radixes() {
        assert_eq!(parse_u64("0x1F"), Some(31));
        assert_eq!(parse_u64("0X1f"), Some(31));
        assert_eq!(parse_u64("31"), Some(31));
        assert_eq!(parse_u64("zzz"), None);
    }

    #[test]
    fn divergence_context_names_the_first_differing_window() {
        // Window width 100. Both drivers agree in window 1; driver B
        // flips a request's outcome in window 3 (end_tick 350).
        let a = vec![req(100, 50, true), req(300, 50, true)];
        let b = vec![req(100, 50, true), req(300, 50, false)];
        let ctx = divergence_context("driver A", &a, "driver B", &b, 100);
        assert!(
            ctx.contains("first divergent window 3 [ticks 300..400)"),
            "{ctx}"
        );
        assert!(ctx.contains("driver A"), "{ctx}");
        assert!(ctx.contains("driver B"), "{ctx}");
        assert!(ctx.contains("found=1"), "{ctx}");
        assert!(ctx.contains("found=0"), "{ctx}");
        // Identical streams produce no locatable window.
        let same = divergence_context("driver A", &a, "driver B", &a.clone(), 100);
        assert!(same.contains("no window"), "{same}");
    }
}
