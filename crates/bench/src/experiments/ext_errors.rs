//! Extension experiment: access methods over an **error-prone channel**
//! (the setting of the paper's reference \[9\], Lo & Chen, IEEE TKDE 2000).
//!
//! Each bucket transmission is lost independently with probability `p`;
//! clients recover per scheme (index schemes restart their protocol,
//! scanning schemes rewind their cycle-coverage counter). The sweep shows
//! how each scheme's access and tuning time degrade with the loss rate —
//! pointer-chasing schemes pay a full protocol restart per lost index
//! bucket, while scanners degrade smoothly.
//!
//! Two execution modes share the sweep grid:
//!
//! * **walker** (default) — one isolated client per query via
//!   [`bda_core::DynSystem::probe_with_channel`]; fastest, the historical
//!   mode.
//! * **engine** (`--engine`) — every cell's queries run as *concurrent
//!   clients* through the slab discrete-event engine
//!   ([`bda_sim::Engine::with_channel`]), exactly the fault-injection
//!   testbed the differential suite verifies. Outcomes are identical per
//!   request (engine ≡ walker — `engine_lossy_equiv` proves it); the
//!   engine mode additionally reports retries per query from
//!   [`bda_sim::EngineStats`].
//!
//! `--updates P` composes a **dynamic broadcast program** with the loss
//! sweep: every cell's system becomes a [`bda_sim::VersionedServer`]
//! mutating `P` % of its records per cycle, so clients ride out packet
//! loss *and* version skew in the same walk (the soak the dynamic
//! differential suite pins). With updates on, a queried key may have been
//! deleted mid-air, so the per-query assertion weakens from "found" to
//! "never aborted, never answered from a stale program".

use bda_core::{ChannelModel, ErrorModel, Key, Params, RetryPolicy, Ticks};
use bda_datagen::{DatasetBuilder, Prng};
use bda_sim::Engine;

use crate::table::Table;
use crate::{Cli, SchemeKind};

/// Loss probabilities swept (percent) — the Fig-4-style 0–25 % range.
pub const LOSS_PCT: [u32; 6] = [0, 2, 5, 10, 20, 25];

/// Mean access/tuning time (plus degradation counters) for one
/// (scheme, loss) cell.
struct CellResult {
    at: f64,
    tt: f64,
    retries_per_query: f64,
    restarts_per_query: f64,
}

/// The cell's query stream: keys drawn from the broadcast set, tune-ins
/// spread over eight cycles. Identical for both execution modes, so
/// `--engine` runs are directly comparable with walker runs.
fn cell_requests(
    dataset: &bda_core::Dataset,
    cycle: Ticks,
    queries: usize,
    seed: u64,
) -> Vec<(Ticks, Key)> {
    let mut rng = Prng::new(seed);
    (0..queries)
        .map(|_| {
            let key = dataset.record(rng.below(dataset.len() as u64) as usize).key;
            (rng.below(cycle * 8), key)
        })
        .collect()
}

fn run_cell_walker(
    sys: &dyn bda_core::DynSystem,
    requests: &[(Ticks, Key)],
    channel: ChannelModel,
    dynamic: bool,
) -> CellResult {
    let mut at = 0f64;
    let mut tt = 0f64;
    let mut retries = 0u64;
    let mut restarts = 0u64;
    for &(tune_in, key) in requests {
        let out = sys.probe_with_channel(key, tune_in, channel, RetryPolicy::UNBOUNDED);
        assert!(!out.aborted, "{} aborted under loss", sys.scheme_name());
        // Under updates the key may have been deleted mid-air; not-found
        // and truthful abandonment are legitimate then.
        if !dynamic {
            assert!(out.found, "{} lost a broadcast key", sys.scheme_name());
        }
        at += out.access as f64;
        tt += out.tuning as f64;
        retries += u64::from(out.retries);
        restarts += u64::from(out.stale_restarts);
    }
    let n = requests.len() as f64;
    CellResult {
        at: at / n,
        tt: tt / n,
        retries_per_query: retries as f64 / n,
        restarts_per_query: restarts as f64 / n,
    }
}

fn run_cell_engine(
    sys: &dyn bda_core::DynSystem,
    requests: &[(Ticks, Key)],
    channel: ChannelModel,
    dynamic: bool,
) -> CellResult {
    let mut engine = Engine::with_channel(sys, channel, RetryPolicy::UNBOUNDED);
    let completed = engine.run_batch(requests);
    let mut at = 0f64;
    let mut tt = 0f64;
    for r in &completed {
        assert!(
            !r.outcome.aborted,
            "{} aborted under loss",
            sys.scheme_name()
        );
        if !dynamic {
            assert!(
                r.outcome.found,
                "{} lost a broadcast key",
                sys.scheme_name()
            );
        }
        at += r.outcome.access as f64;
        tt += r.outcome.tuning as f64;
    }
    let stats = engine.stats();
    if !dynamic {
        assert_eq!(stats.abandoned, 0, "unbounded retries never abandon");
    }
    let n = requests.len() as f64;
    CellResult {
        at: at / n,
        tt: tt / n,
        retries_per_query: stats.corrupt_reads as f64 / n,
        restarts_per_query: stats.stale_restarts as f64 / n,
    }
}

/// Run the error-prone-channel sweep.
pub fn run(cli: &Cli) {
    let params = Params::paper();
    let nr = if cli.quick { 1_000 } else { 5_000 };
    let dataset = DatasetBuilder::new(nr, cli.seed).build().unwrap();
    let queries = if cli.quick { 2_000 } else { 10_000 };

    let spec = cli.update_spec();
    let dynamic = spec.is_some();

    let schemes = SchemeKind::PAPER;
    let headers: Vec<String> = std::iter::once("loss%".to_string())
        .chain(schemes.iter().flat_map(|s| {
            let mut cols = vec![
                format!("{} At", s.name()),
                format!("{} Tt", s.name()),
                format!("{} rt/q", s.name()),
            ];
            if dynamic {
                cols.push(format!("{} rs/q", s.name()));
            }
            cols
        }))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&headers_ref);

    for &pct in &LOSS_PCT {
        let channel = ChannelModel::iid(ErrorModel::new(f64::from(pct) / 100.0, cli.seed ^ 0xE7));
        let mut row = vec![pct.to_string()];
        for &kind in &schemes {
            let sys = match spec {
                Some(s) => kind.build_versioned(&dataset, &params, s).unwrap(),
                None => kind.build(&dataset, &params).unwrap(),
            };
            let seed = cli.seed ^ u64::from(pct) << 32 ^ kind.name().len() as u64;
            let requests = cell_requests(&dataset, sys.cycle_len(), queries, seed);
            let cell = if cli.engine {
                run_cell_engine(sys.as_ref(), &requests, channel, dynamic)
            } else {
                run_cell_walker(sys.as_ref(), &requests, channel, dynamic)
            };
            row.push(format!("{:.0}", cell.at));
            row.push(format!("{:.0}", cell.tt));
            row.push(format!("{:.3}", cell.retries_per_query));
            if dynamic {
                row.push(format!("{:.3}", cell.restarts_per_query));
            }
        }
        t.row(row);
    }

    let update_note = match cli.update_pct {
        0 => String::new(),
        p => format!(", {p}% updates/cycle"),
    };
    println!(
        "# Extension — error-prone channel (Nr = {nr}, {queries} queries/cell, {} mode{update_note})\n",
        if cli.engine {
            "event-engine"
        } else {
            "direct-walker"
        }
    );
    print!("{}", t.render());
    let _ = t.write_csv("ext_errors");
    println!("\n(csv: target/experiments/ext_errors.csv)");
}
