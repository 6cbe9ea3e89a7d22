//! Flag parsing for `bda-cli` (std-only, no dependencies).

/// Usage text.
pub const USAGE: &str = "\
bda-cli — explore wireless broadcast data access

USAGE:
    bda-cli <command> [flags]

COMMANDS:
    inspect    print a scheme's broadcast-cycle layout statistics
    trace      print the bucket-by-bucket timeline of one client query
    compare    run a quick simulation of every scheme side by side
    simulate   run the full testbed for one scheme to convergence

FLAGS:
    --scheme NAME        flat | one-m | distributed | hashing | signature |
                         integrated-signature | multilevel-signature
                         (default distributed)
    --records N          dataset size (default 1000)
    --ratio R            record/key ratio 5..=100 (default 20, paper Table 1)
    --seed S             dataset/workload seed (default 2002)
    --key-index I        which record to query, by key order (trace; default N/2)
    --key K              query this raw key value instead (trace)
    --tune-in T          absolute tune-in time in bytes (trace; default 12345)
    --availability P     percent of queries answerable (compare/simulate; default 100)
    --loss P             bucket loss percent on an error-prone channel
                         (trace/compare/simulate; default 0)
    --burst P,Q[,LG,LB]  bursty Gilbert–Elliott channel instead of i.i.d.
                         loss: per-bucket good→bad percent P, bad→good
                         percent Q, loss percent LG in good state (default
                         0) and LB in bad state (default 100); mutually
                         exclusive with --loss (trace/compare/simulate)
    --outage RATE,LEN    periodic outage windows: RATE percent of air time
                         is unusable, in spans of LEN bytes at a
                         seed-jittered position per frame; composes with
                         --loss or --burst (trace/compare/simulate)
    --retry N            give up a query after N corrupted reads
                         (trace/compare/simulate; default: retry forever)
    --update-rate P      percent of records inserted/deleted/updated per
                         broadcast cycle — dynamic broadcast program with
                         versioned cycles (compare/simulate; default 0 =
                         frozen program)
    --disks D            broadcast disks: stratify the program over D
                         popularity-ranked disks with relative spin speeds;
                         hot records repeat every minor cycle (flat |
                         signature | hashing | distributed; default 1 =
                         unstratified, bit-identical to the flat cycle)
    --channels K         multichannel broadcast: stripe the program over K
                         synchronized channels at equal aggregate bandwidth
                         — every per-channel byte airs K× slower, clients
                         retune to the channel that carries their key
                         (inspect/compare/simulate; default 1 = the single
                         channel, bit-identical to no flag)
    --switch-cost S      air time one channel retune costs the client, in
                         bytes (with --channels; default 0)
    --accuracy A         confidence accuracy target, in (0, 1] (simulate;
                         default 0.02)
    --shards N           worker shards for the event-driven testbed: each
                         round is partitioned across N per-core engines
                         and merged deterministically — reports are
                         bit-identical for every N (simulate; default 1)
    --json               machine-readable output: one bda-trace/v1 JSON
                         document instead of the human timeline (trace)
    --metrics-out PATH   run with the observability layer on and write the
                         run's metrics (compare/simulate): PATH ending in
                         .prom gets Prometheus text, anything else the
                         bda-obs/v1 JSON document (compare always writes
                         Prometheus text, one family set per scheme)
    --timeline-out PATH  write a bda-obs/trace/v1 Perfetto/Chrome trace of
                         the run: windowed counter lanes plus span
                         timelines for a seed-sampled subset of requests
                         (simulate: one process; compare: one process per
                         scheme) — open in ui.perfetto.dev or about:tracing
    --perfetto           render the query timeline as a bda-obs/trace/v1
                         Perfetto/Chrome JSON document instead of the
                         human rendering or bda-trace/v1 (trace)
";

/// Parsed flags with defaults.
#[derive(Debug, Clone)]
pub struct Options {
    /// Scheme name.
    pub scheme: String,
    /// Dataset size.
    pub records: usize,
    /// Record/key ratio.
    pub ratio: u32,
    /// Seed.
    pub seed: u64,
    /// Record index to query.
    pub key_index: Option<usize>,
    /// Raw key to query.
    pub key: Option<u64>,
    /// Tune-in time.
    pub tune_in: u64,
    /// Availability percentage.
    pub availability: f64,
    /// Bucket loss percentage.
    pub loss: f64,
    /// Gilbert–Elliott burst channel `(p_good_to_bad, p_bad_to_good,
    /// loss_good, loss_bad)`, all in percent (None = i.i.d. `--loss`).
    pub burst: Option<(f64, f64, f64, f64)>,
    /// Periodic outage windows `(rate_percent, len_bytes)` (None = no
    /// outages).
    pub outage: Option<(f64, u64)>,
    /// Max corrupted reads tolerated before abandoning (None = forever).
    pub retry: Option<u32>,
    /// Percent of records updated per broadcast cycle (0 = frozen).
    pub update_rate: f64,
    /// Broadcast-disk stratification depth (1 = unstratified).
    pub disks: usize,
    /// Multichannel group width (1 = single channel).
    pub channels: u32,
    /// Air time one channel retune costs the client, in bytes.
    pub switch_cost: u64,
    /// Accuracy target.
    pub accuracy: f64,
    /// Worker shards for the event-driven testbed (simulate).
    pub shards: usize,
    /// Emit machine-readable JSON instead of the human rendering (trace).
    pub json: bool,
    /// Where to write run metrics (compare/simulate; None = don't observe).
    pub metrics_out: Option<String>,
    /// Where to write a Perfetto/Chrome trace of the run
    /// (compare/simulate; None = don't trace).
    pub timeline_out: Option<String>,
    /// Emit the query timeline as a Perfetto/Chrome JSON document (trace).
    pub perfetto: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scheme: "distributed".into(),
            records: 1_000,
            ratio: 20,
            seed: 2002,
            key_index: None,
            key: None,
            tune_in: 12_345,
            availability: 100.0,
            loss: 0.0,
            burst: None,
            outage: None,
            retry: None,
            update_rate: 0.0,
            disks: 1,
            channels: 1,
            switch_cost: 0,
            accuracy: 0.02,
            shards: 1,
            json: false,
            metrics_out: None,
            timeline_out: None,
            perfetto: false,
        }
    }
}

impl Options {
    /// Parse `--flag value` pairs.
    pub fn parse(argv: &[String]) -> Result<Options, String> {
        let mut o = Options::default();
        let mut loss_set = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut val = || -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--scheme" => o.scheme = val()?.clone(),
                "--records" => o.records = parse_num(flag, val()?)?,
                "--ratio" => o.ratio = parse_num(flag, val()?)?,
                "--seed" => o.seed = parse_num(flag, val()?)?,
                "--key-index" => o.key_index = Some(parse_num(flag, val()?)?),
                "--key" => o.key = Some(parse_num(flag, val()?)?),
                "--tune-in" => o.tune_in = parse_num(flag, val()?)?,
                "--availability" => o.availability = parse_num(flag, val()?)?,
                "--loss" => {
                    o.loss = parse_num(flag, val()?)?;
                    loss_set = true;
                }
                "--burst" => {
                    let parts = parse_list(flag, val()?)?;
                    o.burst = Some(match parts.as_slice() {
                        [p, q] => (*p, *q, 0.0, 100.0),
                        [p, q, lg] => (*p, *q, *lg, 100.0),
                        [p, q, lg, lb] => (*p, *q, *lg, *lb),
                        _ => return Err("--burst wants P,Q[,LG,LB]".into()),
                    });
                }
                "--outage" => {
                    let parts = parse_list(flag, val()?)?;
                    match parts.as_slice() {
                        [rate, len] if *len >= 1.0 && len.fract() == 0.0 => {
                            o.outage = Some((*rate, *len as u64));
                        }
                        _ => return Err("--outage wants RATE,LEN (LEN whole bytes >= 1)".into()),
                    }
                }
                "--retry" => o.retry = Some(parse_num(flag, val()?)?),
                "--update-rate" => o.update_rate = parse_num(flag, val()?)?,
                "--disks" => o.disks = parse_num(flag, val()?)?,
                "--channels" => o.channels = parse_num(flag, val()?)?,
                "--switch-cost" => o.switch_cost = parse_num(flag, val()?)?,
                "--accuracy" => o.accuracy = parse_num(flag, val()?)?,
                "--shards" => o.shards = parse_num(flag, val()?)?,
                "--json" => o.json = true,
                "--metrics-out" => o.metrics_out = Some(val()?.clone()),
                "--timeline-out" => o.timeline_out = Some(val()?.clone()),
                "--perfetto" => o.perfetto = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if o.records == 0 {
            return Err("--records must be positive".into());
        }
        if !(0.0..=100.0).contains(&o.availability) {
            return Err("--availability must be 0..=100".into());
        }
        if !(0.0..=100.0).contains(&o.loss) {
            return Err("--loss must be 0..=100".into());
        }
        if !(o.accuracy > 0.0 && o.accuracy <= 1.0) {
            return Err("--accuracy must be in (0, 1]".into());
        }
        if loss_set && o.burst.is_some() {
            return Err("--loss and --burst are mutually exclusive: pick one loss model".into());
        }
        if let Some((p, q, lg, lb)) = o.burst {
            for (name, v) in [("P", p), ("Q", q), ("LG", lg), ("LB", lb)] {
                if !(0.0..=100.0).contains(&v) {
                    return Err(format!("--burst {name} must be 0..=100"));
                }
            }
        }
        if let Some((rate, _len)) = o.outage {
            if !(0.0 < rate && rate <= 100.0) {
                return Err("--outage RATE must be in (0, 100]".into());
            }
        }
        if !(0.0..=100.0).contains(&o.update_rate) {
            return Err("--update-rate must be 0..=100".into());
        }
        if o.shards == 0 {
            return Err("--shards must be at least 1".into());
        }
        if o.disks == 0 || o.disks > 8 {
            return Err("--disks must be 1..=8".into());
        }
        if o.channels == 0 || o.channels > 64 {
            return Err("--channels must be 1..=64".into());
        }
        if o.channels > 1 && o.disks > 1 {
            return Err(
                "--channels and --disks are mutually exclusive: stripe or stratify, not both"
                    .into(),
            );
        }
        if o.json && o.perfetto {
            return Err("--json and --perfetto are mutually exclusive: pick one rendering".into());
        }
        Ok(o)
    }

    /// The full channel model these flags select: `--burst` picks a
    /// Gilbert–Elliott loss process (else the i.i.d. `--loss` model), and
    /// `--outage RATE,LEN` composes periodic unusable windows on top.
    /// With neither flag this is bit-identical to the i.i.d. path.
    pub fn channel_model(&self) -> bda_core::ChannelModel {
        let mut ch = match self.burst {
            Some((p, q, lg, lb)) => bda_core::ChannelModel::burst(bda_core::BurstModel::new(
                p / 100.0,
                q / 100.0,
                lg / 100.0,
                lb / 100.0,
                self.seed ^ 0xB5,
            )),
            None => bda_core::ChannelModel::iid(bda_core::ErrorModel::new(
                self.loss / 100.0,
                self.seed ^ 0xE7,
            )),
        };
        if let Some((rate, len)) = self.outage {
            // RATE percent of air time down in spans of `len` bytes: one
            // span per frame of `len * 100 / RATE` bytes.
            let every = ((len as f64) * 100.0 / rate).round() as u64;
            ch = ch.with_outages(bda_core::OutageSchedule::new(
                every.max(len),
                len,
                self.seed ^ 0x0A7,
            ));
        }
        ch
    }

    /// The client retry policy these flags select.
    pub fn retry_policy(&self) -> bda_core::RetryPolicy {
        match self.retry {
            Some(n) => bda_core::RetryPolicy::bounded(n),
            None => bda_core::RetryPolicy::UNBOUNDED,
        }
    }

    /// The broadcast-disk stratification these flags select (`None` =
    /// unstratified flat cycle; `--disks 1` is the same program
    /// bit for bit, so it also maps to `None`).
    pub fn disk_config(&self) -> Option<bda_core::DiskConfig> {
        (self.disks > 1).then(|| bda_core::DiskConfig::new(self.disks))
    }

    /// The multichannel group these flags select (`None` = single
    /// channel; `--channels 1` is the same program bit for bit — a lone
    /// home channel never retunes — so it also maps to `None`).
    pub fn group_config(&self) -> Option<bda_core::GroupConfig> {
        (self.channels > 1).then(|| {
            bda_core::GroupConfig::new(self.channels, self.switch_cost)
                .expect("range-checked by parse")
        })
    }

    /// The dynamic-broadcast update stream these flags select (`None` =
    /// frozen program, the paper's static broadcast).
    pub fn update_spec(&self) -> Option<bda_sim::UpdateSpec> {
        (self.update_rate > 0.0).then(|| bda_sim::UpdateSpec {
            rate: self.update_rate / 100.0,
            seed: self.seed ^ 0x0DD,
            horizon_cycles: 64,
        })
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: cannot parse {s:?}"))
}

fn parse_list(flag: &str, s: &str) -> Result<Vec<f64>, String> {
    s.split(',')
        .map(|part| parse_num(flag, part.trim()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{ChannelModel, ErrorModel};

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_apply() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scheme, "distributed");
        assert_eq!(o.records, 1_000);
        assert_eq!(o.ratio, 20);
    }

    #[test]
    fn flags_override() {
        let o = parse(&[
            "--scheme",
            "hashing",
            "--records",
            "42",
            "--tune-in",
            "9",
            "--loss",
            "2.5",
        ])
        .unwrap();
        assert_eq!(o.scheme, "hashing");
        assert_eq!(o.records, 42);
        assert_eq!(o.tune_in, 9);
        assert!((o.loss - 2.5).abs() < 1e-12);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--records"]).is_err());
        assert!(parse(&["--records", "zero"]).is_err());
        assert!(parse(&["--records", "0"]).is_err());
        assert!(parse(&["--availability", "150"]).is_err());
        assert!(parse(&["--loss", "120"]).is_err());
        assert!(parse(&["--update-rate", "101"]).is_err());
        assert!(parse(&["--update-rate", "-1"]).is_err());
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
        for bad in ["-1", "0", "1.5", "NaN", "inf"] {
            assert!(parse(&["--accuracy", bad]).is_err(), "--accuracy {bad}");
        }
        assert!(parse(&["--accuracy", "1"]).is_ok());
    }

    #[test]
    fn observability_flags_parse() {
        let o = parse(&["--json", "--metrics-out", "run.prom"]).unwrap();
        assert!(o.json);
        assert_eq!(o.metrics_out.as_deref(), Some("run.prom"));
        let d = parse(&[]).unwrap();
        assert!(!d.json);
        assert!(d.metrics_out.is_none());
        assert!(parse(&["--metrics-out"]).is_err());
    }

    #[test]
    fn timeline_flags_parse() {
        let o = parse(&["--timeline-out", "run.trace.json", "--perfetto"]).unwrap();
        assert_eq!(o.timeline_out.as_deref(), Some("run.trace.json"));
        assert!(o.perfetto);
        let d = parse(&[]).unwrap();
        assert!(d.timeline_out.is_none());
        assert!(!d.perfetto);
        assert!(parse(&["--timeline-out"]).is_err());
        // One rendering per trace: the two machine formats conflict.
        assert!(parse(&["--json", "--perfetto"]).is_err());
    }

    #[test]
    fn shards_flag_parses() {
        assert_eq!(parse(&[]).unwrap().shards, 1);
        assert_eq!(parse(&["--shards", "8"]).unwrap().shards, 8);
        assert!(parse(&["--shards"]).is_err());
    }

    #[test]
    fn disks_flag_parses_and_maps() {
        assert_eq!(parse(&[]).unwrap().disks, 1);
        assert!(parse(&[]).unwrap().disk_config().is_none());
        let o = parse(&["--disks", "3"]).unwrap();
        assert_eq!(o.disks, 3);
        assert_eq!(o.disk_config().map(|d| d.disks()), Some(3));
        // D=1 is the unstratified program — no wrapper needed.
        assert!(parse(&["--disks", "1"]).unwrap().disk_config().is_none());
        assert!(parse(&["--disks", "0"]).is_err());
        assert!(parse(&["--disks", "9"]).is_err());
        assert!(parse(&["--disks"]).is_err());
    }

    #[test]
    fn channels_flags_parse_and_map() {
        assert_eq!(parse(&[]).unwrap().channels, 1);
        assert!(parse(&[]).unwrap().group_config().is_none());
        let o = parse(&["--channels", "4", "--switch-cost", "256"]).unwrap();
        assert_eq!((o.channels, o.switch_cost), (4, 256));
        let g = o.group_config().expect("K=4 is grouped");
        assert_eq!((g.channels, g.switch_cost), (4, 256));
        // K=1 is the single-channel program — no wrapper needed, and a
        // switch cost is moot on a lone home channel.
        let one = parse(&["--channels", "1", "--switch-cost", "999"]).unwrap();
        assert!(one.group_config().is_none());
        assert!(parse(&["--channels", "0"]).is_err());
        assert!(parse(&["--channels", "65"]).is_err());
        assert!(parse(&["--channels"]).is_err());
        assert!(parse(&["--switch-cost"]).is_err());
        // Striping a stratified program is not a thing: pick one axis.
        assert!(parse(&["--channels", "2", "--disks", "3"]).is_err());
        assert!(parse(&["--channels", "1", "--disks", "3"]).is_ok());
    }

    #[test]
    fn update_rate_maps_to_spec() {
        let o = parse(&["--update-rate", "5", "--seed", "9"]).unwrap();
        let spec = o.update_spec().expect("5% is dynamic");
        assert!((spec.rate - 0.05).abs() < 1e-12);
        assert_eq!(spec.seed, 9 ^ 0x0DD);
        assert_eq!(spec.horizon_cycles, 64);
        // Default: frozen program.
        assert!(parse(&[]).unwrap().update_spec().is_none());
    }

    #[test]
    fn burst_flag_parses_and_maps() {
        let o = parse(&["--burst", "2,10", "--seed", "7"]).unwrap();
        assert_eq!(o.burst, Some((2.0, 10.0, 0.0, 100.0)));
        let ch = o.channel_model();
        // A burst channel is not reducible to the i.i.d. model.
        assert!(matches!(ch.loss, bda_core::LossModel::Burst(_)));
        assert!(!ch.has_outages());
        // Defaults: LG=0, LB=100 — the classic Gilbert channel.
        let full = parse(&["--burst", "2,10,1,80"]).unwrap();
        assert_eq!(full.burst, Some((2.0, 10.0, 1.0, 80.0)));
        // Malformed tuples are rejected.
        assert!(parse(&["--burst", "2"]).is_err());
        assert!(parse(&["--burst", "2,10,1,80,9"]).is_err());
        assert!(parse(&["--burst", "2,nope"]).is_err());
        assert!(parse(&["--burst", "2,101"]).is_err());
        assert!(parse(&["--burst"]).is_err());
    }

    #[test]
    fn loss_and_burst_are_mutually_exclusive() {
        assert!(parse(&["--loss", "10", "--burst", "2,10"]).is_err());
        assert!(parse(&["--burst", "2,10", "--loss", "10"]).is_err());
        // Even an explicit zero loss conflicts: the user picked two models.
        assert!(parse(&["--loss", "0", "--burst", "2,10"]).is_err());
        // Each alone is fine.
        assert!(parse(&["--loss", "10"]).is_ok());
        assert!(parse(&["--burst", "2,10"]).is_ok());
    }

    #[test]
    fn outage_flag_parses_and_maps() {
        let o = parse(&["--outage", "5,200", "--seed", "3"]).unwrap();
        assert_eq!(o.outage, Some((5.0, 200)));
        let ch = o.channel_model();
        assert!(ch.has_outages());
        // RATE=5%, LEN=200 → one 200-byte span per 4000-byte frame.
        assert!((ch.outages.fraction() - 0.05).abs() < 1e-9);
        // Composes with burst loss.
        let both = parse(&["--burst", "2,10", "--outage", "5,200"]).unwrap();
        let ch = both.channel_model();
        assert!(ch.has_outages());
        assert!(matches!(ch.loss, bda_core::LossModel::Burst(_)));
        // Malformed tuples are rejected.
        assert!(parse(&["--outage", "5"]).is_err());
        assert!(parse(&["--outage", "0,200"]).is_err());
        assert!(parse(&["--outage", "101,200"]).is_err());
        assert!(parse(&["--outage", "5,0"]).is_err());
        assert!(parse(&["--outage", "5,2.5"]).is_err());
        assert!(parse(&["--outage"]).is_err());
    }

    #[test]
    fn default_channel_is_degenerate_iid() {
        let o = parse(&["--loss", "10", "--seed", "1"]).unwrap();
        // Without --burst/--outage the channel is the i.i.d. model at the
        // flag's rate and the seed-derived loss seed.
        let iid = |loss, seed: u64| ChannelModel::iid(ErrorModel::new(loss, seed ^ 0xE7));
        assert_eq!(o.channel_model(), iid(0.10, 1));
        let d = parse(&[]).unwrap();
        assert_eq!(d.channel_model(), iid(0.0, d.seed));
    }

    #[test]
    fn fault_flags_map_to_model_and_policy() {
        let o = parse(&["--loss", "10", "--retry", "3", "--seed", "1"]).unwrap();
        assert!((o.channel_model().mean_loss() - 0.10).abs() < 1e-12);
        assert_eq!(o.retry_policy(), bda_core::RetryPolicy::bounded(3));
        // Default: lossless, retry forever.
        let d = parse(&[]).unwrap();
        assert!(d.channel_model().is_lossless());
        assert_eq!(d.retry_policy(), bda_core::RetryPolicy::UNBOUNDED);
    }
}
