//! The simulation coordinator (paper §3, `Simulator`).
//!
//! Ties the testbed together exactly as the paper's procedure describes:
//! initialization (data source → scheme-specific channel), start
//! (broadcast server + request generator), simulation rounds (500 requests
//! each, results checked against the accuracy controller after every
//! round), and end (result extraction).

use bda_core::{ChannelModel, DynSystem, RetryPolicy, Ticks};
use bda_datagen::{Arrivals, Popularity, QueryWorkload};
use bda_obs::{Completion, Histogram, MetricsHub, WindowSpec};

use crate::accuracy::AccuracyController;
use crate::engine::{Engine, EngineStats};
use crate::reqgen::RequestGenerator;
use crate::results::ResultHandler;
use crate::sharded::ShardedEngine;
use crate::stats::Summary;
use crate::updates::UpdateSpec;

/// Simulation settings — the knobs of Table 1.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Confidence level for termination (Table 1: 0.99).
    pub confidence: f64,
    /// Required relative accuracy `H/Ȳ` (Table 1: 0.01).
    pub accuracy: f64,
    /// Requests per simulation round (paper: 500).
    pub round_requests: usize,
    /// Do not stop before this many rounds.
    pub min_rounds: usize,
    /// Hard cap on rounds (safety; the paper reports >100 rounds typical).
    pub max_rounds: usize,
    /// Mean request inter-arrival time in bytes (exponential distribution).
    pub mean_interarrival: f64,
    /// Seed for the request stream.
    pub seed: u64,
    /// Execute rounds through the discrete-event engine (`true`, the
    /// faithful testbed) or via the direct walker (`false`, what the
    /// sweep harness uses). Both run the same protocol machines with
    /// fast-forward on, so every request's outcome is bit-identical
    /// between them (the `drivers_equiv` integration test); the walker
    /// just skips the scheduling.
    pub event_driven: bool,
    /// Steady-state mode: keep at most this many clients admitted at
    /// once, streaming requests through the engine instead of
    /// materializing whole request batches. `None` (the default) runs the
    /// classic round-batch testbed; `Some(0)` — a cap that could admit
    /// nothing and therefore never complete a round — is treated as
    /// `None`. Only meaningful with `event_driven`; memory becomes
    /// `O(max_in_flight)` regardless of how many requests the accuracy
    /// controller ends up demanding.
    pub max_in_flight: Option<usize>,
    /// Worker shards for the event-driven batch path: each round's batch
    /// is partitioned round-robin across this many per-core slab engines
    /// over the shared broadcast program and merged deterministically
    /// (see [`crate::sharded`]), so reports are bit-identical for every
    /// shard count. `1` (the default, also the meaning of `0`) runs the
    /// classic single engine inline. Steady-state and direct-walker modes
    /// ignore it.
    pub shards: usize,
    /// Fault injection: the channel every client sees — i.i.d. or burst
    /// loss, outage windows, or ([`ChannelModel::NONE`], the default) a
    /// perfect channel. Honored identically by every execution driver.
    pub channel: ChannelModel,
    /// Client-side recovery policy for corrupt reads (default: retry
    /// forever — the paper's implicit assumption).
    pub retry: RetryPolicy,
    /// Dynamic-broadcast mode: when set, the harness builds the system
    /// under test as a [`crate::server::VersionedServer`] replaying this
    /// update stream, instead of a frozen channel. The simulator itself
    /// drives whatever [`DynSystem`] it is handed — this field travels
    /// with the config so sweep harnesses and the CLI construct the right
    /// server and label reports. `None` (the default) is the paper's
    /// static broadcast.
    pub updates: Option<UpdateSpec>,
    /// Time-resolved telemetry: when set, observed runs
    /// ([`Simulator::run_observed`]) collect a windowed time series with
    /// this window width in ticks alongside the aggregates (the hub's
    /// `windows` field; see [`bda_obs::TimeSeries`]). `None` (the
    /// default) keeps observation purely aggregate; plain
    /// [`Simulator::run`] ignores it entirely. Purely tick-domain and
    /// honored identically by every execution driver.
    pub window: Option<u64>,
}

impl SimConfig {
    /// The paper's Table-1 settings.
    pub fn paper() -> Self {
        SimConfig {
            confidence: 0.99,
            accuracy: 0.01,
            round_requests: 500,
            min_rounds: 4,
            max_rounds: 2_000,
            mean_interarrival: 10_000.0,
            seed: 0x0EDB_2002,
            event_driven: true,
            max_in_flight: None,
            shards: 1,
            channel: ChannelModel::NONE,
            retry: RetryPolicy::UNBOUNDED,
            updates: None,
            window: None,
        }
    }

    /// Looser settings for fast tests and examples (95 % / 5 %).
    pub fn quick() -> Self {
        SimConfig {
            confidence: 0.95,
            accuracy: 0.05,
            round_requests: 200,
            min_rounds: 2,
            max_rounds: 200,
            ..SimConfig::paper()
        }
    }

    fn controller(&self) -> AccuracyController {
        AccuracyController {
            confidence: self.confidence,
            accuracy: self.accuracy,
            min_samples: (self.round_requests * self.min_rounds) as u64,
        }
    }
}

/// Everything a finished simulation reports.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Scheme under test.
    pub scheme: &'static str,
    /// Rounds executed.
    pub rounds: usize,
    /// Total requests simulated.
    pub requests: u64,
    /// Access-time summary (bytes).
    pub access: Summary,
    /// Tuning-time summary (bytes).
    pub tuning: Summary,
    /// Requests that found their record.
    pub found: u64,
    /// Requests whose key was not broadcast.
    pub not_found: u64,
    /// Total false drops.
    pub false_drops: u64,
    /// Walker-aborted requests — nonzero values indicate a protocol bug.
    pub aborted: u64,
    /// Corrupted bucket reads across all requests (0 on a lossless
    /// channel).
    pub retries: u64,
    /// Requests truthfully abandoned by the retry policy (0 under
    /// [`RetryPolicy::UNBOUNDED`]).
    pub abandoned: u64,
    /// Stale-protocol restarts: clients that discarded their machine and
    /// re-anchored on a newer broadcast program (0 on a frozen channel).
    pub stale_restarts: u64,
    /// Version skews observed in bucket headers (0 on a frozen channel).
    pub version_skews: u64,
    /// Whether the accuracy targets were met (false only if `max_rounds`
    /// was exhausted first).
    pub converged: bool,
    /// Broadcast cycle length of the system under test.
    pub cycle_len: Ticks,
    /// Access-time distribution (log-bucketed histogram).
    pub access_hist: Histogram,
    /// Tuning-time distribution (log-bucketed histogram).
    pub tuning_hist: Histogram,
    /// Retry-depth distribution: corrupted reads ridden out per request.
    pub retry_hist: Histogram,
    /// Engine counters (all zero when the direct-walker fast path ran).
    pub engine: EngineStats,
}

impl SimReport {
    /// Mean access time in bytes (`At`).
    pub fn mean_access(&self) -> f64 {
        self.access.mean
    }

    /// Mean tuning time in bytes (`Tt`).
    pub fn mean_tuning(&self) -> f64 {
        self.tuning.mean
    }

    /// Access-time quantile (e.g. `0.95` for p95), in bytes.
    pub fn access_quantile(&self, q: f64) -> Ticks {
        self.access_hist.quantile(q)
    }

    /// Tuning-time quantile (e.g. `0.99` for p99), in bytes.
    pub fn tuning_quantile(&self, q: f64) -> Ticks {
        self.tuning_hist.quantile(q)
    }

    /// Mean corrupted reads per request (0 on a lossless channel).
    pub fn mean_retries(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.retries as f64 / self.requests as f64
        }
    }

    /// Fraction of requests the retry policy abandoned.
    pub fn abandonment_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.abandoned as f64 / self.requests as f64
        }
    }

    /// Mean stale restarts per request — the dynamic-broadcast
    /// degradation figure (0 on a frozen channel).
    pub fn restart_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.stale_restarts as f64 / self.requests as f64
        }
    }
}

/// The coordinator: runs rounds of requests through the event engine until
/// the accuracy controller is satisfied.
///
/// ```
/// use bda_core::{FlatScheme, Params, Scheme};
/// use bda_datagen::DatasetBuilder;
/// use bda_sim::{SimConfig, Simulator};
///
/// let dataset = DatasetBuilder::new(100, 1).build().unwrap();
/// let system = FlatScheme.build(&dataset, &Params::paper()).unwrap();
/// let report = Simulator::uniform(&system, &dataset, SimConfig::quick()).run();
/// assert!(report.converged);
/// assert_eq!(report.aborted, 0);
/// // Flat broadcast: expected access ≈ half the cycle, tuning = access.
/// let half = report.cycle_len as f64 / 2.0;
/// assert!((report.mean_access() / half - 1.0).abs() < 0.2);
/// ```
pub struct Simulator<'a> {
    system: &'a dyn DynSystem,
    generator: RequestGenerator,
    config: SimConfig,
}

impl<'a> Simulator<'a> {
    /// Simulate `system` under the given workload and settings.
    pub fn new(system: &'a dyn DynSystem, workload: QueryWorkload, config: SimConfig) -> Self {
        let arrivals = Arrivals::new(config.mean_interarrival, config.seed);
        Simulator {
            system,
            generator: RequestGenerator::new(arrivals, workload),
            config,
        }
    }

    /// Convenience constructor: uniform popularity over the whole dataset,
    /// 100 % availability (the paper's §4 baseline).
    pub fn uniform(
        system: &'a dyn DynSystem,
        dataset: &bda_core::Dataset,
        config: SimConfig,
    ) -> Self {
        let workload = QueryWorkload::new(
            dataset,
            Vec::new(),
            1.0,
            Popularity::Uniform,
            config.seed ^ 0xABCD,
        );
        Simulator::new(system, workload, config)
    }

    /// Run until the accuracy targets are met (or `max_rounds` elapse).
    pub fn run(&mut self) -> SimReport {
        self.run_inner(false, None).0
    }

    /// [`run`](Simulator::run) with the observability layer switched on:
    /// also returns the run's [`MetricsHub`] — per-phase walk spans,
    /// access/tuning/retry-depth histograms, and (on the event-driven
    /// paths) engine gauges. The direct-walker fast path records spans via
    /// [`DynSystem::probe_recorded`], so phase attribution is identical
    /// across all three execution drivers.
    pub fn run_observed(&mut self) -> (SimReport, MetricsHub) {
        let (report, hub) = self.run_inner(true, None);
        (report, hub.expect("observed run always produces a hub"))
    }

    /// [`run_observed`](Simulator::run_observed) that additionally returns
    /// the exact request stream the run generated, in generation order.
    /// `bda-cli --timeline-out` replays a seed-sampled subset of this
    /// stream (walks are pure, so out-of-band replay is byte-faithful) to
    /// build per-request span timelines for the Perfetto trace.
    pub fn run_observed_logged(&mut self) -> (SimReport, MetricsHub, Vec<(Ticks, bda_core::Key)>) {
        let mut log = Vec::new();
        let (report, hub) = self.run_inner(true, Some(&mut log));
        (
            report,
            hub.expect("observed run always produces a hub"),
            log,
        )
    }

    fn run_inner(
        &mut self,
        observe: bool,
        mut log: Option<&mut Vec<(Ticks, bda_core::Key)>>,
    ) -> (SimReport, Option<MetricsHub>) {
        if self.config.event_driven {
            // `Some(0)` used to hang the steady loop (a zero-capacity cap
            // admits nothing, so rounds never complete); it now means "no
            // cap" and falls through to the batch testbed.
            if let Some(cap) = self.config.max_in_flight.filter(|&cap| cap > 0) {
                return self.run_steady(cap, observe, log);
            }
        }
        let controller = self.config.controller();
        let mut handler = ResultHandler::new();
        let mut engine = ShardedEngine::with_channel(
            self.system,
            self.config.shards.max(1),
            self.config.channel,
            self.config.retry,
        );
        if observe && self.config.event_driven {
            match self.config.window {
                Some(width) => engine.enable_metrics_windowed(WindowSpec::new(width)),
                None => engine.enable_metrics(),
            }
        }
        // Direct-walker observation accumulates into a local hub instead.
        let mut walker_hub: Option<Box<MetricsHub>> =
            (observe && !self.config.event_driven).then(|| {
                let mut hub = Box::<MetricsHub>::default();
                if let Some(width) = self.config.window {
                    hub.enable_windows(WindowSpec::new(width));
                }
                hub
            });
        let mut rounds = 0;
        let mut converged = false;
        while rounds < self.config.max_rounds {
            let batch = self.generator.round(self.config.round_requests);
            if let Some(log) = log.as_deref_mut() {
                log.extend_from_slice(&batch);
            }
            let completed = if self.config.event_driven {
                engine.run_batch(&batch)
            } else {
                batch
                    .iter()
                    .map(|&(arrival, key)| {
                        let outcome = if let Some(hub) = walker_hub.as_deref_mut() {
                            let (outcome, spans) = self.system.probe_recorded(
                                key,
                                arrival,
                                self.config.channel,
                                self.config.retry,
                            );
                            hub.complete_at(
                                &Completion {
                                    end_tick: arrival + outcome.access,
                                    access: outcome.access,
                                    tuning: outcome.tuning,
                                    retries: outcome.retries,
                                    stale_restarts: outcome.stale_restarts,
                                    version_skews: outcome.version_skews,
                                    found: outcome.found,
                                    abandoned: outcome.abandoned,
                                },
                                Some(&spans),
                            );
                            outcome
                        } else {
                            self.system.probe_with_channel(
                                key,
                                arrival,
                                self.config.channel,
                                self.config.retry,
                            )
                        };
                        crate::engine::CompletedRequest {
                            arrival,
                            key,
                            outcome,
                        }
                    })
                    .collect()
            };
            handler.record_all(&completed);
            rounds += 1;
            if rounds >= self.config.min_rounds
                && controller.satisfied(&[handler.access(), handler.tuning()])
            {
                converged = true;
                break;
            }
        }
        let hub = engine.take_metrics().or_else(|| walker_hub.map(|b| *b));
        (
            self.report(&handler, rounds, converged, engine.stats()),
            hub,
        )
    }

    /// Steady-state rounds: a bounded client population streams through a
    /// persistent engine; round boundaries are counted in *completions*
    /// rather than materialized request batches.
    fn run_steady(
        &mut self,
        cap: usize,
        observe: bool,
        mut log: Option<&mut Vec<(Ticks, bda_core::Key)>>,
    ) -> (SimReport, Option<MetricsHub>) {
        let controller = self.config.controller();
        let mut handler = ResultHandler::new();
        let mut engine = Engine::with_channel(self.system, self.config.channel, self.config.retry);
        if observe {
            match self.config.window {
                Some(width) => engine.enable_metrics_windowed(WindowSpec::new(width)),
                None => engine.enable_metrics(),
            }
        }
        let mut rounds = 0;
        let mut converged = false;
        let mut completed_in_round = 0usize;
        'sim: while rounds < self.config.max_rounds {
            while engine.occupied() < cap {
                let (t, key) = self.generator.next_request();
                if let Some(log) = log.as_deref_mut() {
                    log.push((t, key));
                }
                engine.admit(t, key, 0);
            }
            engine.advance(&mut |_tag, r| {
                handler.record(&r);
                completed_in_round += 1;
            });
            while completed_in_round >= self.config.round_requests {
                completed_in_round -= self.config.round_requests;
                rounds += 1;
                if rounds >= self.config.min_rounds
                    && controller.satisfied(&[handler.access(), handler.tuning()])
                {
                    converged = true;
                    break 'sim;
                }
            }
        }
        let hub = engine.take_metrics();
        (
            self.report(&handler, rounds, converged, engine.stats()),
            hub,
        )
    }

    fn report(
        &self,
        handler: &ResultHandler,
        rounds: usize,
        converged: bool,
        engine: EngineStats,
    ) -> SimReport {
        SimReport {
            scheme: self.system.scheme_name(),
            rounds,
            requests: handler.total(),
            access: handler.access().summary(self.config.confidence),
            tuning: handler.tuning().summary(self.config.confidence),
            found: handler.found(),
            not_found: handler.not_found(),
            false_drops: handler.false_drops(),
            aborted: handler.aborted(),
            retries: handler.retries(),
            abandoned: handler.abandoned(),
            stale_restarts: handler.stale_restarts(),
            version_skews: handler.version_skews(),
            converged,
            cycle_len: self.system.cycle_len(),
            access_hist: handler.access_histogram().clone(),
            tuning_hist: handler.tuning_histogram().clone(),
            retry_hist: handler.retry_histogram().clone(),
            engine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{ErrorModel, FlatScheme, Params, Scheme};
    use bda_datagen::DatasetBuilder;

    #[test]
    fn flat_simulation_converges_to_half_cycle() {
        let ds = DatasetBuilder::new(200, 9).build().unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let mut sim = Simulator::uniform(&sys, &ds, SimConfig::quick());
        let report = sim.run();
        assert!(report.converged, "quick settings must converge");
        assert_eq!(report.aborted, 0);
        assert_eq!(report.not_found, 0);
        let half_cycle = report.cycle_len as f64 / 2.0;
        let ratio = report.mean_access() / half_cycle;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "flat At ≈ Bt/2: ratio={ratio}"
        );
        // Flat broadcast never dozes.
        assert!((report.mean_tuning() - report.mean_access()).abs() < 1e-9);
    }

    #[test]
    fn tighter_accuracy_needs_more_requests() {
        let ds = DatasetBuilder::new(100, 11).build().unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let loose = Simulator::uniform(&sys, &ds, SimConfig::quick()).run();
        let mut tight_cfg = SimConfig::quick();
        tight_cfg.accuracy = 0.01;
        let tight = Simulator::uniform(&sys, &ds, tight_cfg).run();
        assert!(tight.requests > loose.requests);
        assert!(tight.access.accuracy() <= 0.01 + 1e-12);
    }

    #[test]
    fn fast_and_event_driven_agree_exactly() {
        let ds = DatasetBuilder::new(150, 21).build().unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let mut cfg = SimConfig::quick();
        // Pin the request count so both runs see identical streams.
        cfg.min_rounds = 3;
        cfg.max_rounds = 3;
        let a = Simulator::uniform(&sys, &ds, cfg).run();
        cfg.event_driven = false;
        let b = Simulator::uniform(&sys, &ds, cfg).run();
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.access, b.access);
        assert_eq!(a.tuning, b.tuning);
        assert_eq!(a.found, b.found);
    }

    #[test]
    fn steady_state_mode_matches_batch_statistics() {
        let ds = DatasetBuilder::new(120, 17).build().unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let mut cfg = SimConfig::quick();
        // Pin the completion count so both runs measure 3 × 200 requests.
        cfg.min_rounds = 3;
        cfg.max_rounds = 3;
        let batch = Simulator::uniform(&sys, &ds, cfg).run();
        cfg.max_in_flight = Some(32);
        let steady = Simulator::uniform(&sys, &ds, cfg).run();
        assert_eq!(steady.requests, batch.requests);
        assert_eq!(steady.aborted, 0);
        assert!(steady.engine.peak_in_flight <= 32);
        assert!(steady.engine.events > 0);
        // Completion order may differ from arrival order, so the streams
        // agree statistically rather than bit-for-bit.
        let ratio = steady.mean_access() / batch.mean_access();
        assert!((0.95..=1.05).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn batch_mode_reports_engine_stats() {
        let ds = DatasetBuilder::new(50, 23).build().unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let mut cfg = SimConfig::quick();
        cfg.min_rounds = 2;
        cfg.max_rounds = 2;
        let report = Simulator::uniform(&sys, &ds, cfg).run();
        assert_eq!(report.engine.completed, report.requests);
        assert!(report.engine.peak_in_flight >= 1);
        assert!(report.engine.events >= report.requests);
    }

    #[test]
    fn lossy_testbed_reports_degradation_and_stays_truthful() {
        let ds = DatasetBuilder::new(150, 31).build().unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let mut cfg = SimConfig::quick();
        cfg.min_rounds = 2;
        cfg.max_rounds = 2;
        cfg.channel = ChannelModel::iid(ErrorModel::new(0.10, 7));
        let lossy = Simulator::uniform(&sys, &ds, cfg).run();
        assert_eq!(lossy.aborted, 0);
        assert_eq!(lossy.abandoned, 0, "unbounded retries never abandon");
        assert_eq!(lossy.not_found, 0, "every broadcast key is found");
        assert!(lossy.retries > 0, "10% loss must corrupt transmissions");
        assert_eq!(lossy.retries, lossy.engine.corrupt_reads);
        assert!(lossy.mean_retries() > 0.0);
        assert_eq!(lossy.retry_hist.len(), lossy.requests);

        // Degradation: lossy access time exceeds the lossless baseline.
        cfg.channel = ChannelModel::NONE;
        let clean = Simulator::uniform(&sys, &ds, cfg).run();
        assert!(lossy.mean_access() > clean.mean_access());
        assert_eq!(clean.retries, 0);
        assert_eq!(clean.retry_hist.quantile(1.0), 0);
    }

    #[test]
    fn bounded_retry_policy_abandons_rather_than_lies() {
        let ds = DatasetBuilder::new(100, 37).build().unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let mut cfg = SimConfig::quick();
        cfg.min_rounds = 2;
        cfg.max_rounds = 2;
        cfg.channel = ChannelModel::iid(ErrorModel::new(0.25, 13));
        cfg.retry = RetryPolicy::bounded(1);
        let report = Simulator::uniform(&sys, &ds, cfg).run();
        assert_eq!(report.aborted, 0);
        assert!(report.abandoned > 0, "25% loss with 1 retry must give up");
        // Abandoned requests are the only not-found ones: the workload
        // queries broadcast keys exclusively, and an abandoned query is
        // truthfully not-found, never wrongly answered.
        assert_eq!(report.not_found, report.abandoned);
        assert!(report.abandonment_rate() > 0.0);
    }

    #[test]
    fn observed_run_matches_plain_run_on_every_driver() {
        let ds = DatasetBuilder::new(120, 41).build().unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let mut cfg = SimConfig::quick();
        cfg.min_rounds = 2;
        cfg.max_rounds = 2;
        cfg.channel = ChannelModel::iid(ErrorModel::new(0.05, 3));
        for (event_driven, cap) in [(true, None), (true, Some(24)), (false, None)] {
            cfg.event_driven = event_driven;
            cfg.max_in_flight = cap;
            let plain = Simulator::uniform(&sys, &ds, cfg).run();
            let (obs, hub) = Simulator::uniform(&sys, &ds, cfg).run_observed();
            assert_eq!(plain.requests, obs.requests);
            assert_eq!(plain.access, obs.access, "observation must not perturb");
            assert_eq!(plain.tuning, obs.tuning);
            assert_eq!(plain.retries, obs.retries);
            // Spans telescope: per-phase ticks sum to the measured totals.
            assert_eq!(hub.completed, obs.requests);
            assert_eq!(hub.access.sum(), obs.access_hist.sum());
            assert_eq!(hub.tuning.sum(), obs.tuning_hist.sum());
            assert_eq!(u128::from(hub.spans.total_access()), hub.access.sum());
            assert_eq!(u128::from(hub.spans.total_tuning()), hub.tuning.sum());
            // Engine gauges exist exactly on the event-driven drivers.
            let sampled = hub.gauges.get(bda_obs::Gauge::InFlight).samples > 0;
            assert_eq!(sampled, event_driven, "event_driven={event_driven}");
        }
    }

    #[test]
    fn sharded_testbed_reports_are_bit_identical() {
        let ds = DatasetBuilder::new(140, 43).build().unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let mut cfg = SimConfig::quick();
        cfg.min_rounds = 2;
        cfg.max_rounds = 2;
        cfg.channel = ChannelModel::iid(ErrorModel::new(0.10, 5));
        let single = Simulator::uniform(&sys, &ds, cfg).run();
        for shards in [0, 1, 3, 4] {
            cfg.shards = shards;
            let sharded = Simulator::uniform(&sys, &ds, cfg).run();
            assert_eq!(single.requests, sharded.requests, "shards={shards}");
            assert_eq!(single.access, sharded.access, "shards={shards}");
            assert_eq!(single.tuning, sharded.tuning, "shards={shards}");
            assert_eq!(single.retries, sharded.retries, "shards={shards}");
            assert_eq!(single.access_hist, sharded.access_hist, "shards={shards}");
            assert_eq!(single.retry_hist, sharded.retry_hist, "shards={shards}");
            assert_eq!(
                single.engine.outcome_counters(),
                sharded.engine.outcome_counters(),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn zero_in_flight_cap_means_uncapped_batch_mode() {
        let ds = DatasetBuilder::new(80, 47).build().unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let mut cfg = SimConfig::quick();
        cfg.min_rounds = 2;
        cfg.max_rounds = 2;
        let batch = Simulator::uniform(&sys, &ds, cfg).run();
        // Regression: `Some(0)` used to spin forever in the steady loop.
        cfg.max_in_flight = Some(0);
        let zero = Simulator::uniform(&sys, &ds, cfg).run();
        assert_eq!(batch.requests, zero.requests);
        assert_eq!(batch.access, zero.access);
        assert_eq!(batch.tuning, zero.tuning);
    }

    #[test]
    fn availability_mix_is_reported() {
        let (ds, pool) = DatasetBuilder::new(100, 13)
            .build_with_absent_pool(100)
            .unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let workload = QueryWorkload::new(&ds, pool, 0.5, Popularity::Uniform, 7);
        let mut sim = Simulator::new(&sys, workload, SimConfig::quick());
        let report = sim.run();
        let found_rate = report.found as f64 / report.requests as f64;
        assert!((found_rate - 0.5).abs() < 0.1, "found_rate={found_rate}");
    }
}
