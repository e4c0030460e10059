//! `service_mix`: a `DecodeServer` with one worker and four tenants
//! (d=5, p=5e-3, strike rate 0.25).  Struck windows carry their burst
//! region and take the two-pass rollback path, re-weighting the shared
//! context's graph twice.  Each operation fills every tenant's queue with
//! [`BACKLOG`] windows while the server is paused, then resumes it and
//! waits until all of them are decoded — a burst backlog being drained at
//! the server's capacity.  This is the only workload that loads service
//! scheduling and the context pool.

use crate::explode::Exploded;
use crate::harness::{derive_seed, guarded, repeat_passes, CpuClock, Meter, Setup};
use crate::stats::{self, consistent_tally, equal, reference_tally};
use crate::{Args, Check, Report};
use q3de::decoder::{ContextPool, DecoderConfig, MatcherKind, WeightModel};
use q3de::lattice::MatchingGraph;
use q3de::service::{DecodeServer, ServiceConfig, ServiceReport, TenantId, WindowTicket};
use q3de::sim::{AnomalyInjection, MemoryExperimentConfig, StreamWindow, WindowSource};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const DISTANCE: usize = 5;
const RATE: f64 = 5e-3;
const STRIKE_RATE: f64 = 0.25;
const TENANTS: usize = 4;
/// Windows queued per tenant in one drain (also the queue capacity).
const BACKLOG: usize = 4;
/// Windows sampled per tenant; drains cycle through them.
const POOL_WINDOWS: usize = 4096;
/// Distinct drains before the windows repeat.
const DISTINCT_DRAINS: usize = POOL_WINDOWS / BACKLOG;
/// Drains of the traced pass.
const TRACE_DRAINS: usize = 32;
const GATE_SEED: u64 = 0x51DE_0004;
const GATE_DRAINS: usize = 128;
/// Rolled-back windows and logical failures of the gate drains, and the
/// windows they cover, recorded at the parent commit.
const GATE_ROLLED_BACK: u64 = 516;
const GATE_FAILURES: (u64, u64) = (45, (GATE_DRAINS * BACKLOG * TENANTS) as u64);

fn decoder() -> DecoderConfig {
    DecoderConfig::default().with_matcher(MatcherKind::Tree)
}

/// The tenants' pre-sampled window streams and their shared patch graph.
struct Mix {
    graph: MatchingGraph,
    pools: Vec<Vec<StreamWindow>>,
}

impl Mix {
    fn sample(seed: u64, windows: usize) -> Self {
        let mut config = MemoryExperimentConfig::new(DISTANCE, RATE)
            .with_anomaly(AnomalyInjection::centered(2, 0.5));
        config.decoder = decoder();
        let sources: Vec<WindowSource> = (0..TENANTS as u64)
            .map(|tenant| {
                WindowSource::new(config, STRIKE_RATE, derive_seed(seed, tenant))
                    .expect("distance 5 is valid")
            })
            .collect();
        Self {
            graph: sources[0].graph().clone(),
            pools: sources
                .iter()
                .map(|source| {
                    (0..windows as u64)
                        .map(|w| source.window::<ChaCha8Rng>(w))
                        .collect()
                })
                .collect(),
        }
    }

    /// Window `i` of drain `drain` for `tenant`.
    fn window(&self, tenant: usize, drain: usize, i: usize) -> &StreamWindow {
        let pool = &self.pools[tenant];
        &pool[(drain * BACKLOG + i) % pool.len()]
    }

    /// The windows of one drain in the order the round-robin worker takes
    /// them: window-major, tenant-minor.
    fn drain_order(&self, drain: usize) -> impl Iterator<Item = (usize, &StreamWindow)> + '_ {
        (0..BACKLOG).flat_map(move |i| (0..TENANTS).map(move |t| (t, self.window(t, drain, i))))
    }
}

fn start_server(mix: &Mix, config: ServiceConfig) -> (DecodeServer, Vec<TenantId>) {
    let server = DecodeServer::new(config);
    let tenants = (0..TENANTS)
        .map(|_| server.register(mix.graph.clone(), RATE, BACKLOG))
        .collect();
    (server, tenants)
}

/// Queues one drain's windows on the paused server; returns the tickets
/// and the number of refused submissions.
fn fill(
    server: &DecodeServer,
    tenants: &[TenantId],
    mix: &Mix,
    drain: usize,
) -> (Vec<WindowTicket>, u64) {
    server.pause();
    let mut tickets = Vec::with_capacity(BACKLOG * TENANTS);
    let mut refused = 0;
    for (tenant, window) in mix.drain_order(drain) {
        match server.submit(tenants[tenant], window.clone()) {
            Ok(ticket) => tickets.push(ticket),
            Err(_) => refused += 1,
        }
    }
    (tickets, refused)
}

fn drain(server: &DecodeServer, tickets: Vec<WindowTicket>) {
    server.resume();
    for ticket in tickets {
        server.wait(ticket);
    }
}

/// Sums over tenants: `(accepted, completed, rolled back, failures, parity-checked)`.
fn totals(report: &ServiceReport) -> (u64, u64, u64, u64, u64) {
    report.tenants.iter().fold((0, 0, 0, 0, 0), |acc, t| {
        (
            acc.0 + t.accepted,
            acc.1 + t.completed,
            acc.2 + t.rolled_back,
            acc.3 + t.failures,
            acc.4 + t.parity_checked,
        )
    })
}

/// Runs `drains` drains on a fresh paused server; returns the final
/// report, the summed drain time and the refused submissions.
fn serve(mix: &Mix, drains: usize) -> (ServiceReport, u64, u64) {
    let (server, tenants) =
        start_server(mix, ServiceConfig::new(1).with_decoder(decoder()).paused());
    let (mut busy_ns, mut refused) = (0u64, 0u64);
    for d in 0..drains {
        let (tickets, r) = fill(&server, &tenants, mix, d);
        refused += r;
        let start = Instant::now();
        drain(&server, tickets);
        busy_ns += start.elapsed().as_nanos() as u64;
    }
    (server.finish(), busy_ns, refused)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let gate_mix = Mix::sample(GATE_SEED, GATE_DRAINS * BACKLOG);
    let (gate, _, gate_refused) = serve(&gate_mix, GATE_DRAINS);
    let (accepted, completed, rolled_back, failures, checked) = totals(&gate);
    report.checks.push(equal(
        "service_mix.gate_completed",
        (completed, gate_refused),
        (accepted, 0),
    ));
    report.checks.push(equal(
        "service_mix.gate_rolled_back",
        rolled_back,
        GATE_ROLLED_BACK,
    ));
    report.checks.push(reference_tally(
        "service_mix.gate_failures",
        failures,
        checked,
        GATE_FAILURES,
    ));

    let start = Instant::now();
    let mix = Mix::sample(derive_seed(args.seed, 0), POOL_WINDOWS);
    println!(
        "inputs: {} windows sampled in {:.3} s",
        POOL_WINDOWS * TENANTS,
        start.elapsed().as_secs_f64()
    );

    let cycles_per_drain = (BACKLOG * TENANTS * DISTANCE) as f64;
    if !args.trace {
        // Set-up: start the worker, register the tenants and decode one
        // window each (the first builds the shared context's graph).
        let setup = Setup::new(|rep| {
            let (server, tenants) =
                start_server(&mix, ServiceConfig::new(1).with_decoder(decoder()));
            let tickets: Vec<WindowTicket> = tenants
                .iter()
                .enumerate()
                .filter_map(|(t, &tenant)| {
                    let window = mix.window(t, 0, rep as usize).clone();
                    server.submit(tenant, window).ok()
                })
                .collect();
            drain(&server, tickets);
            server.finish();
        });
        let mut meter = Meter::new(
            "one 16-window backlog drain",
            DISTINCT_DRAINS,
            CpuClock::Process,
            args,
            setup,
        );
        let (server, tenants) =
            start_server(&mix, ServiceConfig::new(1).with_decoder(decoder()).paused());
        let (mut drains, mut refused, mut panics) = (0usize, 0u64, 0u64);
        while meter.running() {
            let (tickets, r) = fill(&server, &tenants, &mix, drains);
            refused += r;
            // A panic on a decode worker is not caught here: the server has
            // no timed wait, so it would hang the drain.
            meter.op(drains % DISTINCT_DRAINS, cycles_per_drain, || {
                guarded(&mut panics, (), || drain(&server, tickets))
            });
            drains += 1;
        }
        let final_report = server.finish();
        let (accepted, completed, rolled_back, failures, checked) = totals(&final_report);
        let builds: u64 = final_report.tenants.iter().map(|t| t.graph_builds).sum();
        println!(
            "service_mix: {drains} drains, {completed}/{accepted} windows completed, {refused} refused, \
             {rolled_back} rolled back, {failures}/{checked} logical failures, {builds} graph builds"
        );
        report.checks.push(equal(
            "service_mix.all_accepted_completed",
            completed,
            accepted,
        ));
        report.checks.push(consistent_tally(
            "service_mix.measured_failures",
            failures,
            checked,
            GATE_FAILURES,
        ));
        report.attempted = accepted + refused;
        report.failed = refused + (accepted - completed) + panics;
        report.measured = Some(meter.finish());
        return report;
    }

    let mut overhead = Vec::new();
    let mut service_frac = Vec::new();
    let mut agrees = true;
    let mut explode_ok = true;
    let (tracer, counts, repeat) = repeat_passes(args, |tracer| {
        let (served, served_ns, refused) = serve(&mix, TRACE_DRAINS);
        let (_, _, served_rolled_back, served_failures, _) = totals(&served);
        let max_depth = served
            .tenants
            .iter()
            .map(|t| t.max_depth)
            .max()
            .unwrap_or(0);

        let pool = ContextPool::new(decoder());
        let mut exploded = Exploded::new(decoder());
        let (mut rolled_back, mut failures, mut events_total) = (0u64, 0u64, 0u64);
        let decode_before = decode_total(tracer);
        let start = Instant::now();
        for d in 0..TRACE_DRAINS {
            for (i, (_, window)) in mix.drain_order(d).enumerate() {
                let request = (d * BACKLOG * TENANTS + i) as u64;
                let history = &window.history;
                let regions = (!window.regions.is_empty()).then_some(window.regions.as_slice());
                tracer.span("window", request, |t| {
                    let name = if window.struck() {
                        "service.decode_struck"
                    } else {
                        "service.decode_quiet"
                    };
                    let outcome = t.span(name, request, |_| {
                        pool.with(|context| {
                            context.decode_with_rollback(
                                &mix.graph,
                                RATE,
                                history,
                                regions,
                                window.window_start_cycle,
                            )
                        })
                    });
                    rolled_back += u64::from(outcome.was_rolled_back());
                    let final_outcome = outcome.final_outcome();
                    failures +=
                        u64::from(final_outcome.is_logical_failure(window.error_cut_parity));

                    let events = t.span("syndrome", request, |_| history.detection_events());
                    events_total += events.len() as u64;
                    let uniform = WeightModel::uniform(RATE);
                    let mut replay = t.span("rollback.first_pass", request, |t| {
                        let layers = history.num_layers();
                        exploded.decode(t, request, &mix.graph, layers, events.clone(), &uniform)
                    });
                    if let Some(regions) = regions {
                        let aware = WeightModel::anomaly_aware(
                            RATE,
                            regions.to_vec(),
                            window.window_start_cycle,
                        );
                        replay = t.span("rollback.second_pass", request, |t| {
                            let layers = history.num_layers();
                            exploded.decode(t, request, &mix.graph, layers, events, &aware)
                        });
                    }
                    agrees &= replay.total_weight == final_outcome.total_weight;
                });
            }
        }
        let traced = start.elapsed().as_secs_f64();
        let decode_ns = decode_total(tracer) - decode_before;
        service_frac.push(1.0 - decode_ns as f64 / served_ns as f64);
        overhead.push(traced / (served_ns as f64 / 1e9) - 1.0);
        explode_ok &= exploded.check.passed();
        agrees &= refused == 0 && rolled_back == served_rolled_back && failures == served_failures;
        (exploded.counts, events_total, rolled_back, max_depth)
    });
    let (decode_counts, events_total, rolled_back, max_depth) = counts;
    let windows = (TRACE_DRAINS * BACKLOG * TENANTS) as u64;
    report.checks.push(repeat);
    report.checks.push(Check::new(
        "trace.exploded_decode",
        explode_ok,
        "exploded graph+match calls agree with DecoderContext on weight, builds and re-weights",
    ));
    report.checks.push(Check::new(
        "trace.replay_matches_server",
        agrees,
        "ContextPool replay and exploded passes match the server's rollbacks, failures and weights",
    ));
    report.attempted = windows;
    report.layers = crate::explode::layer_metrics(&tracer, &decode_counts);
    report.layers.extend([
        (
            "syndrome.events_per_shot",
            events_total as f64 / windows as f64,
        ),
        ("rollback.second_passes", rolled_back as f64),
        (
            "rollback.second_pass_us",
            stats::mean_us(&tracer.durations("rollback.second_pass")),
        ),
        (
            "service.decode_us_quiet",
            stats::quantile_us(&tracer.durations("service.decode_quiet"), 0.5),
        ),
        (
            "service.decode_us_struck",
            stats::quantile_us(&tracer.durations("service.decode_struck"), 0.5),
        ),
        ("service.overhead_frac", stats::median(&service_frac)),
        ("service.max_depth", max_depth as f64),
        ("trace.overhead_frac", stats::median(&overhead)),
    ]);
    report.tracer = Some(tracer);
    report
}

/// Summed replayed decode time recorded so far.
fn decode_total(tracer: &crate::trace::Tracer) -> u64 {
    tracer.total_ns("service.decode_struck") + tracer.total_ns("service.decode_quiet")
}
