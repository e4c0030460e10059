//! `q3de_loop`: the paper's detect → `op_expand` → rollback loop
//! (`Q3dePipeline::process_window`) run closed-loop over d-cycle windows.
//!
//! The input is one d=11, p=1e-3 window stream with a recurring burst:
//! every [`EPISODE_WINDOWS`] windows a size-2, rate-0.5 burst strikes a
//! seed-chosen spot and lasts [`BURST_WINDOWS`] windows.  Each window is an
//! independent d-round memory shot with a final perfect readout, so every
//! window's correction can be checked against its sampled error.  This is
//! the only workload that loads the anomaly detector and the pipeline; it
//! re-weights the cached graph twice per rolled-back window.

use crate::explode::Exploded;
use crate::harness::{cpu_ns, derive_seed, guarded, repeat_passes, CpuClock, Meter, Setup};
use crate::stats::{self, consistent_tally, equal};
use crate::{Args, Check, Report};
use q3de::anomaly::AnomalyDetector;
use q3de::decoder::{DecoderConfig, MatcherKind, SyndromeHistory, WeightModel};
use q3de::lattice::Coord;
use q3de::noise::{AnomalousRegion, NoiseModel};
use q3de::pipeline::{PipelineConfig, Q3dePipeline};
use q3de::sim::{shot_stream_seed, MemoryExperiment, MemoryExperimentConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const DISTANCE: usize = 11;
const RATE: f64 = 1e-3;
const BURST_SIZE: usize = 2;
const BURST_RATE: f64 = 0.5;
/// A burst starts every this many windows…
const EPISODE_WINDOWS: u64 = 16;
/// …and lasts this many windows.
const BURST_WINDOWS: u64 = 4;
/// Windows sampled per run; the measured loop cycles through them.
const POOL_WINDOWS: u64 = 8192;
/// Windows of the traced pass.
const TRACE_WINDOWS: u64 = 256;
const GATE_SEED: u64 = 0x51DE_0003;
const GATE_WINDOWS: u64 = 512;
/// Detections, rolled-back windows and logical failures over the gate
/// stream, recorded at the parent commit.
const GATE_REFERENCE: (u64, u64, u64) = (32, 32, 0);

/// Layers per window: `d` noisy rounds plus the final readout.
const LAYERS: u64 = DISTANCE as u64 + 1;

fn config() -> PipelineConfig {
    PipelineConfig::new(DISTANCE, RATE)
        .with_matcher(MatcherKind::Tree)
        .with_detection_window(24)
        .with_count_threshold(8)
        .with_assumed_anomaly_size(BURST_SIZE)
        .with_expansion_keep_cycles(8 * LAYERS)
}

/// One sampled window and the truth it was sampled from.
struct Window {
    history: SyndromeHistory,
    error_cut_parity: bool,
    /// Absolute cycle at which this window's burst episode began, when the
    /// window is struck.
    burst_onset: Option<u64>,
}

fn sample_stream(seed: u64, windows: u64) -> Vec<Window> {
    let experiment =
        MemoryExperiment::new(MemoryExperimentConfig::new(DISTANCE, RATE)).expect("valid distance");
    let span = experiment.code().grid_size() - 2 * BURST_SIZE as i32;
    (0..windows)
        .map(|k| {
            let episode = k / EPISODE_WINDOWS;
            let mut noise = NoiseModel::uniform(RATE);
            let struck = k % EPISODE_WINDOWS < BURST_WINDOWS;
            if struck {
                let mut spot = ChaCha8Rng::seed_from_u64(derive_seed(seed, episode));
                let origin = Coord::new(spot.gen_range(0..span), spot.gen_range(0..span));
                noise.add_anomaly(AnomalousRegion::new(
                    origin, BURST_SIZE, 0, LAYERS, BURST_RATE,
                ));
            }
            let mut rng = ChaCha8Rng::seed_from_u64(shot_stream_seed(seed, k));
            let (history, error_cut_parity) = experiment.sample_history_with(&noise, &mut rng);
            Window {
                history,
                error_cut_parity,
                burst_onset: struck.then_some(episode * EPISODE_WINDOWS * LAYERS),
            }
        })
        .collect()
}

/// `(detections, rolled-back windows, logical failures)` of one fresh
/// pipeline over the stream.
fn tally(stream: &[Window]) -> (u64, u64, u64) {
    let mut pipeline = Q3dePipeline::new(config()).expect("valid distance");
    let (mut rolled_back, mut failures) = (0, 0);
    for (k, window) in stream.iter().enumerate() {
        let report = pipeline.process_window(&window.history, k as u64 * LAYERS);
        rolled_back += u64::from(report.decoding.was_rolled_back());
        failures += u64::from(report.correction_crosses_cut() != window.error_cut_parity);
    }
    (
        pipeline.detector().detections().len() as u64,
        rolled_back,
        failures,
    )
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let gate = tally(&sample_stream(GATE_SEED, GATE_WINDOWS));
    report.checks.push(equal(
        "q3de_loop.gate (detections, rollbacks, failures)",
        gate,
        GATE_REFERENCE,
    ));

    let start = Instant::now();
    let pool = sample_stream(derive_seed(args.seed, 0), POOL_WINDOWS);
    println!(
        "inputs: {POOL_WINDOWS} windows sampled in {:.3} s",
        start.elapsed().as_secs_f64()
    );

    if !args.trace {
        // Set-up: the constructor plus the first window, which builds the
        // graph.
        let setup = Setup::new(|rep| {
            let mut pipeline = Q3dePipeline::new(config()).expect("valid distance");
            pipeline.process_window(&pool[(rep % POOL_WINDOWS) as usize].history, 0);
        });
        let mut meter = Meter::new(
            "one process_window",
            POOL_WINDOWS as usize,
            CpuClock::Thread,
            args,
            setup,
        );
        let mut pipeline = Q3dePipeline::new(config()).expect("valid distance");
        let (mut panics, mut windows, mut failures, mut rolled_back) = (0u64, 0u64, 0u64, 0u64);
        while meter.running() {
            let window = &pool[(windows % POOL_WINDOWS) as usize];
            let start_cycle = windows * LAYERS;
            let episode = meter.op((windows % POOL_WINDOWS) as usize, DISTANCE as f64, || {
                guarded(&mut panics, None, || {
                    Some(pipeline.process_window(&window.history, start_cycle))
                })
            });
            if let Some(episode) = episode {
                rolled_back += u64::from(episode.decoding.was_rolled_back());
                failures += u64::from(episode.correction_crosses_cut() != window.error_cut_parity);
            }
            windows += 1;
        }
        let detections = pipeline.detector().detections().len() as u64;
        let episodes = windows.div_ceil(EPISODE_WINDOWS);
        report.checks.push(consistent_tally(
            "q3de_loop.measured_failures",
            failures,
            windows,
            (GATE_REFERENCE.2, GATE_WINDOWS),
        ));
        report.checks.push(Check::new(
            "q3de_loop.measured_detections",
            // One rollback per window that detected; roughly one detection
            // per burst.
            rolled_back <= detections && detections * 2 >= episodes && detections <= 2 * episodes,
            format!("{detections} detections, {rolled_back} rollbacks over {episodes} bursts"),
        ));
        println!("q3de_loop: {windows} windows, {detections} detections, {rolled_back} rollbacks, {failures} logical failures");
        report.attempted = windows;
        report.failed = panics;
        report.measured = Some(meter.finish());
        return report;
    }

    let stream = &pool[..TRACE_WINDOWS as usize];
    let decoder = DecoderConfig::default().with_matcher(MatcherKind::Tree);
    let mut overhead = Vec::new();
    let mut agrees = true;
    let mut explode_ok = true;
    let (tracer, counts, repeat) = repeat_passes(args, |tracer| {
        let mut untraced_pipeline = Q3dePipeline::new(config()).expect("valid distance");
        let start = cpu_ns(CpuClock::Process);
        for (k, window) in stream.iter().enumerate() {
            untraced_pipeline.process_window(&window.history, k as u64 * LAYERS);
        }
        let untraced = (cpu_ns(CpuClock::Process) - start) as f64;

        let mut pipeline = Q3dePipeline::new(config()).expect("valid distance");
        let mut detector = AnomalyDetector::new(
            *pipeline.detector().config(),
            pipeline.graph().nodes().to_vec(),
        );
        let graph = pipeline.graph().clone();
        let mut exploded = Exploded::new(decoder);
        let (mut rolled_back, mut latency_sum, mut true_detections) = (0u64, 0u64, 0u64);
        let mut events_total = 0u64;
        let start = cpu_ns(CpuClock::Process);
        for (k, window) in stream.iter().enumerate() {
            let request = k as u64;
            let start_cycle = request * LAYERS;
            tracer.span("window", request, |t| {
                let episode = t.span("pipeline.process_window", request, |_| {
                    pipeline.process_window(&window.history, start_cycle)
                });
                // The detector's view of the window, one layer at a time.
                let history = &window.history;
                let mut active = vec![false; history.num_nodes()];
                let mut found = None;
                for layer in 0..history.num_layers() {
                    for (node, slot) in active.iter_mut().enumerate() {
                        *slot = history.is_active(layer, node);
                    }
                    if let Some(hit) = t.span("anomaly.observe_layer", request, |_| {
                        detector.observe_layer(&active)
                    }) {
                        found = Some(hit);
                    }
                }
                if let (Some(hit), Some(onset)) = (&found, window.burst_onset) {
                    latency_sum += hit.detection_cycle - onset;
                    true_detections += 1;
                }
                // The decode_with_rollback flow: a blind pass, then a
                // re-executed pass under the assumed region's weights.
                let events = t.span("syndrome", request, |_| history.detection_events());
                events_total += events.len() as u64;
                let uniform = WeightModel::uniform(RATE);
                let mut outcome = t.span("rollback.first_pass", request, |t| {
                    exploded.decode(
                        t,
                        request,
                        &graph,
                        history.num_layers(),
                        events.clone(),
                        &uniform,
                    )
                });
                if let Some(region) = episode.assumed_region {
                    rolled_back += 1;
                    let aware = WeightModel::anomaly_aware(RATE, vec![region], start_cycle);
                    outcome = t.span("rollback.second_pass", request, |t| {
                        exploded.decode(t, request, &graph, history.num_layers(), events, &aware)
                    });
                }
                agrees &= found == episode.detection
                    && episode.decoding.was_rolled_back() == episode.assumed_region.is_some()
                    && outcome.total_weight == episode.decoding.final_outcome().total_weight;
            });
        }
        overhead.push((cpu_ns(CpuClock::Process) - start) as f64 / untraced - 1.0);
        explode_ok &= exploded.check.passed();
        (
            exploded.counts,
            detector.detections().len() as u64,
            rolled_back,
            true_detections,
            latency_sum,
            events_total,
        )
    });
    let (decode_counts, detections, rolled_back, true_detections, latency_sum, events_total) =
        counts;
    report.checks.push(repeat);
    report.checks.push(Check::new(
        "trace.exploded_decode",
        explode_ok,
        "exploded graph+match calls agree with DecoderContext on weight, builds and re-weights",
    ));
    report.checks.push(Check::new(
        "trace.replica_matches_pipeline",
        agrees,
        "replayed detector and rollback passes match process_window on every window",
    ));
    let observe = tracer.total_ns("anomaly.observe_layer") as f64;
    let process = tracer.total_ns("pipeline.process_window") as f64;
    report.attempted = TRACE_WINDOWS;
    report.layers = crate::explode::layer_metrics(&tracer, &decode_counts);
    report.layers.extend([
        (
            "syndrome.events_per_shot",
            events_total as f64 / TRACE_WINDOWS as f64,
        ),
        ("rollback.second_passes", rolled_back as f64),
        (
            "rollback.second_pass_us",
            stats::mean_us(&tracer.durations("rollback.second_pass")),
        ),
        (
            "anomaly.us_per_layer",
            stats::mean_us(&tracer.durations("anomaly.observe_layer")),
        ),
        ("anomaly.detections", detections as f64),
        (
            "anomaly.latency_cycles",
            latency_sum as f64 / true_detections.max(1) as f64,
        ),
        ("pipeline.detect_frac", observe / process),
        ("pipeline.rollback_windows", rolled_back as f64),
        ("trace.overhead_frac", stats::median(&overhead)),
    ]);
    report.tracer = Some(tracer);
    report
}
